"""FaultPlan: validation, determinism, no-deadlock, (de)serialization."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FaultInjectionError
from repro.execmodel.interp import cyclic_deal
from repro.faults.plan import (FaultPlan, QUICK_SCENARIOS, SCENARIO_SPECS,
                               all_scenarios, scenario)


class TestValidation:
    def test_defaults_are_inactive(self):
        p = FaultPlan()
        assert not p.active
        assert not p.degrades_workers
        assert not p.degrades_scheduling

    @pytest.mark.parametrize("kwargs", [
        {"cluster_slowdown": 0.5},
        {"memory_degradation": 0.9},
        {"bandwidth_factor": 0.0},
        {"bandwidth_factor": 1.5},
        {"lost_sync_rate": -0.1},
        {"lost_sync_rate": 1.1},
        {"death_cycle": -1.0},
        {"helper_delay": -5.0},
        {"dead_ces": (-1,)},
        {"ce_slowdown": ((0, 0.5),)},
        {"ce_slowdown": ((-2, 2.0),)},
    ])
    def test_malformed_plans_rejected(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultPlan(**kwargs)

    def test_every_knob_activates(self):
        for kwargs in [{"dead_ces": (1,)}, {"ce_slowdown": ((0, 2.0),)},
                       {"cluster_slowdown": 1.5},
                       {"memory_degradation": 2.0},
                       {"bandwidth_factor": 0.5},
                       {"prefetch_disabled": True},
                       {"lost_sync_rate": 0.1}, {"helper_delay": 10.0}]:
            assert FaultPlan(**kwargs).active, kwargs


class TestSurvivors:
    def test_no_deadlock_even_if_all_die(self):
        p = FaultPlan(dead_ces=tuple(range(8)))
        assert len(p.survivors(8)) >= 1
        for n in range(1, 12):
            assert len(FaultPlan(dead_ces=tuple(range(16))).survivors(n)) >= 1

    def test_survivors_excludes_dead(self):
        p = FaultPlan(dead_ces=(1, 3))
        assert p.survivors(4) == [0, 2]
        # dead index beyond p is irrelevant
        assert FaultPlan(dead_ces=(9,)).survivors(4) == [0, 1, 2, 3]

    def test_speed_factor_composes(self):
        p = FaultPlan(cluster_slowdown=2.0, ce_slowdown=((1, 3.0),))
        assert p.speed_factor(0) == 2.0
        assert p.speed_factor(1) == 6.0
        assert p.max_speed_factor(2) == 6.0


class TestDeterminism:
    def test_sync_lost_is_stateless_and_stable(self):
        p = FaultPlan(lost_sync_rate=0.3, seed=42)
        draws = [p.sync_lost(i) for i in range(200)]
        assert draws == [p.sync_lost(i) for i in range(200)]
        assert any(draws) and not all(draws)

    def test_sync_lost_rate_extremes(self):
        assert not any(FaultPlan(lost_sync_rate=0.0).sync_lost(i)
                       for i in range(50))
        assert all(FaultPlan(lost_sync_rate=1.0).sync_lost(i)
                   for i in range(50))

    def test_different_seeds_differ(self):
        a = [FaultPlan(lost_sync_rate=0.5, seed=1).sync_lost(i)
             for i in range(100)]
        b = [FaultPlan(lost_sync_rate=0.5, seed=2).sync_lost(i)
             for i in range(100)]
        assert a != b

    def test_sample_is_deterministic_and_valid(self):
        for seed in range(20):
            p = FaultPlan.sample(seed)
            assert p == FaultPlan.sample(seed)
            assert len(p.survivors(8)) >= 1
            assert p.degradation_bound(8) >= 1.0


class TestSerialization:
    def test_round_trip(self):
        for name in SCENARIO_SPECS:
            p = scenario(name)
            assert FaultPlan.from_dict(p.to_dict()) == p

    def test_unknown_field_rejected(self):
        d = FaultPlan().to_dict()
        d["cosmic_rays"] = True
        with pytest.raises(FaultInjectionError, match="cosmic_rays"):
            FaultPlan.from_dict(d)

    def test_renamed(self):
        p = scenario("chaos").renamed("chaos-2")
        assert p.name == "chaos-2"
        assert p.dead_ces == scenario("chaos").dead_ces


class TestScenarios:
    def test_unknown_scenario(self):
        with pytest.raises(FaultInjectionError, match="unknown fault"):
            scenario("meteor-strike")

    def test_quick_is_a_subset(self):
        assert set(QUICK_SCENARIOS) <= set(SCENARIO_SPECS)
        assert "healthy" in QUICK_SCENARIOS

    def test_all_scenarios_shapes(self):
        full = all_scenarios()
        quick = all_scenarios(quick=True)
        assert set(full) == set(SCENARIO_SPECS)
        assert set(quick) == set(QUICK_SCENARIOS)
        assert not full["healthy"].active
        for name, plan in full.items():
            if name != "healthy":
                assert plan.active, name


class TestBound:
    def test_healthy_bound_is_slack_only(self):
        assert FaultPlan().degradation_bound(8) == pytest.approx(1.25)

    def test_bound_covers_each_knob(self):
        base = FaultPlan().degradation_bound(8)
        for kwargs in [{"dead_ces": (1, 2)}, {"cluster_slowdown": 2.0},
                       {"memory_degradation": 3.0},
                       {"bandwidth_factor": 0.5},
                       {"prefetch_disabled": True},
                       {"lost_sync_rate": 0.5}, {"helper_delay": 400.0}]:
            assert FaultPlan(**kwargs).degradation_bound(8) > base, kwargs


plan_seeds = st.integers(min_value=0, max_value=10_000)
trip_counts = st.integers(min_value=0, max_value=200)
worker_counts = st.integers(min_value=1, max_value=8)

#: evaluated here and in a child process with another hash seed
_DEAL_PROBE = ("[FaultPlan.sample(s).deal(n, p) for s in range(12) "
               "for n, p in ((24, 8), (7, 3), (64, 5))]")


class TestDeal:
    """``FaultPlan.deal``: the functional replay of the chunk queue."""

    @given(plan_seed=plan_seeds, n=trip_counts, p=worker_counts)
    @settings(max_examples=200, deadline=None)
    def test_is_a_partition_in_ascending_shares(self, plan_seed, n, p):
        plan = FaultPlan.sample(plan_seed)
        shares = plan.deal(n, p)
        assert len(shares) == p
        assert sorted(i for share in shares for i in share) \
            == list(range(n))
        assert all(share == sorted(share) for share in shares)
        assert plan.deal(n, p) == shares

    def test_is_the_same_in_another_process(self):
        env = dict(os.environ, PYTHONHASHSEED="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        code = ("import json; from repro.faults.plan import FaultPlan; "
                f"print(json.dumps({_DEAL_PROBE}))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout
        assert json.loads(out) == eval(_DEAL_PROBE)

    @given(plan_seed=plan_seeds, n=trip_counts, p=worker_counts)
    @settings(max_examples=200, deadline=None)
    def test_no_dead_or_singled_out_ce_means_the_cyclic_deal(
            self, plan_seed, n, p):
        # timing-only faults and a uniformly slow cluster stretch every
        # clock alike: ties still break by worker index
        plan = replace(FaultPlan.sample(plan_seed),
                       dead_ces=(), ce_slowdown=())
        assert plan.deal_key == FaultPlan().deal_key
        assert plan.deal(n, p) == [list(r) for r in cyclic_deal(n, p)]

    @given(plan_seed=plan_seeds, n=trip_counts, p=worker_counts)
    @settings(max_examples=200, deadline=None)
    def test_dead_from_cycle_zero_gets_nothing(self, plan_seed, n, p):
        plan = replace(FaultPlan.sample(plan_seed), death_cycle=0.0)
        shares = plan.deal(n, p)
        alive = plan.survivors(p)
        assert all(shares[w] == [] for w in range(p) if w not in alive)

    def test_late_death_retires_mid_loop(self):
        plan = scenario("dead-ce-late")
        shares = plan.deal(24, 8)
        healthy = len(cyclic_deal(24, 8)[0])
        for w in plan.dead_ces:
            assert 1 <= len(shares[w]) < healthy
        assert all(len(shares[w]) >= healthy for w in plan.survivors(8))

    def test_slow_ce_takes_fewer(self):
        shares = scenario("slow-ce").deal(24, 8)
        assert 1 <= len(shares[2]) < min(
            len(s) for w, s in enumerate(shares) if w != 2)

    @given(seed_a=plan_seeds, seed_b=plan_seeds, degraded=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_equal_keys_deal_equally(self, seed_a, seed_b, degraded):
        a = FaultPlan.sample(seed_a)
        if degraded:
            # everything the key leaves out is free to differ
            b = replace(FaultPlan.sample(seed_b), dead_ces=a.dead_ces,
                        death_cycle=a.death_cycle,
                        ce_slowdown=a.ce_slowdown,
                        cluster_slowdown=a.cluster_slowdown)
        else:
            a = replace(a, dead_ces=(), ce_slowdown=())
            b = replace(FaultPlan.sample(seed_b),
                        dead_ces=(), ce_slowdown=())
        assert a.deal_key == b.deal_key
        for n in range(65):
            for p in range(1, 9):
                assert a.deal(n, p) == b.deal(n, p), (n, p)

    def test_the_matrix_has_five_distinct_deals(self):
        by_key: dict = {}
        for name, plan in all_scenarios().items():
            by_key.setdefault(plan.deal_key, []).append(name)
        assert len(by_key) == 5
        assert sorted(names[0] for names in by_key.values()
                      if len(names) == 1) == [
            "chaos", "dead-ce", "dead-ce-late", "slow-ce"]
        assert len(by_key[FaultPlan().deal_key]) == 7

