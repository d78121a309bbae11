"""Property tests: LoopScheduler reconciliation invariants under faults.

The profiler/tracer contracts must survive *every* fault plan, not just
the healthy machine: for any sampled :class:`FaultPlan` and loop shape,

- the critical-path decomposition still sums to ``total_time`` exactly
  (``startup + dispatch + sync + body + pre_post + fault``),
- timeline busy-span durations still sum to ``busy_time`` and no span
  leaks outside the loop's ``[0, total]`` window,
- the ledger's ``fault`` category equals the timing's ``fault_cycles``,
- degradation is monotone (a faulted loop is never faster than healthy),
- an *inactive* plan is bit-identical to running with no injector,
- and the chunk-queue drain the faulted DOALL is priced with deals every
  chunk exactly once, whatever the per-chunk costs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.machine.config import cedar_config1, cedar_config2
from repro.machine.scheduler import LoopScheduler
from repro.trace.timeline import TimelineRecorder
from repro.trace.ledger import CycleLedger

REL = 1e-9


def run_with_plan(plan, cfg, level, order, trips, per, preamble=0.0,
                  postamble=0.0):
    """One scheduler call under ``plan`` with ledger + timeline attached;
    a DOACROSS synchronizes its whole iteration."""
    ledger = CycleLedger()
    tl = TimelineRecorder()
    injector = FaultInjector(plan) if plan is not None else None
    sched = LoopScheduler(cfg, faults=injector)
    if order == "doacross":
        timing = sched.doacross(level, trips, per, per, preamble, postamble,
                                ledger=ledger, timeline=tl, label="prop")
    else:
        timing = sched.run(level, trips, per, preamble, postamble,
                           ledger=ledger, timeline=tl, label="prop")
    return timing, ledger, tl.loops[0], injector


def check_reconciliation(timing, ledger, rec):
    # category sums == totals: the decomposition identity survives faults
    parts = (timing.startup_cycles + timing.dispatch_cycles
             + timing.sync_cycles + timing.body_cycles
             + timing.pre_post_cycles + timing.fault_cycles)
    scale = max(abs(timing.total_time), 1.0)
    assert abs(parts - timing.total_time) <= REL * scale, (
        f"decomposition {parts} != total {timing.total_time}")
    # busy sums == busy_time: span accounting survives faults
    assert rec.total == timing.total_time
    assert rec.busy_span_sum() == pytest.approx(timing.busy_time, rel=REL)
    for s in rec.spans:
        assert s.start >= -1e-9 and s.end <= rec.total + 1e-9
    # fault attribution lands in the ledger, and only there
    assert ledger.fault == pytest.approx(timing.fault_cycles, rel=REL)


loop_shapes = dict(
    trips=st.integers(min_value=1, max_value=200),
    per=st.floats(min_value=0.5, max_value=200.0,
                  allow_nan=False, allow_infinity=False),
    preamble=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    postamble=st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
    level=st.sampled_from(["C", "S", "X"]),
    config=st.sampled_from(["cedar1", "cedar2"]),
    plan_seed=st.integers(min_value=0, max_value=10_000),
)


@given(**loop_shapes)
@settings(max_examples=150, deadline=None)
def test_homogeneous_doall_invariants(trips, per, preamble, postamble, level,
                                      config, plan_seed):
    cfg = cedar_config1() if config == "cedar1" else cedar_config2()
    plan = FaultPlan.sample(plan_seed)
    timing, ledger, rec, inj = run_with_plan(
        plan, cfg, level, "doall", trips, per, preamble, postamble)
    check_reconciliation(timing, ledger, rec)
    healthy, _, _, _ = run_with_plan(
        None, cfg, level, "doall", trips, per, preamble, postamble)
    assert timing.total_time >= healthy.total_time * (1.0 - REL)
    assert timing.busy_time == healthy.busy_time  # faults are timing-only


@given(**loop_shapes)
@settings(max_examples=100, deadline=None)
def test_heterogeneous_simulation_invariants(trips, per, preamble,
                                             postamble, level, config,
                                             plan_seed):
    """The event-driven drain of a chunk queue with unequal costs, under
    any plan: every chunk runs exactly once, a dead CE takes nothing once
    its death cycle has passed, and every live CE's clock is its
    preamble plus the work it took, stretched by its clock factor."""
    cfg = cedar_config1() if config == "cedar1" else cedar_config2()
    plan = FaultPlan.sample(plan_seed)
    costs = [per * (1.0 + (i % 5) / 3.0) for i in range(trips)]
    p = min(cfg.processors_at(level), trips)
    dispatch = cfg.dispatch(level)
    owners, clocks = plan.drain(costs, p, dispatch, preamble)
    assert len(owners) == trips
    assert all(0 <= w < p for w in owners)
    alive = set(plan.survivors(p))
    f = [plan.speed_factor(w) for w in range(p)]
    clock = [preamble * f[w] for w in range(p)]
    for cost, w in zip(costs, owners):
        if w not in alive:
            assert clock[w] < plan.death_cycle
        clock[w] += (dispatch + cost) * f[w]
    assert alive <= {w for _, w in clocks}  # live CEs never retire
    for t, w in clocks:
        assert t == pytest.approx(clock[w], rel=REL)


@given(**loop_shapes)
@settings(max_examples=100, deadline=None)
def test_doacross_invariants(trips, per, preamble, postamble, level, config,
                             plan_seed):
    cfg = cedar_config1() if config == "cedar1" else cedar_config2()
    plan = FaultPlan.sample(plan_seed)
    timing, ledger, rec, inj = run_with_plan(
        plan, cfg, level, "doacross", trips, per,
        preamble=preamble, postamble=postamble)
    check_reconciliation(timing, ledger, rec)
    healthy, _, _, _ = run_with_plan(
        None, cfg, level, "doacross", trips, per,
        preamble=preamble, postamble=postamble)
    assert timing.total_time >= healthy.total_time * (1.0 - REL)
    # every lost signal was counted by the injector (stateless draws)
    assert inj.sync_retries == sum(
        1 for i in range(trips) if plan.sync_lost(i))


@given(trips=st.integers(min_value=1, max_value=100),
       per=st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
       order=st.sampled_from(["doall", "doacross"]),
       level=st.sampled_from(["C", "S", "X"]))
@settings(max_examples=100, deadline=None)
def test_inactive_plan_is_bit_identical(trips, per, order, level):
    """A default FaultPlan must be a guaranteed no-op — same floats."""
    cfg = cedar_config1()
    faulted, ledger, _, _ = run_with_plan(
        FaultPlan(), cfg, level, order, trips, per)
    healthy, hledger, _, _ = run_with_plan(
        None, cfg, level, order, trips, per)
    assert faulted.total_time == healthy.total_time
    assert faulted.busy_time == healthy.busy_time
    assert faulted.fault_cycles == 0.0
    assert ledger.total() == hledger.total()
    assert ledger.fault == 0.0


@given(plan_seed=st.integers(min_value=0, max_value=10_000),
       p=st.integers(min_value=1, max_value=32))
@settings(max_examples=200, deadline=None)
def test_survivors_never_empty(plan_seed, p):
    """No plan can kill every worker — deadlock-free by construction."""
    plan = FaultPlan.sample(plan_seed)
    survivors = plan.survivors(p)
    assert len(survivors) >= 1
    assert all(0 <= w < p for w in survivors)
