"""Unit tests for the cycle-attribution ledger: its algebra, its event
counts, and counter ↔ cycle reconciliation."""

import pytest

from repro.machine.config import cedar_config1
from repro.machine.memory import MemorySystem
from repro.trace import (
    CATEGORIES,
    COUNTERS,
    HIERARCHY,
    NULL_LEDGER,
    CycleLedger,
    NullLedger,
    reconcile,
)
from repro.trace.ledger import memory_cycles_from_counters, prefetch_hit_rate


class TestAlgebra:
    def test_charge_accumulates(self):
        led = CycleLedger()
        led.charge("compute", 10.0)
        led.charge("compute", 5.0)
        led.charge("mem_global", 2.5)
        assert led.compute == 15.0
        assert led.mem_global == 2.5
        assert led.total() == 17.5

    def test_unknown_category_raises(self):
        led = CycleLedger()
        with pytest.raises(KeyError):
            led.charge("memory", 1.0)  # group name, not a category
        with pytest.raises(KeyError):
            led.charge("cycles", 1.0)

    def test_add_is_componentwise(self):
        a = CycleLedger(compute=1.0, sync=2.0)
        b = CycleLedger(compute=3.0, vector=4.0)
        a.add(b)
        assert a.compute == 4.0 and a.sync == 2.0 and a.vector == 4.0
        # b untouched
        assert b.compute == 3.0

    def test_scaled_mirrors_cost_scaling(self):
        led = CycleLedger(compute=2.0, mem_cluster=6.0)
        tripled = led.scaled(3.0)
        assert tripled.compute == 6.0 and tripled.mem_cluster == 18.0
        assert tripled is not led and led.compute == 2.0
        assert tripled.total() == pytest.approx(3.0 * led.total())

    def test_copy_is_independent(self):
        led = CycleLedger(vector=1.0)
        dup = led.copy()
        dup.charge("vector", 1.0)
        assert led.vector == 1.0 and dup.vector == 2.0

    def test_group_totals_partition_the_total(self):
        led = CycleLedger(**{c: float(i + 1)
                             for i, c in enumerate(CATEGORIES)})
        assert sum(led.group_total(g) for g in HIERARCHY) \
            == pytest.approx(led.total())

    def test_hierarchy_covers_every_category_once(self):
        flat = [c for cats in HIERARCHY.values() for c in cats]
        assert sorted(flat) == sorted(CATEGORIES)


class TestToDict:
    def test_shape(self):
        led = CycleLedger(compute=3.0, startup=7.0)
        d = led.to_dict()
        assert d["total"] == 10.0
        assert d["groups"]["processor"]["compute"] == 3.0
        assert d["groups"]["parallel_overhead"]["total"] == 7.0
        assert set(d["groups"]) == set(HIERARCHY)

    def test_json_round_trip(self):
        import json

        led = CycleLedger(mem_cache=1.25)
        assert json.loads(json.dumps(led.to_dict())) == led.to_dict()

    def test_render_mentions_nonzero_categories_only(self):
        led = CycleLedger(compute=100.0)
        text = led.render()
        assert "compute" in text
        assert "page_fault" not in text


class TestNullLedger:
    def test_charge_is_dropped(self):
        led = NullLedger()
        led.charge("compute", 100.0)
        led.add(CycleLedger(compute=5.0))
        assert led.total() == 0.0

    def test_scaled_and_copy_return_self(self):
        assert NULL_LEDGER.scaled(7.0) is NULL_LEDGER
        assert NULL_LEDGER.copy() is NULL_LEDGER

    def test_shared_instance_stays_clean(self):
        NULL_LEDGER.charge("sync", 1e9)
        assert NULL_LEDGER.total() == 0.0


class TestCounts:
    """Event counts ride the ledger's own algebra (profiling only)."""

    def test_plain_ledger_counts_nothing(self):
        led = CycleLedger()
        led.count("cache_refs", 5)  # must not raise, must not record
        assert led.counts is None
        assert led.scaled(2.0).counts is None

    def test_counts_ride_add_and_scaled(self):
        a = CycleLedger(counts={})
        a.charge("mem_cache", 10.0)
        a.count("cache_refs", 5)
        b = CycleLedger(counts={})
        b.add(a)
        b.add(a.scaled(3.0))
        assert b.counts["cache_refs"] == pytest.approx(20.0)
        assert b.mem_cache == pytest.approx(40.0)
        # scaling must not alias the original
        assert a.counts == {"cache_refs": 5}

    def test_scaled_matches_cycle_scaling(self):
        """Counter scaling must track cycle scaling exactly, or the
        estimator's trip/branch averaging would break reconciliation."""
        a = CycleLedger(counts={})
        a.charge("mem_global", 22.0)
        a.count("global_refs", 1)
        s = a.scaled(0.25)
        assert s.mem_global / a.mem_global == pytest.approx(
            s.counts["global_refs"] / a.counts["global_refs"])

    def test_add_plain_ledger_keeps_counts(self):
        a = CycleLedger(counts={})
        a.count("sync_ops", 2)
        a.add(CycleLedger(sync=7.0))
        assert a.counts == {"sync_ops": 2} and a.sync == 7.0

    def test_copy_independent(self):
        a = CycleLedger(counts={})
        a.count("page_faults", 1)
        c = a.copy()
        c.count("page_faults", 1)
        assert a.counts["page_faults"] == 1 and c.counts["page_faults"] == 2

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            CycleLedger(counts={}).count("no_such_counter", 1)

    def test_counter_dict_lists_every_counter(self):
        led = CycleLedger(counts={})
        led.count("vector_ops")
        d = led.counter_dict()
        assert tuple(d) == COUNTERS
        assert d["vector_ops"] == 1.0 and d["cache_refs"] == 0.0

    def test_prefetch_hit_rate(self):
        assert prefetch_hit_rate({}) == 0.0
        assert prefetch_hit_rate({"prefetch_elems": 75,
                                  "global_stream_elems": 25}) \
            == pytest.approx(0.75)

    def test_to_dict_carries_no_counts(self):
        led = CycleLedger(compute=3.0, counts={"cache_refs": 4.0})
        assert led.to_dict() == CycleLedger(compute=3.0).to_dict()


class TestReconcile:
    def test_memory_system_counters_reconcile(self):
        """Counters accumulated by the memory system, priced with the
        config's latencies, must equal the cycles it charged."""
        cfg = cedar_config1()
        mem = MemorySystem(cfg)
        led = CycleLedger(counts={})
        mem.scalar_access("private", ledger=led)
        mem.scalar_access("cluster", ledger=led)
        mem.scalar_access("global", ledger=led)
        mem.vector_access("global", 100, prefetch=True, ledger=led)
        mem.vector_access("global", 50, prefetch=False, ledger=led)
        mem.vector_access("cluster", 10, ledger=led)
        report = reconcile(led, cfg)
        assert all(v["ok"] for v in report.values()), report

    def test_reconcile_flags_mismatch(self):
        led = CycleLedger(counts={})
        led.charge("mem_cache", 100.0)  # cycles with no matching counts
        assert not reconcile(led, cedar_config1())["mem_cache"]["ok"]

    def test_from_counters_keys(self):
        out = memory_cycles_from_counters({}, cedar_config1())
        assert set(out) == {"mem_cache", "mem_cluster", "mem_global",
                            "prefetch", "page_fault"}
        assert all(v == 0.0 for v in out.values())


def test_counter_names_disjoint_from_categories():
    """Counter names must not shadow ledger cycle categories."""
    assert not set(COUNTERS) & set(CATEGORIES)
