"""Unit tests for the Cedar machine model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MachineModelError
from repro.faults.plan import FaultPlan
from repro.machine import (
    LoopScheduler,
    MemorySystem,
    PagingModel,
    SyncModel,
    VectorUnit,
    alliant_fx80,
    cedar_config1,
    cedar_config2,
)


class TestConfig:
    def test_presets(self):
        c1, c2 = cedar_config1(), cedar_config2()
        assert c1.total_processors == 32
        assert c1.cluster_memory_mb == 16 and c2.cluster_memory_mb == 64
        assert c1.global_memory_mb == c2.global_memory_mb == 64
        fx = alliant_fx80()
        assert fx.clusters == 1 and not fx.has_global_memory

    def test_processors_at_levels(self):
        c = cedar_config1()
        assert c.processors_at("C") == 8
        assert c.processors_at("S") == 4
        assert c.processors_at("X") == 32
        with pytest.raises(MachineModelError):
            c.processors_at("Z")

    def test_startup_ordering(self):
        """CDOALL start ≪ SDOALL/XDOALL start (§4.2.4)."""
        c = cedar_config1()
        assert c.startup("C", "doall") * 10 < c.startup("S", "doall")
        assert c.startup("C", "doall") * 10 < c.startup("X", "doall")

    def test_with_clusters(self):
        c = cedar_config1().with_clusters(2)
        assert c.total_processors == 16
        with pytest.raises(MachineModelError):
            cedar_config1().with_clusters(0)


class TestMemory:
    def test_hierarchy_ordering(self):
        m = MemorySystem(cedar_config1())
        assert m.scalar_access("private") < m.scalar_access("cluster") \
            < m.scalar_access("global")

    def test_prefetched_global_stream_beats_unprefetched(self):
        m = MemorySystem(cedar_config1())
        on, _ = m.vector_access("global", 1000, prefetch=True)
        off, _ = m.vector_access("global", 1000, prefetch=False)
        assert on < off

    def test_prefetched_global_beats_cluster_for_long_streams(self):
        """The Figure 8 one-cluster effect: global transfer rate + prefetch
        beat cluster memory."""
        m = MemorySystem(cedar_config1())
        g, _ = m.vector_access("global", 10000, prefetch=True)
        c, _ = m.vector_access("cluster", 10000)
        assert g < c

    def test_fx80_global_degrades_to_cluster(self):
        m = MemorySystem(alliant_fx80())
        assert m.scalar_access("global") == m.scalar_access("cluster")

    def test_saturation_factor(self):
        m = MemorySystem(cedar_config1())
        assert m.saturation_factor(100.0, 1000.0, 4) == 1.0  # low demand
        f = m.saturation_factor(100000.0, 1000.0, 4)  # 100 elems/cycle
        assert f > 1.0

    def test_zero_length_stream(self):
        m = MemorySystem(cedar_config1())
        c, prof = m.vector_access("global", 0)
        assert c == 0.0 and prof.global_elems == 0


class TestPrefetchUnit:
    """The prefetch unit as :meth:`MemorySystem.vector_access` models it."""

    @staticmethod
    def _gain(length):
        m = MemorySystem(cedar_config1())
        off, _ = m.vector_access("global", length, prefetch=False)
        on, _ = m.vector_access("global", length, prefetch=True)
        return off / on

    def test_speedup_grows_with_length(self):
        """Figure 6's cause: long vectors gain much more than short ones."""
        assert self._gain(1000) > self._gain(8)

    def test_disabled_unit_no_gain(self):
        assert self._gain(256) > 1.0

    def test_cluster_stream_ignores_prefetch(self):
        """The unit sits on the global-memory path only (§2.2.3)."""
        m = MemorySystem(cedar_config1())
        off, _ = m.vector_access("cluster", 256, prefetch=False)
        on, prof = m.vector_access("cluster", 256, prefetch=True)
        assert on == off and prof.prefetched_elems == 0


class TestPaging:
    def test_no_faults_within_capacity(self):
        p = PagingModel(cedar_config1())
        assert p.fault_overhead(8 * 2**20, "cluster", 3.0) == 0.0

    def test_thrash_beyond_capacity(self):
        """The mprove effect: two 8 MB matrices in a 16 MB cluster."""
        p = PagingModel(cedar_config1())
        over = p.fault_overhead(16 * 2**20, "cluster", 3.0)
        assert over > 1e8

    def test_global_memory_larger(self):
        p = PagingModel(cedar_config1())
        assert p.fault_overhead(16 * 2**20, "global", 3.0) == 0.0

    def test_monotone_in_working_set(self):
        p = PagingModel(cedar_config1())
        a = p.fault_overhead(14 * 2**20, "cluster", 1.0)
        b = p.fault_overhead(20 * 2**20, "cluster", 1.0)
        assert b >= a


class TestScheduler:
    def test_doall_scales(self):
        s = LoopScheduler(cedar_config1())
        t8 = s.run("C", 1024, iter_cost=100.0)
        assert t8.workers == 8
        serial = 1024 * 100.0
        assert t8.total_time < serial / 4  # decent efficiency

    def test_small_trip_counts_dont_scale(self):
        s = LoopScheduler(cedar_config1())
        t = s.run("X", 4, iter_cost=10.0)
        assert t.workers == 4  # only as many workers as iterations
        assert t.total_time > 4 * 10.0  # startup dominates

    def test_startup_gap_c_vs_s(self):
        """§4.2.4: spreading a tiny loop across clusters loses."""
        s = LoopScheduler(cedar_config1())
        c = s.run("C", 16, iter_cost=20.0)
        x = s.run("X", 16, iter_cost=20.0)
        assert c.total_time < x.total_time

    def test_doacross_serial_chain_bound(self):
        s = LoopScheduler(cedar_config1())
        t = s.doacross("C", 100, iter_cost=50.0, region_cost=45.0)
        signal = (cedar_config1().cost_await + cedar_config1().cost_advance)
        assert t.total_time >= 100 * (45.0 + signal)

    def test_doacross_small_region_parallelizes(self):
        s = LoopScheduler(cedar_config1())
        big_region = s.doacross("C", 1000, 100.0, region_cost=90.0)
        small_region = s.doacross("C", 1000, 100.0, region_cost=5.0)
        assert small_region.total_time < big_region.total_time

    def test_busy_time_counts_every_dispatch(self):
        """Busy cycles: every iteration and its dispatch, plus one
        preamble and postamble per worker."""
        cfg = cedar_config1()
        t = LoopScheduler(cfg).run("S", 10, 30.0, preamble=4.0, postamble=1.0)
        assert t.workers == 4
        assert t.busy_time == 10 * (30.0 + cfg.dispatch("S")) + 4 * 5.0

    def test_heterogeneous_simulation(self):
        """Triangular per-iteration costs load-balance via self-scheduling
        (the event-driven drain of the chunk queue)."""
        costs = [float(i) for i in range(1, 65)]
        owners, clocks = FaultPlan().drain(costs, 8)
        busy_ideal = sum(costs) / 8
        makespan = max(t for t, _ in clocks)
        assert makespan >= busy_ideal
        assert makespan < busy_ideal * 2.5
        assert sorted(set(owners)) == list(range(8))  # every CE takes work

    def test_zero_trips(self):
        s = LoopScheduler(cedar_config1())
        t = s.run("C", 0, iter_cost=10.0)
        assert t.total_time == cedar_config1().start_cdoall


class TestSync:
    def test_doacross_cascade_cross_cluster_higher(self):
        """An X-level DOACROSS signals across clusters: with the same
        trips and costs it charges more sync cycles than a C-level one."""
        s = LoopScheduler(cedar_config1())
        x = s.doacross("X", 64, iter_cost=50.0, region_cost=50.0)
        c = s.doacross("C", 64, iter_cost=50.0, region_cost=50.0)
        assert x.sync_cycles > c.sync_cycles > 0

    def test_critical_section_contention(self):
        m = SyncModel(cedar_config1())
        assert m.critical_section(100.0, 32) > m.critical_section(100.0, 2)

    def test_reduction_combine_levels(self):
        m = SyncModel(cedar_config1())
        assert m.reduction_combine("X") > m.reduction_combine("C")


@settings(max_examples=60, deadline=None)
@given(trips=st.integers(1, 5000), iter_cost=st.floats(1.0, 500.0))
def test_scheduler_bounds(trips, iter_cost):
    """Completion time is bounded below by ideal parallel time and above
    by startup + serial time + dispatch."""
    cfg = cedar_config1()
    s = LoopScheduler(cfg)
    t = s.run("X", trips, iter_cost=iter_cost)
    ideal = trips * iter_cost / t.workers
    assert t.total_time >= ideal * 0.99
    serial = trips * (iter_cost + cfg.dispatch_x)
    assert t.total_time <= cfg.start_xdoall + serial + iter_cost + 1


@settings(max_examples=60, deadline=None)
@given(length=st.floats(1, 1e6))
def test_memory_stream_monotone(length):
    m = MemorySystem(cedar_config1())
    a, _ = m.vector_access("global", length, prefetch=True)
    b, _ = m.vector_access("global", length + 100, prefetch=True)
    assert b >= a
