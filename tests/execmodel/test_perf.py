"""Performance estimator tests: structural properties of the cost model."""

import pytest

from repro.api import restructure
from repro.execmodel.perf import PerfEstimator
from repro.fortran.parser import parse_program
from repro.machine.config import alliant_fx80, cedar_config1
from repro.restructurer.options import RestructurerOptions

SAXPY = """
      subroutine saxpy(n, a, x, y)
      integer n
      real a, x(n), y(n)
      integer i
      do i = 1, n
         y(i) = y(i) + a * x(i)
      end do
      end
"""


def serial_est(src, entry, bindings, machine=None, **kw):
    return PerfEstimator(parse_program(src), machine or cedar_config1(),
                         **kw).estimate(entry, bindings)


def parallel_est(src, entry, bindings, machine=None,
                 options=None, **kw):
    sf, _ = restructure(parse_program(src), options)
    return PerfEstimator(sf, machine or cedar_config1(),
                         **kw).estimate(entry, bindings)


class TestBasics:
    def test_cost_scales_with_size(self):
        small = serial_est(SAXPY, "saxpy", {"n": 100})
        big = serial_est(SAXPY, "saxpy", {"n": 10000})
        assert big.total > small.total * 50

    def test_parallel_beats_serial_at_scale(self):
        ser = serial_est(SAXPY, "saxpy", {"n": 100000})
        par = parallel_est(SAXPY, "saxpy", {"n": 100000})
        assert ser.total / par.total > 8

    def test_parallel_overhead_dominates_tiny_loops(self):
        """XDOALL startup (≈1700 cycles) makes a 10-trip loop not worth
        spreading — the paper's Cedar-auto-below-1 effect."""
        src = SAXPY.replace("do i = 1, n", "do i = 1, 10")
        ser = serial_est(src, "saxpy", {"n": 10})
        # force the parallel form regardless of planner judgement
        from repro.restructurer.options import RestructurerOptions

        sf, rep = restructure(parse_program(src))
        # if the planner kept it serial (it should), the times match;
        # the point stands either way: no big win on 10 trips
        par = PerfEstimator(sf, cedar_config1()).estimate("saxpy", {"n": 10})
        assert par.total > ser.total * 0.5

    def test_zero_trip_doall_costs_less_than_one_iteration(self):
        """An empty DOALL runs its start-up and one empty share's
        preamble and postamble, like the interpreter, and no
        iteration."""
        opts = RestructurerOptions.manual()
        one = parallel_est(SAXPY, "saxpy", {"n": 1}, options=opts)
        none = parallel_est(SAXPY, "saxpy", {"n": 0}, options=opts)
        assert none.total < one.total

    def test_placement_matters(self):
        ser_cluster = serial_est(SAXPY, "saxpy", {"n": 10000})
        ser_global = serial_est(SAXPY, "saxpy", {"n": 10000},
                                placements=dict.fromkeys("naxyi", "global"))
        assert ser_global.total > ser_cluster.total  # scalar global is slow

    def test_prefetch_helps_parallel_global_streams(self):
        on = parallel_est(SAXPY, "saxpy", {"n": 100000}, prefetch=True)
        off = parallel_est(SAXPY, "saxpy", {"n": 100000}, prefetch=False)
        assert on.total < off.total

    def test_fx80_vs_cedar_startups(self):
        """A small XDOALL starts far cheaper on the FX/80 (one cluster, no
        cross-cluster wakeup through global memory)."""
        from repro.cedar.nodes import ParallelDo
        from repro.fortran import ast_nodes as F

        sf = parse_program(SAXPY)
        unit = sf.units[0]
        loop = unit.body[0]
        unit.body = [ParallelDo(level="X", order="doall", var=loop.var,
                                start=F.IntLit(1), end=F.IntLit(64),
                                body=loop.body)]
        cedar = PerfEstimator(sf, cedar_config1()).estimate("saxpy", {"n": 64})
        fx = PerfEstimator(sf, alliant_fx80()).estimate("saxpy", {"n": 64})
        assert fx.total < cedar.total


class TestPaging:
    SRC = """
      subroutine big(n, a, b)
      integer n
      real a(n, n), b(n, n)
      integer i, j
      do j = 1, n
         do i = 1, n
            b(i, j) = a(i, j) * 2.0
         end do
      end do
      end
"""

    def test_thrashing_kicks_in_past_capacity(self):
        """Two n×n matrices: 2×8 MB at n=1000 exceed the 16 MB cluster's
        usable memory (the mprove effect)."""
        small = serial_est(self.SRC, "big", {"n": 800})
        large = serial_est(self.SRC, "big", {"n": 1100})
        # thrashing adds orders of magnitude, not the ~1.9x of pure work
        assert large.page_overhead > 0
        assert small.page_overhead == 0
        assert large.total / small.total > 10

    def test_global_memory_avoids_thrash(self):
        par = parallel_est(self.SRC, "big", {"n": 1100})
        assert par.page_overhead == 0


class TestProfiles:
    def test_traffic_accounted(self):
        res = parallel_est(SAXPY, "saxpy", {"n": 10000})
        assert res.profile.global_elems > 10000  # x and y streams

    def test_saturation_slows_constrained_bandwidth(self):
        """Tightening the global bandwidth must slow a streaming loop."""
        from dataclasses import replace as dc_replace

        sf, _ = restructure(parse_program(SAXPY))
        wide = PerfEstimator(sf, cedar_config1()).estimate(
            "saxpy", {"n": 200000}).total
        narrow_cfg = dc_replace(cedar_config1(), global_bandwidth=0.5)
        narrow = PerfEstimator(sf, narrow_cfg).estimate(
            "saxpy", {"n": 200000}).total
        assert narrow > wide * 1.5


class TestBranchDecision:
    def test_two_version_condition_decided(self):
        """A runtime-test IF with bindings that satisfy the predicate must
        be charged as the parallel arm, not the average."""
        src = """
      subroutine rt(ni, nj, lda, w, d)
      integer ni, nj, lda
      real w(*), d(ni)
      integer i, j
      do j = 1, nj
         do i = 1, ni
            w(i + lda * (j - 1)) = w(i + lda * (j - 1)) + d(i)
         end do
      end do
      end
"""
        opts = RestructurerOptions.manual()
        sf, rep = restructure(parse_program(src), opts)
        plans = [p.chosen for u in rep.units.values() for p in u.plans]
        assert "runtime-two-version" in plans
        good = PerfEstimator(sf, cedar_config1()).estimate(
            "rt", {"ni": 512, "nj": 512, "lda": 512})
        # lda < ni: rows alias, the serial arm runs
        bad = PerfEstimator(sf, cedar_config1()).estimate(
            "rt", {"ni": 512, "nj": 512, "lda": 100})
        assert good.total < bad.total
