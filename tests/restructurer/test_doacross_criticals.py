"""Unit tests for DOACROSS planning and unordered critical sections."""

import pytest

from repro.analysis.depend import build_dependence_graph
from repro.cedar.nodes import AdvanceStmt, AwaitStmt, LockStmt, UnlockStmt
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer.criticals import (
    build_critical_loop,
    plan_critical_section,
)
from repro.restructurer.doacross import build_doacross, plan_doacross


def get_loop(src):
    sf = parse_program(src)
    u = sf.units[0]
    build_symbol_table(u)
    loop = next(s for s in u.body if isinstance(s, F.DoLoop))
    return loop, build_dependence_graph(loop)


class TestDoacross:
    CASCADE = """
      subroutine s(n, a, b, c, d)
      integer n
      real a(n), b(n), c(n), d(n)
      integer i
      do i = 2, n
         c(i) = d(i) * 2.0
         b(i) = a(i) + b(i - 1)
         d(i) = c(i) + 1.0
      end do
      end
"""

    def test_plan_finds_minimal_region(self):
        loop, g = get_loop(self.CASCADE)
        plan = plan_doacross(loop, g)
        assert plan is not None
        # only the b-recurrence statement is synchronized
        assert plan.first == plan.last == 1
        assert plan.distance == 1

    def test_delay_factor(self):
        loop, g = get_loop(self.CASCADE)
        plan = plan_doacross(loop, g)
        # region is roughly a third of the body; per §3.3 divided by procs
        f8 = plan.delay_factor(8)
        f32 = plan.delay_factor(32)
        assert 0 < f32 < f8 < 1

    def test_build_brackets_region(self):
        loop, g = get_loop(self.CASCADE)
        plan = plan_doacross(loop, g)
        pdo = build_doacross(plan, level="C")
        kinds = [type(s).__name__ for s in pdo.body]
        ai = kinds.index("AwaitStmt")
        vi = kinds.index("AdvanceStmt")
        assert ai < vi
        assert pdo.order == "doacross"

    def test_parallel_loop_needs_no_plan(self):
        loop, g = get_loop("""
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      integer i
      do i = 1, n
         a(i) = b(i)
      end do
      end
""")
        assert plan_doacross(loop, g) is None

    def test_region_is_priced_at_the_planners_trip_count(self,
                                                         monkeypatch):
        """A sync region that is the whole body, holding a DO of unknown
        trip count: the plan's ``region_ops`` is the ``body_ops`` the
        planner scores the DOACROSS against, not a tenth of it."""
        import repro
        from repro.restructurer import planner
        from repro.restructurer.costmodel import estimate_body_ops

        plans = []
        plan = planner.plan_doacross

        def spy(*args, **kwargs):
            plans.append(plan(*args, **kwargs))
            return plans[-1]

        monkeypatch.setattr(planner, "plan_doacross", spy)
        repro.restructure_source("""
      subroutine s(n, m, a, b)
      integer n, m, i, j
      real a(n), b(n, m)
      do i = 2, n
         do j = 1, m
            b(i, j) = b(i, j) * a(i - 1)
         end do
         a(i) = b(i, 1) + 1.0
      end do
      end
""")
        [p] = [p for p in plans if p is not None]
        assert (p.first, p.last) == (0, len(p.loop.body) - 1)
        assert p.region_ops == p.body_ops \
            == estimate_body_ops(p.loop.body)

    def test_unknown_distance_declines(self):
        loop, g = get_loop("""
      subroutine s(n, k, a)
      integer n, k
      real a(n)
      integer i
      do i = 1, n
         a(i) = a(i - k) + 1.0
      end do
      end
""")
        assert plan_doacross(loop, g) is None


class TestCriticalSections:
    HITS = """
      subroutine s(n, x, y, thresh, hits, nhit)
      integer n, nhit
      real x(n), y(n), thresh
      integer hits(n)
      real d
      integer i, k
      do i = 1, n
         d = 0.0
         do k = 1, 50
            d = d + x(i) * 0.01 * k
         end do
         y(i) = d
         if (d .gt. thresh) then
            nhit = nhit + 1
            hits(nhit) = i
         end if
      end do
      end
"""

    def test_plan_accepts_append_idiom(self):
        loop, g = get_loop(self.HITS)
        # the planner passes the privatizable scalars as the ignore set
        plan = plan_critical_section(loop, g, ignore={"d", "k"})
        assert plan is not None
        assert "nhit" in plan.variables

    def test_build_brackets_with_locks(self):
        loop, g = get_loop(self.HITS)
        plan = plan_critical_section(loop, g, ignore={"d", "k"})
        pdo = build_critical_loop(plan)
        kinds = [type(s).__name__ for s in pdo.body]
        assert kinds.index("LockStmt") < kinds.index("UnlockStmt")
        assert pdo.order == "doall"

    def test_order_sensitive_recurrence_rejected(self):
        """A mod-based RNG seed must never go behind an unordered lock —
        the paper's QCD validation footnote."""
        loop, g = get_loop("""
      subroutine s(n, seed, out)
      integer n, seed
      real out(n)
      integer i
      do i = 1, n
         seed = mod(seed * 16807, 2147483647)
         out(i) = seed * 1.0e-9
      end do
      end
""")
        assert plan_critical_section(loop, g, ignore=set()) is None

    def test_region_covering_whole_body_rejected(self):
        loop, g = get_loop("""
      subroutine s(n, t, a)
      integer n
      real t, a(n)
      integer i
      do i = 1, n
         t = t + a(i)
         a(i) = t
      end do
      end
""")
        # t is read outside any small region (whole body involved)
        assert plan_critical_section(loop, g, ignore=set()) is None

    def test_variable_escaping_region_rejected(self):
        loop, g = get_loop("""
      subroutine s(n, x, nhit, b)
      integer n, nhit
      real x(n), b(n)
      integer i
      do i = 1, n
         nhit = nhit + 1
         b(i) = x(i) * nhit
      end do
      end
""")
        assert plan_critical_section(loop, g, ignore=set()) is None
