"""Direct tests of the definite-assignment / liveness walkers."""

from repro.analysis.dataflow import Assigned, RegionUsage
from repro.analysis.nest import NestRecord
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table


def unit_of(src):
    return parse_program(src).units[0]


def first_loop(unit):
    return next(s for s in unit.body if isinstance(s, F.DoLoop))


class TestReadsAfter:
    def test_read_in_later_statement(self):
        u = unit_of("""
      subroutine s(a, n, out)
      integer n
      real a(n), out
      real t
      integer i
      do i = 1, n
         t = a(i)
         a(i) = t + 1.0
      end do
      out = t
      end
""")
        loop = first_loop(u)
        assert NestRecord(loop, u).live_after("t")

    def test_no_read_after(self):
        u = unit_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      real t
      integer i
      do i = 1, n
         t = a(i)
         a(i) = t + 1.0
      end do
      end
""")
        loop = first_loop(u)
        assert not NestRecord(loop, u).live_after("t")

    def test_redefinition_kills_liveness(self):
        """A later statement that overwrites before reading does not keep
        the loop's value live."""
        u = unit_of("""
      subroutine s(a, n, out)
      integer n
      real a(n), out
      real t
      integer i
      do i = 1, n
         t = a(i)
         a(i) = t + 1.0
      end do
      t = 0.0
      out = t
      end
""")
        loop = first_loop(u)
        assert not NestRecord(loop, u).live_after("t")

    def test_reexecution_covered_by_redef(self):
        """The FLO52 case: a scalar defined at the top of every outer
        iteration is not live across iterations."""
        u = unit_of("""
      subroutine s(a, n, m)
      integer n, m
      real a(n, m)
      real w
      integer t, j
      do t = 1, n
         do j = 1, m
            w = a(j, t) * 2.0
            a(j, t) = w
         end do
      end do
      end
""")
        outer = first_loop(u)
        inner = first_loop(outer)
        assert not NestRecord(inner, u).live_after("w")

    def test_reexecution_upward_exposed(self):
        """A scalar read before redefinition in the next iteration stays
        live (accumulator across outer iterations)."""
        u = unit_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      real acc
      integer t, j
      acc = 0.0
      do t = 1, n
         do j = 1, n
            a(j) = a(j) + acc
         end do
         acc = acc + 1.0
      end do
      end
""")
        outer = first_loop(u)
        inner = first_loop(outer)
        assert NestRecord(inner, u).live_after("acc")


class TestLiveAfterLoop:
    def test_escaping_always_live(self):
        u = unit_of("""
      subroutine s(t, a, n)
      integer n
      real t, a(n)
      integer i
      do i = 1, n
         t = a(i)
         a(i) = t
      end do
      end
""")
        loop = first_loop(u)
        # a dummy argument escapes to the caller; without the unit's
        # table nothing says so, and no later statement reads it
        assert NestRecord(loop, u, build_symbol_table(u)).live_after("t")
        assert not NestRecord(loop, u).live_after("t")


class TestScalarUsageEdges:
    def test_logical_if_conditional_def(self):
        u = unit_of("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      real t
      integer i
      do i = 1, n
         if (a(i) .gt. 0.0) t = a(i)
         b(i) = t
      end do
      end
""")
        loop = first_loop(u)
        usage = RegionUsage(loop.body).of("t")
        assert usage.upward_exposed  # conditional def does not dominate

    def test_goto_poisons(self):
        u = unit_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      real t
      integer i
      do i = 1, n
         goto 10
   10    t = a(i)
         a(i) = t
      end do
      end
""")
        loop = first_loop(u)
        usage = RegionUsage(loop.body).of("t")
        assert usage.saw_goto and usage.conservative

    def test_do_var_counts_as_definition(self):
        u = unit_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      integer i, j
      do i = 1, n
         do j = 1, 3
            a(i) = a(i) + j
         end do
      end do
      end
""")
        loop = first_loop(u)
        usage = RegionUsage(loop.body).of("j")
        assert not usage.upward_exposed
        assert usage.written_anywhere
