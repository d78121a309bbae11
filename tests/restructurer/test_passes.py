"""Unit tests for the individual restructuring passes."""

import pytest

from repro.analysis.induction import find_induction_variables
from repro.analysis.reductions import find_reductions
from repro.cedar.nodes import ParallelDo, WhereStmt
from repro.cedar.unparse import unparse_cedar
from repro.errors import TransformError
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer.fusion import fuse_adjacent_in, try_fuse
from repro.restructurer.inline import inline_calls
from repro.restructurer.names import NamePool
from repro.restructurer.recurrence import replace_with_library
from repro.restructurer.reduction_xform import transform_reductions
from repro.restructurer.stripmine import stripmine_vectorize, vectorize_inner


def get_loop(src, n=0):
    sf = parse_program(src)
    u = sf.units[0]
    build_symbol_table(u)
    loops = [s for s in u.body if isinstance(s, F.DoLoop)]
    return loops[n], u, sf


class TestStripmine:
    def test_basic_form(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         a(i) = b(i) * 2.0
      end do
      end
""")
        pdo = stripmine_vectorize(loop, NamePool(unit), strip=32)
        assert isinstance(pdo, ParallelDo)
        assert pdo.level == "X" and pdo.order == "doall"
        assert pdo.step.value == 32
        text = unparse_cedar(pdo)
        assert "min(32" in text
        assert "a(i:upper)" in text

    def test_offset_subscript(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         a(i) = b(i + 3)
      end do
      end
""")
        pdo = stripmine_vectorize(loop, NamePool(unit))
        text = unparse_cedar(pdo)
        assert "b(i + 3:upper + 3)" in text.replace("  ", " ")

    def test_invariant_subscript_stays(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n, k)
      integer n, k
      real a(n), b(n)
      do i = 1, n
         a(i) = b(k)
      end do
      end
""")
        text = unparse_cedar(stripmine_vectorize(loop, NamePool(unit)))
        assert "b(k)" in text

    def test_if_becomes_where(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         if (b(i) .gt. 0.0) a(i) = sqrt(b(i))
      end do
      end
""")
        pdo = stripmine_vectorize(loop, NamePool(unit))
        wheres = [s for s in pdo.body if isinstance(s, WhereStmt)]
        assert len(wheres) == 1
        text = unparse_cedar(pdo)
        assert "where (" in text and "end where" in text

    def test_nonunit_coefficient_rejected(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n)
      integer n
      real a(2 * n), b(n)
      do i = 1, n
         a(2 * i) = b(i)
      end do
      end
""")
        with pytest.raises(TransformError):
            stripmine_vectorize(loop, NamePool(unit))

    def test_inner_loop_rejected(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, n, m)
      integer n, m
      real a(n, m)
      do i = 1, n
         do j = 1, m
            a(i, j) = 0.0
         end do
      end do
      end
""")
        with pytest.raises(TransformError):
            stripmine_vectorize(loop, NamePool(unit))

    def test_vectorize_inner_full_range(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         a(i) = b(i)
      end do
      end
""")
        stmts = vectorize_inner(loop)
        assert len(stmts) == 1
        text = unparse_cedar(stmts[0])
        assert "a(1:n)" in text and "b(1:n)" in text


class TestReductionTransform:
    def test_scalar_sum_pieces(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, n, t)
      integer n
      real a(n), t
      do i = 1, n
         t = t + a(i)
      end do
      end
""")
        reds = find_reductions(loop)
        out = transform_reductions(loop, reds, NamePool(unit),
                                   build_symbol_table(unit))
        assert out.transformed == ["t"]
        assert len(out.preamble) == 1
        assert len(out.postamble) == 3  # lock, combine, unlock
        body_text = unparse_cedar(loop.body[0])
        assert "t_p" in body_text  # accumulation redirected

    def test_min_reduction_neutral(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, n, lo)
      integer n
      real a(n), lo
      do i = 1, n
         lo = min(lo, a(i))
      end do
      end
""")
        reds = find_reductions(loop)
        out = transform_reductions(loop, reds, NamePool(unit),
                                   build_symbol_table(unit))
        pre = unparse_cedar(out.preamble[0])
        assert "e+30" in pre  # +huge neutral for MIN

    def test_array_reduction_vector_combine(self):
        loop, unit, _ = get_loop("""
      subroutine s(a, b, n, m)
      integer n, m
      real a(100), b(n, 100)
      do i = 1, n
         do j = 1, 100
            a(j) = a(j) + b(i, j)
         end do
      end do
      end
""")
        reds = find_reductions(loop)
        assert reds and reds[0].kind == "array"
        out = transform_reductions(loop, reds, NamePool(unit),
                                   build_symbol_table(unit))
        post = "".join(unparse_cedar(s) for s in out.postamble)
        assert "a(1:100)" in post


class TestLibraryReplacement:
    def test_dotproduct(self):
        loop, _, _ = get_loop("""
      subroutine s(a, b, n, t)
      integer n
      real a(n), b(n), t
      do i = 1, n
         t = t + a(i) * b(i)
      end do
      end
""")
        rep = replace_with_library(loop)
        assert rep is not None
        assert "ces_dotproduct" in unparse_cedar(rep[0])

    def test_sum(self):
        loop, _, _ = get_loop("""
      subroutine s(a, n, t)
      integer n
      real a(n), t
      do i = 1, n
         t = t + a(i)
      end do
      end
""")
        rep = replace_with_library(loop)
        assert rep is not None and "ces_sum" in unparse_cedar(rep[0])

    def test_linear_recurrence(self):
        loop, _, _ = get_loop("""
      subroutine s(x, b, c, n)
      integer n
      real x(n), b(n), c(n)
      do i = 2, n
         x(i) = x(i-1) * b(i) + c(i)
      end do
      end
""")
        rep = replace_with_library(loop)
        assert rep is not None and "ces_linrec" in unparse_cedar(rep[0])

    def test_non_idiom_returns_none(self):
        loop, _, _ = get_loop("""
      subroutine s(a, n, t)
      integer n
      real a(n), t
      do i = 1, n
         t = t + a(i)
         a(i) = t
      end do
      end
""")
        assert replace_with_library(loop) is None


class TestFusion:
    def test_fuse_same_header(self):
        src = """
      subroutine s(a, b, c, n)
      integer n
      real a(n), b(n), c(n)
      do i = 1, n
         a(i) = b(i) + 1.0
      end do
      do j = 1, n
         c(j) = a(j) * 2.0
      end do
      end
"""
        sf = parse_program(src)
        u = sf.units[0]
        build_symbol_table(u)
        count = fuse_adjacent_in(u.body)
        assert count == 1
        loops = [s for s in u.body if isinstance(s, F.DoLoop)]
        assert len(loops) == 1
        assert len(loops[0].body) == 2

    def test_fusion_preventing_dependence(self):
        src = """
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         a(i) = b(i) + 1.0
      end do
      do j = 1, n
         b(j) = a(j) * 2.0
      end do
      end
"""
        sf = parse_program(src)
        u = sf.units[0]
        build_symbol_table(u)
        loops = [s for s in u.body if isinstance(s, F.DoLoop)]
        # fusing would make iteration i of loop2 write b(i) which iteration
        # i of loop1 already read — loop-independent a→b flow on a is fine,
        # anti on b is '=': actually legal; verify via the checker
        legal = try_fuse(loops[0], loops[1]) is not None
        count = fuse_adjacent_in(u.body)
        assert (count == 1) == legal

    def test_backward_dep_prevents_fusion(self):
        src = """
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         a(i) = b(i) + 1.0
      end do
      do j = 1, n
         b(j) = a(j + 1) * 2.0
      end do
      end
"""
        sf = parse_program(src)
        u = sf.units[0]
        build_symbol_table(u)
        loops = [s for s in u.body if isinstance(s, F.DoLoop)]
        # fused: iteration i reads a(i+1), which iteration i+1 writes →
        # backward carried dependence, illegal
        assert try_fuse(loops[0], loops[1]) is None

    def test_different_headers_not_fused(self):
        src = """
      subroutine s(a, b, n, m)
      integer n, m
      real a(n), b(n)
      do i = 1, n
         a(i) = 1.0
      end do
      do j = 1, m
         b(j) = 2.0
      end do
      end
"""
        sf = parse_program(src)
        u = sf.units[0]
        build_symbol_table(u)
        assert fuse_adjacent_in(u.body) == 0

    def test_replication_between_loops(self):
        src = """
      subroutine s(a, b, n, scale)
      integer n
      real a(n), b(n), scale, w
      do i = 1, n
         a(i) = a(i) + 1.0
      end do
      w = scale * 2.0
      do j = 1, n
         b(j) = a(j) * w
      end do
      end
"""
        sf = parse_program(src)
        u = sf.units[0]
        build_symbol_table(u)
        count = fuse_adjacent_in(u.body)
        assert count == 1
        loops = [s for s in u.body if isinstance(s, F.DoLoop)]
        assert len(loops) == 1
        # w computation replicated into the loop body
        body_text = "".join(unparse_cedar(s) for s in loops[0].body)
        assert "scale * 2.0" in body_text


class TestInline:
    def test_simple_expansion(self):
        src = """
      subroutine caller(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         call scale2(a(i), b(i))
      end do
      end
      subroutine scale2(x, y)
      real x, y
      y = x * 2.0
      end
"""
        sf = parse_program(src)
        unit = sf.units[0]
        res = inline_calls(unit, sf)
        assert res.expanded == 1
        assert not any(isinstance(s, F.CallStmt)
                       for s in F.stmts_walk(unit.body))

    def test_whole_array_argument(self):
        src = """
      subroutine caller(a, n)
      integer n
      real a(n)
      call initz(a, n)
      end
      subroutine initz(x, m)
      integer m
      real x(m)
      do i = 1, m
         x(i) = 0.0
      end do
      end
"""
        sf = parse_program(src)
        unit = sf.units[0]
        res = inline_calls(unit, sf)
        assert res.expanded == 1
        loops = [s for s in unit.body if isinstance(s, F.DoLoop)]
        assert loops
        text = unparse_cedar(loops[0])
        assert "a(" in text  # dummy renamed to actual

    def test_goto_callee_declined(self):
        src = """
      subroutine caller(x)
      real x
      call messy(x)
      end
      subroutine messy(y)
      real y
   10 continue
      y = y - 1.0
      if (y .gt. 0.0) goto 10
      end
"""
        sf = parse_program(src)
        res = inline_calls(sf.units[0], sf)
        assert res.expanded == 0
        assert res.failed and res.failed[0][1] == "callee contains GOTO"

    def test_copy_back_for_element_actual(self):
        src = """
      subroutine caller(a)
      real a(10)
      call bump(a(3))
      end
      subroutine bump(x)
      real x
      x = x + 1.0
      end
"""
        sf = parse_program(src)
        unit = sf.units[0]
        res = inline_calls(unit, sf)
        assert res.expanded == 1
        # copy-in, compute, copy-out
        assigns = [s for s in unit.body if isinstance(s, F.Assign)]
        assert len(assigns) == 3
        last = unparse_cedar(assigns[-1])
        assert "a(3)" in last
