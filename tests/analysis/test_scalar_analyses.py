"""Tests for induction variables, reductions, privatization, dataflow."""

import pytest

from repro.analysis.dataflow import Assigned, RegionUsage
from repro.analysis.induction import find_induction_variables
from repro.analysis.privatization import (
    analyze_array,
    analyze_scalar,
    find_privatizable,
)
from repro.analysis.reductions import find_reductions
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table


def first_loop(src):
    sf = parse_program(src)
    u = sf.units[0]
    build_symbol_table(u)
    loop = next(s for s in u.body if isinstance(s, F.DoLoop))
    return loop, u, sf


class TestScalarUsage:
    def test_def_before_use(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
         t = a(i)
         b(i) = t * 2.0
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert not u.upward_exposed
        assert u.assigned == Assigned.YES

    def test_use_before_def(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      do i = 1, n
         a(i) = t
         t = a(i)
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert u.upward_exposed

    def test_if_both_arms_define(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
         if (a(i) .gt. 0.0) then
            t = 1.0
         else
            t = -1.0
         end if
         b(i) = t
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert not u.upward_exposed

    def test_if_one_arm_defines(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
         if (a(i) .gt. 0.0) then
            t = 1.0
         end if
         b(i) = t
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert u.upward_exposed

    def test_def_in_constant_inner_loop_counts(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
         do j = 1, 4
            t = a(i) + j
         end do
         b(i) = t
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert not u.upward_exposed

    def test_def_in_symbolic_inner_loop_degrades(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, n, m)
      real a(n), b(n)
      do i = 1, n
         do j = 1, m
            t = a(i) + j
         end do
         b(i) = t
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert u.upward_exposed

    def test_call_is_conservative(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      do i = 1, n
         call f(t)
         a(i) = t
      end do
      end
""")
        u = RegionUsage(loop.body).of("t")
        assert u.conservative


class TestInduction:
    def test_basic_iv(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      k = 0
      do i = 1, n
         k = k + 2
         a(k) = 0.0
      end do
      end
""")
        ivs = find_induction_variables(loop)
        assert len(ivs) == 1
        iv = ivs[0]
        assert iv.name == "k" and iv.kind == "basic"
        assert iv.strictly_monotonic
        assert iv.closed_form is not None

    def test_geometric_giv(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      k = 1
      do i = 1, n
         k = k * 2
         a(k) = 0.0
      end do
      end
""")
        ivs = find_induction_variables(loop)
        assert len(ivs) == 1
        assert ivs[0].kind == "geometric"

    def test_triangular_polynomial_giv(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n * n)
      k = 0
      do i = 1, n
         do j = 1, i
            k = k + 1
            a(k) = 0.0
         end do
      end do
      end
""")
        ivs = find_induction_variables(loop)
        assert len(ivs) == 1
        iv = ivs[0]
        assert iv.kind == "polynomial"
        assert iv.strictly_monotonic
        assert iv.closed_form is not None
        # closed form should mention both indices
        names = {n.name for n in iv.closed_form.walk() if isinstance(n, F.Var)}
        assert {"i", "j"} <= names

    def test_conditional_update_rejected(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      do i = 1, n
         if (a(i) .gt. 0.0) k = k + 1
         a(i) = k
      end do
      end
""")
        assert find_induction_variables(loop) == []

    def test_non_invariant_step_rejected(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      do i = 1, n
         k = k + i
         a(i) = k
      end do
      end
""")
        assert find_induction_variables(loop) == []

    def test_multiple_writes_rejected(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n)
      real a(n)
      do i = 1, n
         k = k + 1
         k = k * 2
         a(i) = k
      end do
      end
""")
        assert find_induction_variables(loop) == []


class TestReductions:
    def test_scalar_sum(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, total)
      real a(n), total
      do i = 1, n
         total = total + a(i)
      end do
      end
""")
        reds = find_reductions(loop)
        assert len(reds) == 1
        assert reds[0].var == "total" and reds[0].op == "+"
        assert reds[0].kind == "scalar"

    def test_subtraction_folds_to_sum(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, total)
      real a(n), total
      do i = 1, n
         total = total - a(i)
      end do
      end
""")
        reds = find_reductions(loop)
        assert reds and reds[0].op == "+"

    def test_product_reduction(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, p)
      real a(n), p
      do i = 1, n
         p = p * a(i)
      end do
      end
""")
        reds = find_reductions(loop)
        assert reds and reds[0].op == "*"

    def test_min_intrinsic(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, lo)
      real a(n), lo
      do i = 1, n
         lo = min(lo, a(i))
      end do
      end
""")
        reds = find_reductions(loop)
        assert reds and reds[0].op == "min"

    def test_max_via_if(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, hi)
      real a(n), hi
      do i = 1, n
         if (a(i) .gt. hi) hi = a(i)
      end do
      end
""")
        reds = find_reductions(loop)
        assert reds and reds[0].op == "max"

    def test_multiple_accumulations_merged(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, c, n, total)
      real a(n), b(n), c(n), total
      do i = 1, n
         total = total + a(i)
         total = total + b(i)
         total = total + c(i)
      end do
      end
""")
        reds = find_reductions(loop)
        assert len(reds) == 1 and len(reds[0].stmts) == 3

    def test_array_element_accumulator(self):
        loop, _, _ = first_loop("""
      subroutine s(a, b, n, m)
      real a(m), b(n, m)
      do i = 1, n
         do j = 1, m
            a(j) = a(j) + b(i, j)
            a(j) = a(j) + 2.0 * b(i, j)
         end do
      end do
      end
""")
        reds = find_reductions(loop)
        assert len(reds) == 1
        assert reds[0].kind == "array" and reds[0].var == "a"
        assert len(reds[0].stmts) == 2

    def test_mixed_operators_rejected(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, t)
      real a(n), t
      do i = 1, n
         t = t + a(i)
         t = t * a(i)
      end do
      end
""")
        assert find_reductions(loop) == []

    def test_other_use_disqualifies(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, t)
      real a(n), t
      do i = 1, n
         t = t + a(i)
         a(i) = t
      end do
      end
""")
        assert find_reductions(loop) == []

    def test_self_dependent_contribution_rejected(self):
        loop, _, _ = first_loop("""
      subroutine s(a, n, t)
      real a(n), t
      do i = 1, n
         t = t + t * a(i)
      end do
      end
""")
        assert find_reductions(loop) == []


class TestPrivatization:
    def test_temporary_scalar(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, b, n)
      real a(n), b(n)
      do i = 1, n
         t = b(i)
         a(i) = sqrt(t)
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_scalar(loop, "t", unit, st)
        assert res.privatizable
        assert not res.needs_last_value

    def test_last_value_needed_when_read_after(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, b, n, out)
      real a(n), b(n), out
      do i = 1, n
         t = b(i)
         a(i) = sqrt(t)
      end do
      out = t
      end
""")
        st = build_symbol_table(unit)
        res = analyze_scalar(loop, "t", unit, st)
        assert res.privatizable
        assert res.needs_last_value

    def test_dummy_scalar_escapes(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, n, t)
      real a(n), t
      do i = 1, n
         t = a(i)
         a(i) = t + 1.0
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_scalar(loop, "t", unit, st)
        assert res.privatizable
        assert res.needs_last_value

    def test_accumulator_not_privatizable(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, n, t)
      real a(n), t
      do i = 1, n
         t = t + a(i)
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_scalar(loop, "t", unit, st)
        assert not res.privatizable

    def test_work_array_privatizable(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, n, m)
      real a(n, m), w(100)
      do i = 1, n
         do j = 1, m
            w(j) = a(i, j) * 2.0
         end do
         do j = 1, m
            a(i, j) = w(j) + 1.0
         end do
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_array(loop, "w", unit, st)
        assert res.privatizable

    def test_array_use_not_covered(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, n, m)
      real a(n, m), w(100)
      do i = 1, n
         do j = 1, m
            w(j) = a(i, j)
         end do
         do j = 1, m
            a(i, j) = w(j + 1)
         end do
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_array(loop, "w", unit, st)
        assert not res.privatizable

    def test_array_conditional_write_not_covering(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, n, m)
      real a(n, m), w(100)
      do i = 1, n
         do j = 1, m
            if (a(i, j) .gt. 0.0) then
               w(j) = a(i, j)
            end if
         end do
         do j = 1, m
            a(i, j) = w(j)
         end do
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_array(loop, "w", unit, st)
        assert not res.privatizable

    def test_array_smaller_read_range_covered(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, n, m)
      real a(n, m), w(100)
      do i = 1, n
         do j = 1, m
            w(j) = a(i, j)
         end do
         do j = 2, m
            a(i, j) = w(j)
         end do
      end do
      end
""")
        st = build_symbol_table(unit)
        res = analyze_array(loop, "w", unit, st)
        # write range [1,m] encloses read range [2,m]... start compare:
        # 1 <= 2 ok, ends equal → privatizable
        assert res.privatizable

    def test_find_privatizable_collects(self):
        loop, unit, _ = first_loop("""
      subroutine s(a, b, n, m)
      real a(n, m), b(n), w(100)
      do i = 1, n
         t = b(i)
         do j = 1, m
            w(j) = a(i, j) + t
         end do
         do j = 1, m
            a(i, j) = w(j)
         end do
      end do
      end
""")
        st = build_symbol_table(unit)
        results = find_privatizable(loop, unit, st)
        names = {r.name for r in results}
        assert {"t", "w", "j"} <= names
