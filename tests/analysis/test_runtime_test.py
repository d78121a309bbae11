"""Run-time dependence test synthesis (paper §4.1.5)."""

from repro.analysis.runtime_test import synthesize_runtime_test
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table


class TestRuntimeTest:
    def _loop(self, src):
        sf = parse_program(src)
        u = sf.units[0]
        build_symbol_table(u)
        return next(s for s in u.body if isinstance(s, F.DoLoop))

    def test_linearized_pattern_recognized(self):
        loop = self._loop("""
      subroutine s(a, n, m)
      integer n, m
      real a(*)
      do j = 1, n
         do i = 1, m
            a(i + m * (j - 1)) = 0.0
         end do
      end do
      end
""")
        t = synthesize_runtime_test(loop)
        assert t is not None
        assert t.array == "a"
        # predicate mentions the stride symbol m
        names = {n.name for n in t.predicate.walk() if isinstance(n, F.Var)}
        assert "m" in names

    def test_constant_stride_not_needed(self):
        loop = self._loop("""
      subroutine s(a, n)
      integer n
      real a(*)
      do j = 1, n
         do i = 1, 8
            a(i + 8 * (j - 1)) = 0.0
         end do
      end do
      end
""")
        # constant strides are decidable at compile time: no runtime test
        assert synthesize_runtime_test(loop) is None

    def test_unrelated_loop_none(self):
        loop = self._loop("""
      subroutine s(a, n)
      integer n
      real a(n)
      do i = 1, n
         a(i) = 0.0
      end do
      end
""")
        assert synthesize_runtime_test(loop) is None
