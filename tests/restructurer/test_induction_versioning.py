"""Induction substitution and two-version loop tests (via the interpreter,
so the transformed code is checked for real)."""

import numpy as np
import pytest

from repro.analysis.induction import find_induction_variables
from repro.api import restructure
from repro.execmodel.interp import Interpreter
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer.induction_sub import substitute_inductions
from repro.restructurer.names import NamePool
from repro.restructurer.options import RestructurerOptions


def loop_of(sf):
    u = sf.units[0]
    build_symbol_table(u)
    return next(s for s in u.body if isinstance(s, F.DoLoop)), u


class TestInductionSubstitution:
    BASIC = """
      subroutine s(n, a, k)
      integer n, k
      real a(2 * n)
      integer i
      do i = 1, n
         k = k + 2
         a(k) = real(i)
      end do
      end
"""

    def test_basic_iv_substituted_and_final_value(self):
        sf = parse_program(self.BASIC)
        loop, unit = loop_of(sf)
        ivs = find_induction_variables(loop)
        out = substitute_inductions(loop, ivs, NamePool(unit))
        assert out.substituted == ["k"]
        # the update statement is gone
        assert not any(
            isinstance(s, F.Assign) and isinstance(s.target, F.Var)
            and s.target.name == "k" for s in loop.body)
        # splice before/after and run: results must match the original
        unit.body = out.before_loop + [loop] + out.after_loop
        n = 8
        a0 = np.zeros(2 * n)
        r0 = Interpreter(parse_program(self.BASIC)).call("s", n, a0, 0)
        a1 = np.zeros(2 * n)
        r1 = Interpreter(sf).call("s", n, a1, 0)
        assert np.allclose(a0, a1)
        assert r0["k"] == r1["k"] == 2 * n

    TRIANGULAR = """
      subroutine s(n, a, k)
      integer n, k
      real a(n * (n + 1) / 2)
      integer i, j
      k = 0
      do i = 1, n
         do j = 1, i
            k = k + 1
            a(k) = real(i) + 0.25 * real(j)
         end do
      end do
      end
"""

    def test_triangular_giv_full_pipeline(self):
        opts = RestructurerOptions.manual()
        cedar, rep = restructure(parse_program(self.TRIANGULAR), opts)
        n = 9
        tri = n * (n + 1) // 2
        a0 = np.zeros(tri)
        r0 = Interpreter(parse_program(self.TRIANGULAR)).call("s", n, a0, 0)
        a1 = np.zeros(tri)
        r1 = Interpreter(cedar, processors=4).call("s", n, a1, 0)
        assert np.allclose(a0, a1)
        assert r0["k"] == r1["k"] == tri
        # and the loop actually went parallel under the GIV treatment
        plans = [p.chosen for u in rep.units.values() for p in u.plans]
        assert any(c != "serial" for c in plans)

    def test_read_before_update_declined(self):
        src = """
      subroutine s(n, a, k)
      integer n, k
      real a(n)
      integer i
      do i = 1, n
         a(i) = real(k)
         k = k + 1
      end do
      end
"""
        sf = parse_program(src)
        loop, unit = loop_of(sf)
        ivs = find_induction_variables(loop)
        out = substitute_inductions(loop, ivs, NamePool(unit))
        assert "k" in out.skipped


class TestTwoVersionLoops:
    SRC = """
      subroutine s(ni, nj, lda, w, d)
      integer ni, nj, lda
      real w(*), d(ni)
      integer i, j
      do j = 1, nj
         do i = 1, ni
            w(i + lda * (j - 1)) = w(i + lda * (j - 1)) * 0.5 + d(i)
         end do
      end do
      end
"""

    def _both(self, lda, ni=6, nj=5):
        cedar, rep = restructure(parse_program(self.SRC),
                                 RestructurerOptions.manual())
        plans = [p.chosen for u in rep.units.values() for p in u.plans]
        assert "runtime-two-version" in plans
        rng = np.random.default_rng(1)
        w0 = rng.standard_normal(lda * nj + ni)
        d = rng.standard_normal(ni)
        w1 = w0.copy()
        Interpreter(parse_program(self.SRC)).call("s", ni, nj, lda,
                                                  w0, d.copy())
        Interpreter(cedar, processors=4).call("s", ni, nj, lda, w1, d.copy())
        return w0, w1

    def test_disjoint_rows_take_parallel_arm(self):
        w0, w1 = self._both(lda=6)  # lda == ni: rows exactly adjacent
        assert np.allclose(w0, w1)

    def test_aliasing_rows_take_serial_arm(self):
        """lda < ni makes rows overlap — the predicate must fail and the
        serial version must run, still giving identical results."""
        w0, w1 = self._both(lda=3)
        assert np.allclose(w0, w1)

    #: the run-time test can prove ``a``'s rows disjoint, but ``b`` carries
    #: a flow dependence from iteration j to j+1 that no test covers
    TWO_BLOCKERS = """
      subroutine tv(n, m, a, b)
      integer n, m, i, j
      real a(n*m), b(n+1), t
      do 20 j = 1, n
         t = b(j) + 1.0
         do 10 i = 1, m
            a(i + m*(j-1)) = t
   10    continue
         b(j+1) = t
   20 continue
      return
      end
"""

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    def test_a_test_on_one_array_leaves_other_blockers_serial(self, engine):
        """Two-versioned on ``a`` alone, the loop ran in parallel and
        returned ``b = [0 1 2 3 4 1 2 3 4]`` with 7 races."""
        from repro.execmodel.shadow import ShadowRecorder

        cedar, rep = restructure(parse_program(self.TWO_BLOCKERS),
                                 RestructurerOptions.manual())
        assert "runtime-two-version" not in [
            p.chosen for u in rep.units.values() for p in u.plans]
        shadow = ShadowRecorder()
        out = Interpreter(cedar, processors=4, shadow=shadow,
                          engine=engine).call("tv", 8, 4, np.zeros(32),
                                              np.zeros(9))
        assert out["b"].tolist() == [float(k) for k in range(9)]
        assert not shadow.conflicts
