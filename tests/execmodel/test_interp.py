"""Functional interpreter tests."""

import numpy as np
import pytest

from repro.cedar.nodes import ParallelDo
from repro.errors import InterpreterError
from repro.execmodel.interp import Interpreter
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program


def run(src, name, *args, processors=4, inputs=None):
    it = Interpreter(parse_program(src), processors=processors,
                     inputs=inputs)
    return it.call(name, *args), it


class TestBasics:
    def test_scalar_arithmetic(self):
        res, _ = run("""
      subroutine s(x, y)
      real x, y
      y = x * 2.0 + 1.0
      end
""", "s", 3.0, 0.0)
        assert res["y"] == 7.0

    def test_integer_truncating_division(self):
        res, _ = run("""
      subroutine s(i, j)
      integer i, j
      j = i / 2
      end
""", "s", 7, 0)
        assert res["j"] == 3

    def test_array_in_place_modification(self):
        a = np.zeros(5)
        run("""
      subroutine s(n, a)
      integer n
      real a(n)
      integer i
      do i = 1, n
         a(i) = i * 1.0
      end do
      end
""", "s", 5, a)
        assert np.allclose(a, [1, 2, 3, 4, 5])

    def test_2d_arrays_fortran_order(self):
        a = np.zeros((3, 4), order="F")
        run("""
      subroutine s(n, m, a)
      integer n, m
      real a(n, m)
      integer i, j
      do j = 1, m
         do i = 1, n
            a(i, j) = i * 10.0 + j
         end do
      end do
      end
""", "s", 3, 4, a)
        assert a[0, 0] == 11.0 and a[2, 3] == 34.0

    def test_negative_step_loop(self):
        a = np.zeros(4)
        run("""
      subroutine s(n, a)
      integer n
      real a(n)
      integer i, k
      k = 0
      do i = n, 1, -1
         k = k + 1
         a(i) = k
      end do
      end
""", "s", 4, a)
        assert np.allclose(a, [4, 3, 2, 1])

    def test_goto_loop(self):
        res, _ = run("""
      subroutine s(x)
      real x
   10 continue
      x = x - 1.0
      if (x .gt. 0.5) goto 10
      end
""", "s", 5.2)
        assert res["x"] == pytest.approx(0.2, abs=1e-6)

    def test_computed_goto(self):
        res, _ = run("""
      subroutine s(k, out)
      integer k, out
      goto (10, 20, 30), k
      out = -1
      return
   10 out = 100
      return
   20 out = 200
      return
   30 out = 300
      end
""", "s", 2, 0)
        assert res["out"] == 200

    def test_if_elseif_else(self):
        for x, want in ((2.0, 1.0), (-2.0, -1.0), (0.0, 0.0)):
            res, _ = run("""
      subroutine s(x, sgn)
      real x, sgn
      if (x .gt. 0.0) then
         sgn = 1.0
      else if (x .lt. 0.0) then
         sgn = -1.0
      else
         sgn = 0.0
      end if
      end
""", "s", x, 9.0)
            assert res["sgn"] == want

    def test_stop_halts(self):
        res, _ = run("""
      subroutine s(x)
      real x
      x = 1.0
      stop
      x = 2.0
      end
""", "s", 0.0)
        assert res["x"] == 1.0

    def test_print_collects_output(self):
        _, it = run("""
      subroutine s(x)
      real x
      print *, x, x * 2.0
      end
""", "s", 3.0)
        assert it.outputs == [[3.0, 6.0]]

    def test_read_consumes_inputs(self):
        res, _ = run("""
      subroutine s(x)
      real x
      read *, x
      end
""", "s", 0.0, inputs=[42.0])
        assert res["x"] == 42.0

    def test_intrinsics(self):
        res, _ = run("""
      subroutine s(x, y)
      real x, y
      y = sqrt(abs(x)) + max(1.0, 2.0) + mod(7.0, 4.0)
      end
""", "s", -16.0, 0.0)
        assert res["y"] == pytest.approx(4.0 + 2.0 + 3.0)

    def test_out_of_bounds_raises(self):
        with pytest.raises(InterpreterError):
            run("""
      subroutine s(n, a)
      integer n
      real a(n)
      a(n + 1) = 0.0
      end
""", "s", 3, np.zeros(3))


class TestProceduresAndCommon:
    def test_subroutine_call_by_reference(self):
        res, _ = run("""
      subroutine callee(v)
      real v
      v = v + 10.0
      end
      subroutine s(x)
      real x
      call callee(x)
      end
""", "s", 1.0)
        assert res["x"] == 11.0

    def test_function_call(self):
        res, _ = run("""
      real function twice(v)
      real v
      twice = v * 2.0
      end
      subroutine s(x, y)
      real x, y
      y = twice(x) + 1.0
      end
""", "s", 4.0, 0.0)
        assert res["y"] == 9.0

    def test_array_element_actual_copy_back(self):
        a = np.zeros(3)
        run("""
      subroutine bump(v)
      real v
      v = v + 5.0
      end
      subroutine s(a)
      real a(3)
      call bump(a(2))
      end
""", "s", a)
        assert np.allclose(a, [0, 5, 0])

    def test_common_block_shared(self):
        res, _ = run("""
      subroutine setter
      common /blk/ c
      c = 99.0
      end
      subroutine s(out)
      real out
      common /blk/ c
      call setter
      out = c
      end
""", "s", 0.0)
        assert res["out"] == 99.0

    def test_parameter_constants(self):
        res, _ = run("""
      subroutine s(out)
      real out
      parameter (k = 5)
      real w(k)
      w(k) = 3.0
      out = w(k) + k
      end
""", "s", 0.0)
        assert res["out"] == 8.0

    def test_sequence_association_reshape(self):
        """1-D actual viewed as 2-D dummy (storage association)."""
        a = np.arange(1.0, 13.0)
        res, _ = run("""
      subroutine twod(m, n, b, out)
      integer m, n
      real b(m, n), out
      out = b(2, 3)
      end
      subroutine s(a, out)
      real a(12), out
      call twod(3, 4, a, out)
      end
""", "s", a, 0.0)
        assert res["out"] == 8.0  # column-major: b(2,3) = a(2 + 3*(3-1))


#: an element actual to an array dummy (F77 sequence association): the
#: dummy is the caller's storage from that element on, column-major
ELEMENT_ACTUALS = """
      subroutine drive(a, s, n)
      integer n, i
      real a(n, n), s(n)
      do 10 i = 1, n
         call colsum(a(1, i), s(i), n)
   10 continue
      end

      subroutine colsum(x, t, n)
      integer n, j
      real x(n), t
      t = 0.0
      do 20 j = 1, n
         t = t + x(j)
   20 continue
      end

      subroutine twice(a, n, i, j, m)
      integer n, i, j, m
      real a(n, n)
      call dbl(a(i, j), m)
      end

      subroutine dbl(x, m)
      integer m, k
      real x(*)
      do 30 k = 1, m
         x(k) = 2.0 * x(k)
   30 continue
      end
"""


@pytest.mark.parametrize("recorded", [False, True],
                         ids=["unrecorded", "recorded"])
@pytest.mark.parametrize("engine", ["tree", "compiled"])
class TestElementActualToArrayDummy:
    def _interp(self, engine, recorded):
        from repro.execmodel.shadow import ShadowRecorder

        return Interpreter(parse_program(ELEMENT_ACTUALS), engine=engine,
                           shadow=ShadowRecorder() if recorded else None)

    def test_column_sums(self, engine, recorded):
        a = np.arange(16.0).reshape(4, 4, order="F")
        s = np.zeros(4)
        self._interp(engine, recorded).call("drive", a, s, 4)
        assert s.tolist() == [6.0, 22.0, 38.0, 54.0]

    @pytest.mark.parametrize("order", ["F", "C"])
    def test_callee_stores_reach_the_caller(self, engine, recorded, order):
        """``x(k)`` of the callee is ``a(k, 2)``, whichever way the
        caller's data is laid out."""
        a = np.arange(16.0).reshape(4, 4, order=order)
        want = a.copy()
        want[:, 1] *= 2
        self._interp(engine, recorded).call("twice", a, 4, 1, 2, 4)
        assert np.array_equal(a, want)

    def test_a_sequence_runs_on_into_the_next_column(self, engine,
                                                     recorded):
        a = np.arange(16.0).reshape(4, 4, order="F")
        want = a.copy()
        want[2:, 0] *= 2
        want[:2, 1] *= 2
        self._interp(engine, recorded).call("twice", a, 4, 3, 1, 4)
        assert np.array_equal(a, want)


class TestCedarExecution:
    def test_xdoall_with_locals(self):
        src = """
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      real t
      integer i
      do i = 1, n
         t = b(i) * 2.0
         a(i) = t
      end do
      end
"""
        from repro.api import restructure

        sf, _ = restructure(parse_program(src))
        a, b = np.zeros(20), np.arange(1.0, 21.0)
        Interpreter(sf, processors=8).call("s", 20, a, b)
        assert np.allclose(a, b * 2.0)

    def test_where_statement(self):
        from repro.cedar.nodes import WhereStmt

        sf = parse_program("""
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      end
""")
        unit = sf.units[0]
        unit.body = [WhereStmt(
            mask=F.BinOp(".gt.", F.ArrayRef("b", [F.RangeExpr(None, None)]),
                         F.RealLit(0.0)),
            body=[F.Assign(
                target=F.ArrayRef("a", [F.RangeExpr(None, None)]),
                value=F.ArrayRef("b", [F.RangeExpr(None, None)]))],
            elsewhere=[F.Assign(
                target=F.ArrayRef("a", [F.RangeExpr(None, None)]),
                value=F.RealLit(-1.0))],
        )]
        a = np.zeros(4)
        b = np.array([1.0, -2.0, 3.0, -4.0])
        Interpreter(sf).call("s", 4, a, b)
        assert np.allclose(a, [1.0, -1.0, 3.0, -1.0])

    def test_parallel_do_worker_scopes(self):
        """Each simulated processor gets its own loop-local copy."""
        sf = parse_program("""
      subroutine s(n, a)
      integer n
      real a(n)
      end
""")
        unit = sf.units[0]
        body = [
            F.Assign(target=F.Var("t"),
                     value=F.BinOp("*", F.Var("i"), F.IntLit(2))),
            F.Assign(target=F.ArrayRef("a", [F.Var("i")]), value=F.Var("t")),
        ]
        unit.body = [ParallelDo(
            level="X", order="doall", var="i",
            start=F.IntLit(1), end=F.Var("n"),
            locals_=[F.TypeDecl(type=F.TypeSpec("real"),
                                entities=[F.EntityDecl("t")])],
            body=body,
        )]
        a = np.zeros(16)
        Interpreter(sf, processors=4).call("s", 16, a)
        assert np.allclose(a, np.arange(1, 17) * 2.0)

    def test_library_dotproduct(self):
        sf = parse_program("""
      subroutine s(n, a, b, out)
      integer n
      real a(n), b(n), out
      end
""")
        unit = sf.units[0]
        unit.body = [F.Assign(
            target=F.Var("out"),
            value=F.FuncCall("ces_dotproduct", [
                F.ArrayRef("a", [F.RangeExpr(F.IntLit(1), F.Var("n"))]),
                F.ArrayRef("b", [F.RangeExpr(F.IntLit(1), F.Var("n"))]),
            ]))]
        a = np.arange(1.0, 5.0)
        b = np.ones(4) * 2.0
        res = Interpreter(sf).call("s", 4, a, b, 0.0)
        assert res["out"] == pytest.approx(20.0)

    def test_library_linrec(self):
        sf = parse_program("""
      subroutine s(n, x, b, c)
      integer n
      real x(n), b(n), c(n)
      end
""")
        unit = sf.units[0]
        unit.body = [F.CallStmt(name="ces_linrec", args=[
            F.ArrayRef("x", [F.RangeExpr(F.IntLit(2), F.Var("n"))]),
            F.ArrayRef("b", [F.RangeExpr(F.IntLit(2), F.Var("n"))]),
            F.ArrayRef("c", [F.RangeExpr(F.IntLit(2), F.Var("n"))]),
        ])]
        n = 6
        x = np.zeros(n)
        x[0] = 1.0
        b = np.full(n, 0.5)
        c = np.arange(1.0, n + 1.0)
        Interpreter(sf).call("s", n, x, b, c)
        expect = x.copy()
        for i in range(1, n):
            expect[i] = expect[i - 1] * b[i] + c[i]
        assert np.allclose(x, expect)
