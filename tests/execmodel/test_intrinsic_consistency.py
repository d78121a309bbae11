"""Property test: each intrinsic's scalar and NumPy forms must agree.

The interpreter evaluates an intrinsic two ways: element-at-a-time with
the entry's scalar callable (``Intrinsic.fn``), and vectorized over
array sections with its NumPy equivalent (``Intrinsic.np_fn``), both
from the one table ``repro.fortran.intrinsics.INTRINSICS``.  Any
disagreement means the same Fortran expression computes different
values depending on whether the restructurer vectorized the surrounding
loop — exactly the class of bug (``np.mod`` vs Fortran's truncating
MOD) translation validation exists to catch.  This test cross-checks
every entry that has an ``np_fn`` on random inputs, with directed cases
for the historically wrong ones.
"""

import math

import numpy as np
import pytest

from repro.execmodel.interp import Interpreter
from repro.fortran.intrinsics import INTRINSICS
from repro.fortran.parser import parse_program

RNG = np.random.default_rng(20260806)

#: per-intrinsic input domain: (low, high) for each argument draw
_DOMAINS = {
    "sqrt": (0.01, 100.0), "dsqrt": (0.01, 100.0),
    "log": (0.01, 100.0), "alog": (0.01, 100.0), "dlog": (0.01, 100.0),
    "log10": (0.01, 100.0), "alog10": (0.01, 100.0),
    "asin": (-1.0, 1.0), "acos": (-1.0, 1.0),
    "exp": (-5.0, 5.0), "dexp": (-5.0, 5.0),
    "sinh": (-5.0, 5.0), "cosh": (-5.0, 5.0), "tanh": (-5.0, 5.0),
}
_DEFAULT_DOMAIN = (-50.0, 50.0)

SHARED = sorted(n for n, info in INTRINSICS.items()
                if info.np_fn is not None)

#: the intrinsics whose result is INTEGER whatever their arguments: they
#: take integer operands (iabs, min0, …), and the conversions must pass
#: them through
INTEGER_RESULT = {"iabs", "int", "ifix", "idint", "nint", "isign", "max0",
                  "min0"}


def _draw(name: str, nargs: int, *, integer: bool) -> list:
    lo, hi = _DOMAINS.get(name, _DEFAULT_DOMAIN)
    vals = []
    for _ in range(nargs):
        x = RNG.uniform(lo, hi)
        vals.append(int(round(x)) or 7 if integer else float(x))
    return vals


def _arity(name: str) -> int:
    lo, hi = INTRINSICS[name].arity
    return lo if hi == lo else 3  # exercise the n-ary forms with 3 args


def test_integer_result_intrinsics_have_both_forms():
    assert INTEGER_RESULT <= set(SHARED)


@pytest.mark.parametrize("name", SHARED)
def test_scalar_vs_vector_agree(name):
    """``fn`` on scalars == ``np_fn`` on 1-element arrays."""
    info = INTRINSICS[name]
    nargs = _arity(name)
    for integer in ((False, True) if name in INTEGER_RESULT
                    else (False,)):
        for trial in range(200):
            args = _draw(name, nargs, integer=integer)
            if name in ("mod", "amod", "dmod") and args[1] == 0:
                continue
            want = info.fn(*args)
            got = info.np_fn(*[np.asarray([a]) for a in args])
            got_val = np.asarray(got).ravel()[0]
            assert got_val == pytest.approx(want, rel=1e-12, abs=1e-12), (
                f"{name}{tuple(args)}: scalar {want} != vectorized "
                f"{got_val}")


class TestDirectedCases:
    """The specific disagreements the tables historically had."""

    @pytest.mark.parametrize("a,b", [
        (-7, 3), (7, -3), (-7, -3), (-1, 5), (-10, 4),
        (-7.5, 3.0), (7.5, -3.0), (-7.5, -3.0), (-0.5, 2.0),
    ])
    def test_mod_truncates_toward_zero(self, a, b):
        # Fortran MOD(a, b) = a - INT(a/b)*b carries the *dividend*'s
        # sign; np.mod (floored) carries the divisor's and was wrong for
        # every negative-dividend case here.
        want = a - int(a / b) * b
        got = np.asarray(INTRINSICS["mod"].np_fn(np.asarray([a]),
                                                 np.asarray([b])))
        assert got.ravel()[0] == pytest.approx(want)
        assert INTRINSICS["mod"].fn(a, b) == pytest.approx(want)

    def test_sign_of_negative_zero_is_positive(self):
        # SIGN(a, -0.0) = +|a| in Fortran 77 (negative zero compares
        # equal to zero); np.copysign would return -|a|.
        got = np.asarray(INTRINSICS["sign"].np_fn(np.asarray([3.0]),
                                                  np.asarray([-0.0])))
        assert got.ravel()[0] == 3.0
        assert INTRINSICS["sign"].fn(3.0, -0.0) == 3.0

    def test_nary_min_max_do_not_clobber_third_arg(self):
        # np.minimum(a, b, c) treats c as out= — the third argument was
        # silently overwritten and its value returned unreduced.
        a, b, c = (np.asarray([5.0]), np.asarray([2.0]), np.asarray([8.0]))
        got = INTRINSICS["min"].np_fn(a, b, c)
        assert np.asarray(got).ravel()[0] == 2.0
        assert c[0] == 8.0, "third argument must not be used as out="
        got = INTRINSICS["max"].np_fn(a, b, c)
        assert np.asarray(got).ravel()[0] == 8.0

    def test_int_truncates_like_fortran(self):
        for x in (-2.7, -0.3, 0.3, 2.7):
            got = np.asarray(INTRINSICS["int"].np_fn(np.asarray([x])))
            assert got.ravel()[0] == int(x)
            assert INTRINSICS["int"].fn(x) == int(x)

    def test_nint_rounds_half_away_from_zero(self):
        for x, want in ((2.5, 3), (-2.5, -3), (0.5, 1), (-0.5, -1)):
            got = np.asarray(INTRINSICS["nint"].np_fn(np.asarray([x])))
            assert got.ravel()[0] == want
            assert INTRINSICS["nint"].fn(x) == want


class TestInterpreterPaths:
    """The same MOD expression through both interpreter code paths."""

    SRC = """
      subroutine modpath(n, a, b, r1, r2)
      integer n
      real a(n), b(n), r1(n), r2(n)
      integer i
      do i = 1, n
         r1(i) = mod(a(i), b(i))
      end do
      r2(1:n) = mod(a(1:n), b(1:n))
      end
"""

    def test_mod_scalar_and_section_paths_agree(self):
        n = 8
        a = np.array([-7.0, 7.0, -7.5, 7.5, -1.0, -10.0, 9.0, -3.0])
        b = np.array([3.0, -3.0, 3.0, -3.0, 5.0, 4.0, 2.0, -2.0])
        r1, r2 = np.zeros(n), np.zeros(n)
        res = Interpreter(parse_program(self.SRC), processors=1).call(
            "modpath", n, a, b, r1, r2)
        want = np.array([math.fmod(x, y) for x, y in zip(a, b)])
        assert np.allclose(res["r1"], want), "element-at-a-time path"
        assert np.allclose(res["r2"], want), "vectorized section path"
        assert np.allclose(res["r1"], res["r2"])
