"""Catalogue of the Fortran 77 intrinsic functions the front end knows.

Each entry records the Python callable used by the functional interpreter
element-at-a-time, its NumPy equivalent for array sections and vectorized
loops, and a nominal cost class used by the performance model ('cheap' ≈
an ALU op, 'func' ≈ a short libm routine, 'heavy' ≈ divide/sqrt class
latency).  This is the one intrinsic table: the tree walk, the compiled
engine and the loop lowerer's exactness and type-class proofs all read it,
and tests/execmodel/test_intrinsic_consistency.py cross-checks ``fn``
against ``np_fn`` for every entry that has both.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Intrinsic:
    name: str
    arity: tuple[int, int]  # (min, max) argument count; max -1 = unbounded
    fn: Callable
    cost_class: str = "func"
    reduction: bool = False  # True for vector reductions (sum, dotproduct)
    #: the NumPy equivalent applied to array arguments, by name: a key of
    #: :func:`_numpy_forms` or else an attribute of ``numpy``.  None: not
    #: applicable to arrays.  Read it through :attr:`np_fn`.
    np_name: Optional[str] = None
    #: ``fn`` and ``np_fn`` are *bit-equal* elementwise (correctly-rounded
    #: or pure integer/compare ops) — the only intrinsics a loop may be
    #: vectorized through.  Transcendentals (exp, log, sin, …) are not:
    #: libm and npymath may differ in the last ulp.
    exact: bool = False
    #: result type class: "i" integer or "f" real whatever the arguments,
    #: "arg" follows the arguments, None unknown
    result: Optional[str] = None

    @property
    def np_fn(self) -> Optional[Callable]:
        """The NumPy equivalent; must agree elementwise with ``fn``.
        Resolved on first use — only the execution engines ask, so
        parsing and linting never import NumPy."""
        return None if self.np_name is None else _np_function(self.np_name)


def _fmin(*xs):
    return min(xs)


def _fmax(*xs):
    return max(xs)


def _sign(a, b):
    mag = abs(a)
    return mag if b >= 0 else -mag


def _dim(a, b):
    return a - b if a > b else type(a)(0)


def _mod(a, b):
    # Fortran MOD truncates toward zero, unlike Python's %.  NumPy's
    # integer scalars register as numbers.Integral.
    return a - int(a / b) * b if isinstance(a, numbers.Integral) \
        else math.fmod(a, b)


def _nint(x):
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _array_reduction(name: str) -> Callable:
    """``numpy.<name>``, imported when the reduction first runs."""
    def reduce(*arrays):
        return _np_function(name)(*arrays)
    return reduce


@functools.cache
def _numpy_forms() -> dict[str, Callable]:
    """The array forms NumPy has no single function for."""
    import numpy as np

    def sign(a, b):
        # Fortran SIGN: |a| carrying b's arithmetic sign, with
        # SIGN(a, -0.0) = +|a| (np.copysign would propagate the negative
        # zero).
        return np.where(np.greater_equal(b, 0), np.abs(a), -np.abs(a))

    def nint(x):
        return np.where(np.greater_equal(x, 0), np.floor(x + 0.5),
                        -np.floor(-x + 0.5)).astype(np.int64)

    def nary_min(*xs):
        # n-ary, unlike np.minimum: np.minimum(a, b, c) treats c as out=.
        out = xs[0]
        for x in xs[1:]:
            out = np.minimum(out, x)
        return out

    def nary_max(*xs):
        out = xs[0]
        for x in xs[1:]:
            out = np.maximum(out, x)
        return out

    def to_int(x):
        return np.asarray(np.trunc(x)).astype(np.int64)

    def to_float(x):
        return np.asarray(x).astype(np.float64)

    def dim(a, b):
        return np.maximum(a - b, 0)

    return {"sign": sign, "nint": nint, "nary_min": nary_min,
            "nary_max": nary_max, "to_int": to_int, "to_float": to_float,
            "dim": dim}


@functools.cache
def _np_function(name: str) -> Callable:
    import numpy as np

    return _numpy_forms().get(name) or getattr(np, name)


INTRINSICS: dict[str, Intrinsic] = {}


def _reg(name: str, *args, **fields) -> None:
    INTRINSICS[name] = Intrinsic(name, *args, **fields)


# numeric conversion / simple
_reg("abs", (1, 1), abs, "cheap", np_name="abs", exact=True, result="arg")
_reg("iabs", (1, 1), abs, "cheap", np_name="abs", exact=True, result="i")
_reg("dabs", (1, 1), abs, "cheap", np_name="abs", exact=True, result="arg")
_reg("int", (1, 1), int, "cheap", np_name="to_int", exact=True, result="i")
_reg("ifix", (1, 1), int, "cheap", np_name="to_int", exact=True, result="i")
_reg("idint", (1, 1), int, "cheap", np_name="to_int", exact=True, result="i")
_reg("float", (1, 1), float, "cheap", np_name="to_float", exact=True,
     result="f")
_reg("real", (1, 1), float, "cheap", np_name="to_float", exact=True,
     result="f")
_reg("dble", (1, 1), float, "cheap", np_name="to_float", exact=True,
     result="f")
_reg("sngl", (1, 1), float, "cheap", np_name="to_float", exact=True,
     result="f")
_reg("nint", (1, 1), _nint, "cheap", np_name="nint", exact=True,
     result="i")
_reg("sign", (2, 2), _sign, "cheap", np_name="sign", exact=True,
     result="arg")
_reg("isign", (2, 2), _sign, "cheap", np_name="sign", exact=True,
     result="i")
_reg("dim", (2, 2), _dim, "cheap", np_name="dim")
# np.fmod, not np.mod: Fortran MOD carries the *dividend*'s sign; np.mod
# is floored division and follows the divisor instead.
_reg("mod", (2, 2), _mod, "cheap", np_name="fmod")
_reg("amod", (2, 2), _mod, "cheap", np_name="fmod")
_reg("dmod", (2, 2), _mod, "cheap", np_name="fmod")
_reg("max", (2, -1), _fmax, "cheap", np_name="nary_max", exact=True,
     result="arg")
_reg("max0", (2, -1), _fmax, "cheap", np_name="nary_max", exact=True,
     result="i")
_reg("amax1", (2, -1), _fmax, "cheap", np_name="nary_max", exact=True,
     result="f")
_reg("dmax1", (2, -1), _fmax, "cheap", np_name="nary_max", exact=True,
     result="f")
_reg("min", (2, -1), _fmin, "cheap", np_name="nary_min", exact=True,
     result="arg")
_reg("min0", (2, -1), _fmin, "cheap", np_name="nary_min", exact=True,
     result="i")
_reg("amin1", (2, -1), _fmin, "cheap", np_name="nary_min", exact=True,
     result="f")
_reg("dmin1", (2, -1), _fmin, "cheap", np_name="nary_min", exact=True,
     result="f")

# math
_reg("sqrt", (1, 1), math.sqrt, "heavy", np_name="sqrt", exact=True,
     result="f")
_reg("dsqrt", (1, 1), math.sqrt, "heavy", np_name="sqrt", exact=True,
     result="f")
_reg("exp", (1, 1), math.exp, np_name="exp")
_reg("dexp", (1, 1), math.exp, np_name="exp")
_reg("log", (1, 1), math.log, np_name="log")
_reg("alog", (1, 1), math.log, np_name="log")
_reg("dlog", (1, 1), math.log, np_name="log")
_reg("log10", (1, 1), math.log10, np_name="log10")
_reg("alog10", (1, 1), math.log10, np_name="log10")
_reg("sin", (1, 1), math.sin, np_name="sin")
_reg("dsin", (1, 1), math.sin, np_name="sin")
_reg("cos", (1, 1), math.cos, np_name="cos")
_reg("dcos", (1, 1), math.cos, np_name="cos")
_reg("tan", (1, 1), math.tan, np_name="tan")
_reg("atan", (1, 1), math.atan, np_name="arctan")
_reg("datan", (1, 1), math.atan, np_name="arctan")
_reg("atan2", (2, 2), math.atan2, np_name="arctan2")
_reg("datan2", (2, 2), math.atan2, np_name="arctan2")
_reg("asin", (1, 1), math.asin, np_name="arcsin")
_reg("acos", (1, 1), math.acos, np_name="arccos")
_reg("sinh", (1, 1), math.sinh, np_name="sinh")
_reg("cosh", (1, 1), math.cosh, np_name="cosh")
_reg("tanh", (1, 1), math.tanh, np_name="tanh")

# Fortran 90 vector reductions accepted on restructurer input (paper §2.1)
_reg("sum", (1, 1), _array_reduction("sum"), "func", reduction=True)
_reg("dotproduct", (2, 2), _array_reduction("dot"), "func",
     reduction=True)
_reg("maxval", (1, 1), _array_reduction("max"), "func", reduction=True)
_reg("minval", (1, 1), _array_reduction("min"), "func", reduction=True)


def is_intrinsic(name: str) -> bool:
    return name in INTRINSICS


def intrinsic(name: str) -> Intrinsic:
    return INTRINSICS[name]
