"""Runtime value representation for the interpreter."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Mapping, Optional

import numpy as np

from repro.errors import InterpreterError

#: numpy dtype per Fortran type
DTYPES = {
    "integer": np.int64,
    "real": np.float64,          # interpreted at double precision
    "doubleprecision": np.float64,
    "logical": np.bool_,
}


@dataclass
class FArray:
    """A Fortran array: numpy storage plus per-dimension lower bounds."""

    data: np.ndarray
    lowers: tuple[int, ...]

    @staticmethod
    def zeros(ftype: str, bounds: list[tuple[int, int]]) -> "FArray":
        shape = tuple(hi - lo + 1 for lo, hi in bounds)
        if any(s < 0 for s in shape):
            raise InterpreterError(f"negative array extent {bounds}")
        return FArray(np.zeros(shape, dtype=DTYPES.get(ftype, np.float64)),
                      tuple(lo for lo, _ in bounds))

    def _offset(self, idx: tuple[int, ...]) -> tuple[int, ...]:
        if len(idx) != self.data.ndim:
            raise InterpreterError(
                f"rank mismatch: {len(idx)} subscripts for rank "
                f"{self.data.ndim} array")
        out = []
        for i, (v, lo, n) in enumerate(zip(idx, self.lowers, self.data.shape)):
            j = int(v) - lo
            if not (0 <= j < n):
                raise InterpreterError(
                    f"subscript {int(v)} out of bounds in dimension {i + 1} "
                    f"[{lo}, {lo + n - 1}]")
            out.append(j)
        return tuple(out)

    def get(self, idx: tuple[int, ...]):
        return self.data[self._offset(idx)]

    def set(self, idx: tuple[int, ...], value) -> None:
        self.data[self._offset(idx)] = value

    def slice_of(self, specs: list[tuple[Any, Any, Any] | int]):
        """Build a numpy view for mixed scalar/section subscripts.

        Each spec is either an int (scalar subscript) or (lo, hi, stride).
        """
        key = []
        for dim, spec in enumerate(specs):
            lo_bound = self.lowers[dim]
            if isinstance(spec, tuple):
                lo, hi, stride = spec
                lo = lo_bound if lo is None else int(lo)
                hi = (lo_bound + self.data.shape[dim] - 1
                      if hi is None else int(hi))
                step = 1 if stride is None else int(stride)
                key.append(slice(lo - lo_bound, hi - lo_bound + 1, step))
            else:
                j = int(spec) - lo_bound
                if not (0 <= j < self.data.shape[dim]):
                    raise InterpreterError(
                        f"subscript {int(spec)} out of bounds")
                key.append(j)
        return self.data[tuple(key)]


class Scope:
    """Lexical scope chain: unit scope, loop-local scopes."""

    #: store class of each scalar this scope declares with a type of its
    #: own — a DOALL's private ``locals_`` — which a store into it obeys
    #: (:func:`repro.execmodel.interp.stored_value`); the unit's names
    #: take the unit's symbol table.  Never mutated: a worker scope
    #: assigns a dict of its own.
    classes: Mapping[str, str] = MappingProxyType({})

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self.vars: dict[str, Any] = {}

    def lookup_scope(self, name: str) -> Optional["Scope"]:
        s: Optional[Scope] = self
        while s is not None:
            if name in s.vars:
                return s
            s = s.parent
        return None

    def get(self, name: str) -> Any:
        s = self.lookup_scope(name)
        if s is None:
            raise InterpreterError(f"reference to undefined variable {name!r}")
        return s.vars[name]

    def set(self, name: str, value: Any) -> None:
        s = self.lookup_scope(name)
        if s is None:
            s = self._root()
        s.vars[name] = value

    def declare(self, name: str, value: Any) -> None:
        self.vars[name] = value

    def has(self, name: str) -> bool:
        return self.lookup_scope(name) is not None

    def _root(self) -> "Scope":
        s = self
        while s.parent is not None:
            s = s.parent
        return s
