"""Banerjee inequalities with direction-vector refinement.

For a subscript pair ``f(i) - g(i')`` we bound the difference ``h = f - g``
over the iteration space, once per candidate direction vector.  If the
interval ``[min h, max h]`` excludes 0 for some dimension, no dependence
with that direction vector exists.

Bounds may be unknown (symbolic); unknown bounds widen to ±∞, keeping the
test conservative.  Directions follow the usual convention: the vector
element for loop ``k`` relates the *source* iteration ``i_k`` to the *sink*
iteration ``i_k'``:

- ``'<'`` : i_k < i_k'   (dependence carried forward)
- ``'='`` : i_k = i_k'
- ``'>'`` : i_k > i_k'
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Optional, Sequence

from repro.analysis.expr import LinearExpr


@dataclass(frozen=True)
class LoopBounds:
    """Numeric bounds of one loop index (± inf when unknown)."""
    var: str
    lo: float = -inf
    hi: float = inf

    @staticmethod
    def from_linear(var: str, lo: Optional[LinearExpr],
                    hi: Optional[LinearExpr]) -> "LoopBounds":
        lo_v = float(lo.const) if lo is not None and lo.is_constant else -inf
        hi_v = float(hi.const) if hi is not None and hi.is_constant else inf
        return LoopBounds(var, lo_v, hi_v)


def _span(c: int, lo: float, hi: float) -> tuple[float, float]:
    """Min/max of ``c*i`` with i in [lo, hi].  ``0·∞ = 0``: a zero
    coefficient drops the term even over an unknown bound, where IEEE
    arithmetic would give NaN."""
    if c > 0:
        return c * lo, c * hi
    if c < 0:
        return c * hi, c * lo
    return 0.0, 0.0


def _term_extremes(a: int, b: int, lo: float, hi: float,
                   direction: str) -> tuple[float, float]:
    """Min/max of ``a*i - b*i'`` with i, i' in [lo, hi] and i REL i'.

    Derived from the classic Banerjee per-direction bounds (Wolfe,
    *Optimizing Supercompilers for Supercomputers*).  For unknown (infinite)
    bounds the result widens to ±∞ whenever the coefficient combination can
    grow without bound.
    """
    if direction == "*":
        # unconstrained pair
        a_min, a_max = _span(a, lo, hi)
        b_min, b_max = _span(b, lo, hi)
        return a_min - b_max, a_max - b_min
    if direction == "=":
        return _span(a - b, lo, hi)
    if direction == "<":
        # i <= i' - 1.  Write i' = i + d, d >= 1, i in [lo, hi-1], i+d <= hi.
        # h_term = a*i - b*(i+d) = (a-b)*i - b*d with d in [1, hi-lo].
        c = a - b
        if lo == -inf or hi == inf:
            # ranges unbounded: bound only by coefficient signs
            if c == 0:  # h = -b*d, d >= 1 unbounded above
                mn = -inf if b > 0 else -b * 1.0
                mx = inf if b < 0 else -b * 1.0
            else:
                mn, mx = -inf, inf
            return mn, mx
        dmax = hi - lo
        if dmax < 1:
            return inf, -inf  # empty: no i < i' possible
        # h is linear in (i, d) over a triangular region whose vertices are
        # (lo,1), (hi-1,1), (lo,dmax): extremes occur at the vertices.
        verts = [(lo, 1.0), (hi - 1, 1.0), (lo, dmax)]
        vals = [c * i - b * d for i, d in verts]
        return min(vals), max(vals)
    if direction == ">":
        # mirror of '<': i' <= i - 1 → h = a*i - b*i', i = i' + d, d >= 1
        # h = (a-b)*i' + a*d, i' in [lo, hi-1], d in [1, hi-lo]
        c = a - b
        if lo == -inf or hi == inf:
            if c == 0:
                mn = -inf if a < 0 else a * 1.0
                mx = inf if a > 0 else a * 1.0
            else:
                mn, mx = -inf, inf
            return mn, mx
        dmax = hi - lo
        if dmax < 1:
            return inf, -inf
        verts = [(lo, 1.0), (hi - 1, 1.0), (lo, dmax)]
        vals = [c * ip + a * d for ip, d in verts]
        return min(vals), max(vals)
    raise ValueError(direction)


def banerjee_test(src: LinearExpr, sink: LinearExpr,
                  bounds: Sequence[LoopBounds],
                  direction: Sequence[str]) -> bool:
    """True if a dependence with ``direction`` is *possible*.

    ``direction`` gives one of ``'<' '=' '>' '*'`` per loop in ``bounds``.
    Loop-invariant symbolic terms must cancel; otherwise the test returns
    True (cannot disprove).
    """
    index_set = {b.var for b in bounds}
    sym_src = {n: c for n, c in src.coeffs if n not in index_set}
    sym_sink = {n: c for n, c in sink.coeffs if n not in index_set}
    if sym_src != sym_sink:
        return True

    total_min = float(src.const - sink.const)
    total_max = float(src.const - sink.const)
    for b, d in zip(bounds, direction):
        a_c = src.coeff(b.var)
        b_c = sink.coeff(b.var)
        mn, mx = _term_extremes(a_c, b_c, b.lo, b.hi, d)
        if mn > mx:  # empty direction region (e.g. '<' in a 1-trip loop)
            return False
        total_min += mn
        total_max += mx
    return total_min <= 0.0 <= total_max
