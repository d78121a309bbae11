"""Combined dependence-test driver.

Given a pair of references to the same array under a common loop nest, the
driver extracts affine subscripts, classifies each dimension (ZIV / SIV /
MIV), applies the exact tests where possible, falls back to GCD +
Banerjee direction-vector refinement otherwise, and returns the set of
surviving direction vectors (empty = independent) plus exact distance
vectors when every dimension is strong-SIV.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import inf
from typing import Mapping, Optional, Sequence

from repro.analysis.depend.banerjee import LoopBounds, banerjee_test
from repro.analysis.depend.gcd import gcd_test
from repro.analysis.expr import LinearExpr, linearize
from repro.analysis.refs import LoopInfo
from repro.fortran import ast_nodes as F


@dataclass(frozen=True)
class SubscriptPair:
    """Affine subscripts of one array dimension for (source, sink)."""
    src: LinearExpr
    sink: LinearExpr


@dataclass
class TestResult:
    """Outcome of dependence testing for one reference pair.

    ``directions`` holds surviving direction vectors, one symbol from
    ``< = >`` per common loop (empty set means proven independent).
    ``distance`` is the exact distance vector when known.  ``exact`` is
    False when any dimension fell back to conservative assumptions
    (non-affine subscripts, unknown calls, symbolic terms).
    """

    directions: set[tuple[str, ...]] = field(default_factory=set)
    distance: Optional[tuple[int, ...]] = None
    exact: bool = True

    @property
    def independent(self) -> bool:
        return not self.directions

    def carried_by(self, depth: int) -> bool:
        """True if some surviving vector is carried at loop ``depth`` (0-based)."""
        for dv in self.directions:
            if all(d == "=" for d in dv[:depth]) and dv[depth] in ("<", ">"):
                return True
        return False

    def loop_independent(self) -> bool:
        return any(all(d == "=" for d in dv) for dv in self.directions)


def _all_direction_vectors(k: int):
    return itertools.product("<=>", repeat=k)


class DependenceTester:
    """Tests subscript systems over a common loop nest."""

    def __init__(self, nest: Sequence[LoopInfo],
                 params: Mapping[str, int] | None = None):
        self.nest = list(nest)
        self.params = dict(params or {})
        self.index_vars = [l.var for l in self.nest]
        #: indices of loops with a negative constant step, tested as î = −i
        self.descending: set[str] = set()
        #: indices of loops whose step is not a known constant
        self.unordered: set[str] = set()
        self.bounds = [self._bounds(l) for l in self.nest]

    def _bounds(self, l: LoopInfo) -> LoopBounds:
        """Bounds of ``l``'s index in execution order.

        A negative constant step runs ``i`` downward, so the level is
        tested on ``î = −i`` over ``−start..−end`` (``_oriented`` negates
        its coefficients): directions and distances then read in
        execution order.  A step that is not a known constant leaves the
        level unbounded and its order unknown (``_either_way``).
        """
        descending = False
        if l.step is not None:
            step = linearize(l.step, self.params)
            if step is None or not step.is_constant or step.const == 0:
                self.unordered.add(l.var)
                return LoopBounds(l.var)
            descending = step.const < 0
        lo = linearize(l.start, self.params)
        hi = linearize(l.end, self.params)
        if descending:
            self.descending.add(l.var)
            lo = None if lo is None else -lo
            hi = None if hi is None else -hi
        return LoopBounds.from_linear(l.var, lo, hi)

    def _oriented(self, e: LinearExpr) -> LinearExpr:
        return LinearExpr(e.const, tuple(
            (n, -c if n in self.descending else c) for n, c in e.coeffs))

    def _either_way(self, dv: tuple[str, ...]):
        """``dv`` with ``<``/``>`` free at every unordered level: index
        order says nothing about execution order there."""
        return itertools.product(*(
            ("<", ">") if d != "=" and v in self.unordered else (d,)
            for d, v in zip(dv, self.index_vars)))

    # ------------------------------------------------------------------

    def test_subscripts(self, pairs: Sequence[SubscriptPair]) -> TestResult:
        """Test an affine subscript system; returns surviving DVs."""
        k = len(self.nest)
        if k == 0:
            # no common loops: dependence iff all dims may be equal
            for p in pairs:
                if not gcd_test(p.src, p.sink, []):
                    return TestResult(set())
            return TestResult({()})

        if self.descending:
            pairs = [SubscriptPair(self._oriented(p.src),
                                   self._oriented(p.sink)) for p in pairs]

        # Whole-system GCD screening, per dimension.
        for p in pairs:
            if not gcd_test(p.src, p.sink, self.index_vars):
                return TestResult(set(), exact=True)

        surviving: set[tuple[str, ...]] = set()
        for dv in _all_direction_vectors(k):
            ok = True
            for p in pairs:
                if not banerjee_test(p.src, p.sink, self.bounds, dv):
                    ok = False
                    break
            if ok:
                surviving.add(dv)
        if self.unordered:
            return TestResult({e for dv in surviving
                               for e in self._either_way(dv)})

        distance = self._exact_distance(pairs, k) if surviving else None
        if distance is not None:
            # an exact distance pins down the single direction vector
            dv = tuple("<" if d > 0 else (">" if d < 0 else "=")
                       for d in distance)
            surviving = {dv}
            # verify the distance is feasible within known trip counts
            for d, b in zip(distance, self.bounds):
                if b.lo != -inf and b.hi != inf and abs(d) > (b.hi - b.lo):
                    return TestResult(set())
        return TestResult(surviving, distance)

    def _exact_distance(self, pairs: Sequence[SubscriptPair],
                        k: int) -> Optional[tuple[int, ...]]:
        """Distance vector when every dimension is strong SIV/ZIV.

        Strong SIV in var v: src = a*v + e, sink = a*v' + e with the same
        loop-invariant part e; then v' - v = (src.const-ish difference)/a.
        """
        dist: dict[str, int] = {}
        determined: set[str] = set()
        for p in pairs:
            vars_used = ((p.src.variables() | p.sink.variables())
                         & set(self.index_vars))
            if not vars_used:
                if p.src != p.sink:
                    return None
                continue
            if len(vars_used) != 1:
                return None
            (v,) = vars_used
            a1, a2 = p.src.coeff(v), p.sink.coeff(v)
            if a1 != a2 or a1 == 0:
                return None
            rest_src = p.src - LinearExpr.variable(v, a1)
            rest_sink = p.sink - LinearExpr.variable(v, a2)
            diff = rest_src - rest_sink
            if not diff.is_constant:
                return None
            if diff.const % a1 != 0:
                return None
            d = diff.const // a1  # v' = v + d
            if v in dist and dist[v] != d:
                return None
            dist[v] = d
            determined.add(v)
        if determined != set(self.index_vars):
            # an index absent from every subscript leaves its relation
            # unconstrained ('*'), so no exact distance vector exists
            return None
        return tuple(dist[v] for v in self.index_vars)

    # ------------------------------------------------------------------

    def test_refs(self, src_subs: Sequence[F.Expr],
                  sink_subs: Sequence[F.Expr]) -> TestResult:
        """Test two AST subscript lists; non-affine → conservative."""
        if len(src_subs) != len(sink_subs):
            return self.conservative()
        pairs: list[SubscriptPair] = []
        for a, b in zip(src_subs, sink_subs):
            la = linearize(a, self.params)
            lb = linearize(b, self.params)
            if la is None or lb is None:
                return self.conservative()
            pairs.append(SubscriptPair(la, lb))
        return self.test_subscripts(pairs)

    def conservative(self) -> TestResult:
        """All direction vectors possible (used for non-affine cases)."""
        k = len(self.nest)
        return TestResult(set(_all_direction_vectors(k)) if k else {()},
                          exact=False)
