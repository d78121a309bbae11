"""Synchronised regions: cascade DOACROSS (paper §3.3, Fig. 4) and
unordered critical sections (§4.1.6).

Both kinds of loop synchronisation protect one region: the smallest
contiguous run of top-level body statements covering every dependence
the loop carries (the Midkiff-Padua minimal-placement idea restricted to
one sync point).  :func:`find_region` finds it; two eligibility tests
decide what may bracket it:

- **DOACROSS** (:func:`plan_doacross`): every carried dependence is
  exact with a positive distance.  ``await`` delays an iteration until
  its predecessor has passed the region, ``advance`` releases it, and
  the iterations run in order.  ``CostModel.doacross`` prices it from
  the plan's region and body operations (§3.3's synchronisation delay
  factor).
- **Unordered critical section** (:func:`plan_critical_section`): "in
  at least two programs (TRACK, and MDG) we parallelized the most
  time-consuming loops using unordered critical sections".  The
  dependence variables are touched nowhere outside the region, every
  scalar update inside it is order-insensitive in the weak sense the
  paper used (index-list appends, accumulations), and the region is a
  small part of the body; ``lock``/``unlock`` bracket it and the loop
  runs as a DOALL.  The transformation changes the *order* of the
  protected updates — users opt in via the ``critical_sections``
  option, exactly as the paper's authors applied it by hand.

:func:`bracket` materialises either plan as a ``ParallelDo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.depend.graph import DependenceGraph
from repro.analysis.nest import NestRecord
from repro.cedar.nodes import ParallelDo
from repro.fortran import ast_nodes as F
from repro.restructurer.costmodel import estimate_body_ops


@dataclass
class SyncPlan:
    """One synchronised region of a loop body, ready to bracket."""

    loop: F.DoLoop
    first: int                  # index of the region's first statement
    last: int                   # index of the region's last statement
    region_ops: float
    body_ops: float
    distance: int = 1           # DOACROSS: the smallest carried distance

    def describe(self) -> str:
        """One-line human summary (used in decision-trace events)."""
        share = 100.0 * self.region_ops / max(self.body_ops, 1.0)
        return (f"sync region spans statements {self.first}..{self.last} "
                f"(distance {self.distance}, {share:.0f}% of body ops)")


def find_region(nest: NestRecord, graph: DependenceGraph,
                ignore: set[str] = frozenset()
                ) -> Optional[tuple[int, int, list]]:
    """``(first, last, carried)``: the dependences ``nest``'s loop
    carries (less those on ``ignore``'s variables) and the smallest run
    ``first..last`` of its top-level statements holding both ends of
    each.  None when the body calls a routine of unknown effect, carries
    nothing, or a dependence has an end outside the body."""
    if graph.opaque_calls:
        return None
    carried = [d for d in graph.carried_at(0) if d.variable not in ignore]
    if not carried:
        return None  # plain DOALL, no sync needed
    first = len(nest.loop.body)
    last = -1
    for d in carried:
        ends = (nest.top_index(d.source.stmt), nest.top_index(d.sink.stmt))
        if None in ends:
            return None
        first = min(first, *ends)
        last = max(last, *ends)
    return first, last, carried


def _plan(nest: NestRecord, first: int, last: int,
          distance: int = 1) -> SyncPlan:
    body = nest.loop.body
    return SyncPlan(nest.loop, first, last,
                    estimate_body_ops(body[first:last + 1]),
                    estimate_body_ops(body), distance)


def plan_doacross(loop: "F.DoLoop | NestRecord", graph: DependenceGraph,
                  ignore: set[str] = frozenset()) -> Optional[SyncPlan]:
    """The DOACROSS plan for ``loop``: its region, when every carried
    dependence is exact with a positive distance (``await`` waits for
    the smallest).  An unknown or backward distance cannot be
    synchronised simply."""
    nest = NestRecord.of(loop)
    region = find_region(nest, graph, ignore)
    if region is None:
        return None
    first, last, carried = region
    if any(d.distance is None or d.distance[0] <= 0 for d in carried):
        return None
    return _plan(nest, first, last,
                 distance=min(d.distance[0] for d in carried))


def plan_critical_section(loop: "F.DoLoop | NestRecord",
                          graph: DependenceGraph,
                          ignore: set[str] = frozenset(),
                          max_fraction: float = 0.5
                          ) -> Optional[SyncPlan]:
    """The critical-section plan for ``loop``: its region, unless a
    dependence variable is referenced outside it (the lock would not
    protect it), a scalar update inside it is order-sensitive, or it
    is more than ``max_fraction`` of the body (no parallelism left)."""
    nest = NestRecord.of(loop)
    region = find_region(nest, graph, ignore)
    if region is None:
        return None
    first, last, carried = region
    variables = {d.variable for d in carried}
    body = nest.loop.body
    for s in body[:first] + body[last + 1:]:
        for node in s.walk():
            if isinstance(node, (F.Var, F.ArrayRef, F.Apply)) \
                    and node.name in variables:
                return None

    # Order sensitivity: an unordered critical section reorders the
    # protected updates across iterations, which is only acceptable when
    # every scalar update is a commutative accumulation (counters, sums,
    # min/max) — the paper's QCD footnote shows what happens otherwise
    # (the random-number recurrence gives different, invalid results).
    if not _region_commutative(body[first:last + 1], variables):
        return None

    plan = _plan(nest, first, last)
    if plan.body_ops <= 0 or plan.region_ops / plan.body_ops > max_fraction:
        return None
    return plan


def _region_commutative(stmts: list[F.Stmt], variables: set[str]) -> bool:
    """Every write to a dependence *scalar* inside the region must be a
    commutative accumulation (``v = v + e``, ``* e``, min/max forms).

    Array-element stores through such counters (the hits-list append) are
    accepted: the set of stored values is order-independent even though
    their placement is not — the paper's §4.1.6 usage.
    """
    from repro.analysis.reductions import _match_accumulation

    for s in stmts:
        for node in s.walk():
            if isinstance(node, F.Assign) and isinstance(node.target, F.Var) \
                    and node.target.name in variables:
                m = _match_accumulation(node)
                if m is None or m[1] not in ("+", "*", "min", "max"):
                    return False
    return True


def bracket(plan: SyncPlan, opening: F.Stmt, closing: F.Stmt, level: str,
            order: str, locals_: list[F.Stmt] | None = None) -> ParallelDo:
    """The parallel loop of ``plan``: its body with ``opening`` before
    the region and ``closing`` after it (``await``/``advance`` for an
    ordered DOACROSS, ``lock``/``unlock`` for a critical DOALL)."""
    loop = plan.loop
    body = loop.body
    return ParallelDo(
        level=level, order=order, var=loop.var,
        start=loop.start, end=loop.end, step=loop.step,
        locals_=list(locals_ or []),
        body=[*body[:plan.first], opening, *body[plan.first:plan.last + 1],
              closing, *body[plan.last + 1:]])
