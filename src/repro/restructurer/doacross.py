"""DOACROSS generation with minimal synchronization (paper §3.3, §4.1.6).

A loop whose only obstacle is a small set of carried *flow* dependences can
run as an ordered parallel loop: ``await`` delays an iteration until its
predecessor has passed the synchronized region, ``advance`` releases it.
The pass computes the smallest contiguous statement region covering all
carried dependences (the Midkiff-Padua minimal-placement idea restricted to
one sync point) and brackets it.

The *synchronization delay factor* (size of the region relative to the
body, divided by processors) is exported so the planner can price the
DOACROSS against distributing the loop into serial + DOALL parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.depend.graph import DependenceGraph
from repro.analysis.nest import NestRecord
from repro.cedar.nodes import AdvanceStmt, AwaitStmt, ParallelDo
from repro.errors import TransformError
from repro.fortran import ast_nodes as F
from repro.restructurer.costmodel import estimate_body_ops


@dataclass
class DoacrossPlan:
    """Placement decision for one DOACROSS candidate."""

    loop: F.DoLoop
    first: int                  # index of first statement in sync region
    last: int                   # index of last statement in sync region
    distance: int               # minimum carried distance (await argument)
    region_ops: float
    body_ops: float

    def delay_factor(self, processors: int) -> float:
        return (self.region_ops / max(self.body_ops, 1.0)) / processors

    def describe(self) -> str:
        """One-line human summary (used in decision-trace events)."""
        share = 100.0 * self.region_ops / max(self.body_ops, 1.0)
        return (f"sync region spans statements {self.first}..{self.last} "
                f"(distance {self.distance}, {share:.0f}% of body ops)")


def plan_doacross(loop: "F.DoLoop | NestRecord", graph: DependenceGraph,
                  ignore: set[str] = frozenset()) -> Optional[DoacrossPlan]:
    """Plan a DOACROSS for ``loop`` given its dependence graph.

    Eligible when every carried dependence (not in ``ignore``) is exact
    with positive distance; the sync region spans from the earliest sink
    to the latest source among those dependences.
    """
    carried = [d for d in graph.carried_at(0) if d.variable not in ignore]
    if not carried:
        return None  # plain DOALL, no sync needed
    nest = NestRecord.of(loop)
    loop = nest.loop
    first = len(loop.body)
    last = -1
    min_dist = None
    for d in carried:
        if d.distance is None or d.distance[0] <= 0:
            return None  # unknown or backward distance: cannot sync simply
        src_i = nest.top_index(d.source.stmt)
        sink_i = nest.top_index(d.sink.stmt)
        if src_i is None or sink_i is None:
            return None
        first = min(first, src_i, sink_i)
        last = max(last, src_i, sink_i)
        dist = d.distance[0]
        min_dist = dist if min_dist is None else min(min_dist, dist)
    region = loop.body[first:last + 1]
    return DoacrossPlan(
        loop=loop, first=first, last=last, distance=min_dist or 1,
        region_ops=estimate_body_ops(region),
        body_ops=estimate_body_ops(loop.body),
    )


def build_doacross(plan: DoacrossPlan, level: str = "C",
                   locals_: list[F.Stmt] | None = None) -> ParallelDo:
    """Materialize the ordered parallel loop with await/advance brackets."""
    loop = plan.loop
    body: list[F.Stmt] = []
    for i, s in enumerate(loop.body):
        if i == plan.first:
            body.append(AwaitStmt(point=1, distance=plan.distance))
        body.append(s)
        if i == plan.last:
            body.append(AdvanceStmt(point=1))
    order = "doacross"
    if level not in ("C", "X"):
        raise TransformError("DOACROSS loops run at C or X level")
    return ParallelDo(
        level=level, order=order, var=loop.var,
        start=loop.start, end=loop.end, step=loop.step,
        locals_=list(locals_ or []), body=body,
    )
