"""Unordered critical sections (paper §4.1.6).

"Little has been published in the literature about compiler recognition
and protection of unordered critical sections.  However, in at least two
programs (TRACK, and MDG) we parallelized the most time-consuming loops
using unordered critical sections."

A loop qualifies when its carried dependences are confined to a small
contiguous statement region whose variables are touched *nowhere else* in
the loop, and the region's updates are order-insensitive in the
weak sense the paper used (index-list appends, accumulations): the region
is then bracketed with lock/unlock and the loop runs as a DOALL.
The transformation changes the *order* of the protected updates — users
opt in via the ``critical_sections`` option, exactly as the paper's
authors applied it by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.depend.graph import DependenceGraph
from repro.analysis.nest import NestRecord
from repro.cedar.nodes import LockStmt, ParallelDo, UnlockStmt
from repro.fortran import ast_nodes as F
from repro.restructurer.costmodel import estimate_body_ops


@dataclass
class CriticalPlan:
    """A viable critical-section parallelization of one loop."""

    loop: F.DoLoop
    first: int
    last: int
    region_ops: float
    body_ops: float
    variables: set[str]


def plan_critical_section(loop: "F.DoLoop | NestRecord",
                          graph: DependenceGraph,
                          ignore: set[str] = frozenset(),
                          max_fraction: float = 0.5
                          ) -> Optional[CriticalPlan]:
    """Find a contiguous region covering all carried dependences.

    Returns None when the body calls a routine of unknown effect, when no
    such region exists, when the region is most of the body (no
    parallelism left), or when a dependence variable is also referenced
    outside the region (the lock would not protect it).
    """
    if graph.opaque_calls:
        return None
    carried = [d for d in graph.carried_at(0) if d.variable not in ignore]
    if not carried:
        return None
    nest = NestRecord.of(loop)
    loop = nest.loop
    first = len(loop.body)
    last = -1
    variables: set[str] = set()
    for d in carried:
        si = nest.top_index(d.source.stmt)
        ti = nest.top_index(d.sink.stmt)
        if si is None or ti is None:
            return None
        first = min(first, si, ti)
        last = max(last, si, ti)
        variables.add(d.variable)

    # dependence variables must not appear outside the region
    for i, s in enumerate(loop.body):
        if first <= i <= last:
            continue
        for node in s.walk():
            if isinstance(node, (F.Var, F.ArrayRef, F.Apply)) \
                    and node.name in variables:
                return None

    # Order sensitivity: an unordered critical section reorders the
    # protected updates across iterations, which is only acceptable when
    # every scalar update is a commutative accumulation (counters, sums,
    # min/max) — the paper's QCD footnote shows what happens otherwise
    # (the randon-number recurrence gives different, invalid results).
    if not _region_commutative(loop.body[first:last + 1], variables):
        return None

    region_ops = estimate_body_ops(loop.body[first:last + 1])
    body_ops = estimate_body_ops(loop.body)
    if body_ops <= 0 or region_ops / body_ops > max_fraction:
        return None
    return CriticalPlan(loop, first, last, region_ops, body_ops, variables)


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


def build_critical_loop(plan: CriticalPlan, level: str = "X",
                        locals_: list[F.Stmt] | None = None) -> ParallelDo:
    """Materialize the DOALL with the protected region."""
    loop = plan.loop
    body: list[F.Stmt] = []
    for i, s in enumerate(loop.body):
        if i == plan.first:
            body.append(LockStmt(name="crit"))
        body.append(s)
        if i == plan.last:
            body.append(UnlockStmt(name="crit"))
    return ParallelDo(level=level, order="doall", var=loop.var,
                      start=loop.start, end=loop.end, step=loop.step,
                      locals_=list(locals_ or []), body=body)
