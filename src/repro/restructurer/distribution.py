"""Loop distribution (paper §3.3).

Splits a loop's body into separately-loopable groups so that library
idioms (recurrences, reductions) can be isolated: "the restructurer must
often distribute an original loop to isolate those computations done by
library code".

Legality: statements are grouped by strongly connected components of the
statement-level dependence graph; groups are emitted in topological order.
Loop-independent dependences between groups are satisfied by order;
carried dependences within a group keep that group together.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.nest import NestRecord
from repro.fortran import ast_nodes as F


def distribute(loop: F.DoLoop,
               params: Mapping[str, int] | None = None) -> list[F.DoLoop]:
    """Distribute ``loop`` into a list of loops (may return [loop]).

    Returns one loop per statement group, preserving semantics; when the
    body is a single dependence component the original loop is returned
    unchanged (as a single-element list).
    """
    n = len(loop.body)
    if n <= 1:
        return [loop]

    nest = NestRecord(loop, params=params)
    edges: dict[int, set[int]] = {i: set() for i in range(n)}
    for d in nest.graph.deps:
        si = nest.top_index(d.source.stmt)
        ti = nest.top_index(d.sink.stmt)
        if si is None or ti is None:
            return [loop]  # defensive: unmapped statement
        if si != ti:
            edges[si].add(ti)

    # Tarjan SCC over statement indices
    index_counter = [0]
    stack: list[int] = []
    lowlink = [0] * n
    index = [-1] * n
    on_stack = [False] * n
    comp_of = [-1] * n
    comps: list[list[int]] = []

    def strongconnect(v: int) -> None:
        index[v] = lowlink[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack[v] = True
        for w in edges[v]:
            if index[w] == -1:
                strongconnect(w)
                lowlink[v] = min(lowlink[v], lowlink[w])
            elif on_stack[w]:
                lowlink[v] = min(lowlink[v], index[w])
        if lowlink[v] == index[v]:
            comp = []
            while True:
                w = stack.pop()
                on_stack[w] = False
                comp_of[w] = len(comps)
                comp.append(w)
                if w == v:
                    break
            comps.append(sorted(comp))

    for v in range(n):
        if index[v] == -1:
            strongconnect(v)

    if len(comps) <= 1:
        return [loop]

    # topological order of the component DAG (Kahn), ties broken by the
    # smallest original statement index so untangled code keeps text order
    comp_edges: dict[int, set[int]] = {c: set() for c in range(len(comps))}
    indeg = [0] * len(comps)
    for v in range(n):
        for w in edges[v]:
            cv, cw = comp_of[v], comp_of[w]
            if cv != cw and cw not in comp_edges[cv]:
                comp_edges[cv].add(cw)
                indeg[cw] += 1
    import heapq

    ready = [(comps[c][0], c) for c in range(len(comps)) if indeg[c] == 0]
    heapq.heapify(ready)
    comp_sorted: list[int] = []
    while ready:
        _, c = heapq.heappop(ready)
        comp_sorted.append(c)
        for w in comp_edges[c]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, (comps[w][0], w))

    loops: list[F.DoLoop] = []
    for c in comp_sorted:
        body = [loop.body[i] for i in comps[c]]
        loops.append(F.DoLoop(var=loop.var,
                              start=loop.start.clone(),
                              end=loop.end.clone(),
                              step=loop.step.clone() if loop.step else None,
                              body=body))
    return loops
