"""Loop fusion (paper §4.2.4, Figure 9).

Fusing adjacent parallel loops with identical headers builds the large
concurrent loops Cedar needs — a single SDOALL start instead of many,
which is the 2× gain of Figure 9.  Legality: for each pair of fused
bodies, no *fusion-preventing* dependence — a dependence from an earlier
loop's iteration i to a later loop's iteration j < i would be reversed by
fusion.

The pass also implements the paper's trick for FLO52: replicating the
loop-invariant code that sits *between* two outer loops into the fused
body (adding redundant computation) so the whole region becomes one
parallel loop.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.analysis.expr import exprs_equal
from repro.analysis.nest import NestRecord
from repro.analysis.privatization import find_privatizable
from repro.analysis.reductions import find_reductions
from repro.fortran import ast_nodes as F
from repro.restructurer.rename import rename_in_stmts
from repro.trace.events import NULL_SINK, DecisionEvent


def same_header(a: F.DoLoop, b: F.DoLoop,
                params: Mapping[str, int] | None = None) -> bool:
    """Identical iteration spaces (index names may differ)."""
    step_a = a.step if a.step is not None else F.IntLit(1)
    step_b = b.step if b.step is not None else F.IntLit(1)
    return (exprs_equal(a.start, b.start, params)
            and exprs_equal(a.end, b.end, params)
            and exprs_equal(step_a, step_b, params))


def fuse(a: F.DoLoop, b: F.DoLoop) -> F.DoLoop:
    """Fuse ``b`` into ``a`` (headers must match; returns the fused loop)."""
    body_b = [s.clone() for s in b.body]
    if b.var != a.var:
        rename_in_stmts(body_b, {b.var: a.var})
    return F.DoLoop(var=a.var, start=a.start, end=a.end, step=a.step,
                    body=list(a.body) + body_b, line=a.line)


def try_fuse(a: F.DoLoop, b: F.DoLoop,
             params: Mapping[str, int] | None = None,
             ignore: frozenset[str] | set[str] = frozenset()
             ) -> Optional[NestRecord]:
    """The analysis record of ``fuse(a, b)`` when ``a`` and ``b``
    (adjacent) can legally be fused, else None.

    Legal when the headers match and, in the fused loop, no dependence
    from a ``b``-statement to an ``a``-statement is carried (backward
    across the fusion seam) and no loop-independent dependence from ``b``
    to ``a`` exists.
    """
    if not same_header(a, b, params):
        return None
    merged = NestRecord(fuse(a, b), params=params)
    seam = len(a.body)
    for d in merged.graph.deps:
        if d.variable in ignore:
            continue  # replicated loop-invariant scalars: benign by design
        src_in_a = merged.top_index(d.source.stmt) < seam
        sink_in_a = merged.top_index(d.sink.stmt) < seam
        if src_in_a == sink_in_a:
            continue  # within one original loop: unchanged by fusion
        if not src_in_a and sink_in_a:
            # dependence b → a: fusion would reverse it
            return None
        # a → b dependence: legal unless it becomes backward-carried,
        # i.e. some direction vector has '>' in the fused loop position
        if any(dv and dv[0] == ">" for dv in d.directions):
            return None
    return merged


def fusion_legal(a: F.DoLoop, b: F.DoLoop,
                 params: Mapping[str, int] | None = None,
                 ignore: frozenset[str] | set[str] = frozenset()) -> bool:
    """Can ``a`` and ``b`` (adjacent, same header) be fused?"""
    return try_fuse(a, b, params, ignore) is not None


def fuse_everywhere(stmts: list[F.Stmt],
                    params: Mapping[str, int] | None = None,
                    replicate_between: bool = True,
                    sink=NULL_SINK, unit: str = "") -> int:
    """Apply :func:`fuse_adjacent_in` to this list and every nested body."""
    count = fuse_adjacent_in(stmts, params, replicate_between, sink, unit)
    for s in stmts:
        if isinstance(s, F.DoLoop):
            count += fuse_everywhere(s.body, params, replicate_between,
                                     sink, unit)
        elif isinstance(s, F.IfBlock):
            for _, body in s.arms:
                count += fuse_everywhere(body, params, replicate_between,
                                         sink, unit)
    return count


def fuse_adjacent_in(stmts: list[F.Stmt],
                     params: Mapping[str, int] | None = None,
                     replicate_between: bool = True,
                     sink=NULL_SINK, unit: str = "") -> int:
    """Fuse runs of adjacent fusable loops in a statement list (in place).

    With ``replicate_between``, loop-invariant straight-line code between
    two fusable loops is *replicated into* the fused loop body when it
    neither reads anything the first loop writes nor writes anything
    either loop touches — the paper's FLO52 replication trick (the code
    then executes redundantly on every cluster).  Returns the number of
    fusions performed.
    """
    fused = 0
    i = 0
    #: record of a loop this pass has already analysed (the previous
    #: candidate's second loop, or the loop it just built by fusing)
    known: Optional[NestRecord] = None
    while i < len(stmts):
        a = stmts[i]
        if not isinstance(a, F.DoLoop):
            i += 1
            continue
        j = i + 1
        between: list[F.Stmt] = []
        while j < len(stmts):
            s = stmts[j]
            if isinstance(s, F.DoLoop):
                break
            if replicate_between and isinstance(s, F.Assign) \
                    and isinstance(s.target, F.Var):
                between.append(s)
                j += 1
                continue
            break
        if j >= len(stmts) or not isinstance(stmts[j], F.DoLoop):
            i += 1
            continue
        rec_a = known if known is not None and known.loop is a \
            else NestRecord(a, params=params)
        known = rec_b = NestRecord(stmts[j], params=params)
        b = rec_b.loop
        if between and not _replicable(between, rec_a, rec_b):
            i += 1
            continue
        probe_a = a
        replicated: set[str] = set()
        if between:
            probe_a = F.DoLoop(var=a.var, start=a.start, end=a.end,
                               step=a.step, body=list(a.body) + [
                                   s.clone() for s in between],
                               line=a.line)
            replicated = {s.target.name for s in between
                          if isinstance(s.target, F.Var)}
        merged = try_fuse(probe_a, b, params, ignore=replicated)
        if merged is None:
            i += 1
            continue
        # profitability: never fuse a parallelizable loop into a serial
        # one — the merged loop would inherit the serialization (QCD's
        # RNG loop must not swallow the measurement loop)
        if (_parallelish(rec_a) or _parallelish(rec_b)) \
                and not _parallelish(merged):
            sink.emit(DecisionEvent(
                kind="pass", unit=unit, technique="fusion", action="declined",
                loop=f"do {a.var}", line=a.line,
                reason=f"fusing do {b.var} @ line {b.line} would serialize "
                       f"a parallelizable loop"))
            i += 1
            continue
        why = f"fused with do {b.var} @ line {b.line}"
        if between:
            why += (f", replicating {len(between)} loop-invariant "
                    f"statement(s) between them")
        sink.emit(DecisionEvent(
            kind="pass", unit=unit, technique="fusion", action="applied",
            loop=f"do {a.var}", line=a.line, reason=why))
        stmts[i:j + 1] = [merged.loop]
        known = merged
        fused += 1
        # stay at i: the merged loop may fuse with the next one too
    return fused


def _parallelish(nest: NestRecord) -> bool:
    """Cheap parallelizability probe: carried deps modulo privatizable
    scalars/arrays and recognized reductions."""
    ignore = {p.name for p in find_privatizable(nest, arrays=True)
              if p.privatizable}
    ignore |= {r.var for r in find_reductions(nest)}
    return nest.graph.is_parallel(0, ignore)


def _replicable(between: list[F.Stmt], a: NestRecord, b: NestRecord) -> bool:
    """Safe to replicate ``between`` into every iteration?

    The statements must be scalar assignments whose targets are not read
    or written by either loop body (they become redundant recomputation),
    and whose RHS reads nothing the first loop writes.
    """
    a_read = {r.name for r in a.refs if not r.is_write}
    produced: set[str] = set()
    for s in between:
        assert isinstance(s.target, F.Var)
        t = s.target.name
        if t in a.written | b.written | a_read:
            return False
        for n in s.value.walk():
            name = None
            if isinstance(n, (F.Var, F.ArrayRef, F.Apply, F.FuncCall)):
                name = n.name
            if name is not None and name in (a.written - produced):
                return False
        produced.add(t)
    # targets may be read by the second loop — that is the point — but the
    # values must then be iteration-invariant: require RHS free of both
    # loop indices
    for s in between:
        for n in s.value.walk():
            if isinstance(n, F.Var) and n.name in (a.loop.var, b.loop.var):
                return False
    return True
