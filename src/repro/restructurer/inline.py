"""Inline subroutine expansion (paper §3.2).

Replaces a CALL with the callee's body: dummy arguments are renamed to the
actual arguments (whole variables/arrays only; expression actuals go
through compiler temporaries), callee locals get fresh names, and the
callee's declarations are merged into the caller.

The paper notes inlining *fails* on deeply nested call chains (memory) and
on array reshaping across the boundary; we mirror both limits — a depth
cap and a same-rank requirement — so the automatic pipeline degrades the
same way KAP did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import TransformError
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable, build_symbol_table
from repro.restructurer.names import NamePool
from repro.restructurer.rename import rename_in_stmts
from repro.trace.events import NULL_SINK, DecisionEvent


@dataclass
class InlineResult:
    """Summary of one inlining session over a unit."""

    expanded: int = 0
    failed: list[tuple[str, str]] = field(default_factory=list)  # (name, why)


def _rank_of(st: SymbolTable, name: str) -> int:
    sym = st.lookup(name)
    return sym.rank if sym is not None else 0


def inline_calls(unit: F.ProgramUnit, sf: F.SourceFile,
                 max_depth: int = 3, max_stmts: int = 400,
                 _depth: int = 0, sink=NULL_SINK) -> InlineResult:
    """Expand every call in ``unit`` to a routine defined in ``sf``.

    Recursive chains stop at ``max_depth``; units larger than
    ``max_stmts`` statements refuse further expansion (the paper's
    out-of-memory analogue).
    """
    result = InlineResult()
    callees = {u.name: u for u in sf.units if isinstance(u, F.Subroutine)}
    caller_st = build_symbol_table(unit)
    pool = NamePool(unit)
    #: nesting depth of each CALL spliced in from an expanded body
    spliced_depth: dict[int, int] = {}

    def fail(s: F.CallStmt, why: str) -> None:
        result.failed.append((s.name, why))
        sink.emit(DecisionEvent(
            kind="pass", unit=unit.name, technique="inline", action="failed",
            loop=f"call {s.name}", line=s.line, reason=why))

    def expand_in(stmts: list[F.Stmt]) -> None:
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, F.CallStmt) and s.name in callees:
                level = spliced_depth.get(id(s), 0)
                if _depth + level >= max_depth:
                    fail(s, "max inline depth")
                    i += 1
                    continue
                if _count_stmts(unit.body) > max_stmts:
                    fail(s, "unit too large")
                    i += 1
                    continue
                try:
                    replacement = _expand_one(s, callees[s.name],
                                              unit, caller_st, pool, sf,
                                              _depth)
                except TransformError as exc:
                    fail(s, str(exc))
                    i += 1
                    continue
                stmts[i:i + 1] = replacement
                for n in F.stmts_walk(replacement):
                    if isinstance(n, F.CallStmt):
                        spliced_depth[id(n)] = level + 1
                result.expanded += 1
                sink.emit(DecisionEvent(
                    kind="pass", unit=unit.name, technique="inline",
                    action="applied", loop=f"call {s.name}", line=s.line,
                    reason=f"expanded body of {s.name} into {unit.name}"))
                continue  # re-examine spliced statements (nested calls)
            if isinstance(s, F.DoLoop):
                expand_in(s.body)
            elif isinstance(s, F.IfBlock):
                for _, body in s.arms:
                    expand_in(body)
            i += 1

    expand_in(unit.body)
    return result


def _count_stmts(stmts: list[F.Stmt]) -> int:
    return sum(1 for _ in F.stmts_walk(stmts))


def _expand_one(call: F.CallStmt, callee: F.Subroutine,
                caller: F.ProgramUnit, caller_st: SymbolTable,
                pool: NamePool, sf: F.SourceFile, depth: int) -> list[F.Stmt]:
    if len(call.args) != len(callee.args):
        raise TransformError("argument count mismatch")
    callee = callee.clone()
    callee_st = build_symbol_table(callee)

    pre: list[F.Stmt] = []
    mapping: dict[str, str] = {}

    for dummy, actual in zip(callee.args, call.args):
        d_sym = callee_st.lookup(dummy)
        d_rank = d_sym.rank if d_sym else 0
        if isinstance(actual, F.Var):
            a_rank = _rank_of(caller_st, actual.name)
            if d_rank != a_rank:
                raise TransformError(
                    f"array reshape across boundary for {dummy!r}")
            mapping[dummy] = actual.name
        elif isinstance(actual, (F.ArrayRef, F.Apply)) and d_rank == 0:
            # scalar dummy bound to an array element: copy in/out via temp
            tmp = pool.fresh(dummy)
            pre.append(F.Assign(target=F.Var(tmp), value=actual.clone()))
            mapping[dummy] = tmp
        elif d_rank == 0:
            # expression actual: read-only temp
            tmp = pool.fresh(dummy)
            pre.append(F.Assign(target=F.Var(tmp), value=actual.clone()))
            mapping[dummy] = tmp
        else:
            raise TransformError(
                f"cannot bind array dummy {dummy!r} to an expression")

    # fresh names for callee locals (everything that is not a dummy)
    for sym in callee_st.symbols.values():
        if sym.is_dummy or sym.is_function or sym.name in mapping:
            continue
        if sym.common_block is not None:
            continue  # COMMON names refer to the same storage
        mapping[sym.name] = pool.fresh(sym.name)

    body = [s.clone() for s in callee.body]
    rename_in_stmts(body, mapping)
    body = [s for s in body if not isinstance(s, F.ReturnStmt)]
    if any(isinstance(n, (F.Goto, F.ComputedGoto)) for s in body
           for n in s.walk()):
        # labels would clash with the caller's: decline (KAP did similar)
        raise TransformError("callee contains GOTO")

    # merge renamed declarations of callee *locals* into the caller
    # (dummies are bound to caller storage, which is already declared)
    dummies = set(callee.args)
    for spec in callee.specs:
        if isinstance(spec, (F.TypeDecl, F.DimensionStmt)):
            spec = spec.clone()
            kept = []
            for ent in spec.entities:
                if ent.name in dummies:
                    continue
                new_name = mapping.get(ent.name)
                if new_name is None:
                    continue
                ent.name = new_name
                for d in ent.dims:
                    holder = [F.Assign(target=F.Var("__h__"),
                                       value=d.upper.clone())] \
                        if d.upper is not None else []
                    if holder:
                        rename_in_stmts(holder, mapping)
                        d.upper = holder[0].value
                kept.append(ent)
            if kept:
                spec.entities = kept
                caller.specs.append(spec)
        elif isinstance(spec, F.CommonStmt):
            # replicate the COMMON declaration if absent in the caller
            blocks = {s.block for s in caller.specs
                      if isinstance(s, F.CommonStmt)}
            if spec.block not in blocks:
                caller.specs.append(spec.clone())

    # dummies copied through temps must be copied back when modified
    post: list[F.Stmt] = []
    from repro.analysis.refs import written_names

    written = written_names(body)
    for dummy, actual in zip(callee.args, call.args):
        if isinstance(actual, (F.ArrayRef, F.Apply)):
            tmp = mapping[dummy]
            if tmp != actual.name and tmp in written:
                post.append(F.Assign(target=actual.clone(),
                                     value=F.Var(tmp)))
    return pre + body + post
