"""Privatization transformation (paper §3.2, §4.1.2).

Given a loop chosen to run parallel and the analysis verdicts, this pass
builds the loop-local declarations that make each processor own a private
copy of the privatized scalars and arrays, and emits last-value
assignments after the loop for variables that are live-out.

Private data lands in cluster memory on Cedar — that placement (and the
Figure 7 speed difference against globally-expanded storage) is modelled
by the machine layer; here we only produce the Cedar Fortran form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.nest import NestRecord
from repro.analysis.privatization import PrivatizationResult
from repro.errors import TransformError
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable, type_of
from repro.restructurer.rename import substitute_reads
from repro.trace.events import NULL_SINK, DecisionEvent


@dataclass
class PrivatizeOutcome:
    """Declarations and follow-up statements produced by privatization."""

    locals_: list[F.Stmt] = field(default_factory=list)
    after_loop: list[F.Stmt] = field(default_factory=list)
    privatized: list[str] = field(default_factory=list)
    declined: list[str] = field(default_factory=list)


def _decl_for(name: str, symtab: SymbolTable | None) -> F.TypeDecl:
    sym = symtab.lookup(name) if symtab else None
    if sym is not None and sym.is_array:
        dims = [F.DimSpec(b.lower.clone() if b.lower else None,
                          b.upper.clone() if b.upper else None)
                for b in sym.dims]
        ent = F.EntityDecl(name, dims)
        base = sym.type
    else:
        ent = F.EntityDecl(name)
        base = type_of(symtab, name)
    return F.TypeDecl(type=F.TypeSpec(base), entities=[ent])


def last_value_assign(loop: "F.DoLoop | NestRecord",
                      name: str) -> F.Stmt | None:
    """Synthesize the post-loop last-value assignment for a scalar.

    Supported when the scalar has exactly one unconditional top-level
    definition ``name = rhs`` whose RHS only uses the loop index and
    loop-invariant values: the last value is ``rhs[i → end]``.
    """
    nest = NestRecord.of(loop)
    loop = nest.loop
    all_defs = [s for s in nest.stmts
                if isinstance(s, F.Assign) and isinstance(s.target, F.Var)
                and s.target.name == name]
    if len(all_defs) != 1 or not any(s is all_defs[0] for s in loop.body):
        return None  # conditional, nested or ambiguous definition
    rhs = all_defs[0].value.clone()
    written = nest.written - {name, loop.var}
    for n in rhs.walk():
        if isinstance(n, F.Var) and n.name in written:
            return None
    holder = F.Assign(target=F.Var(name), value=rhs)
    substitute_reads([holder], loop.var, loop.end.clone())
    return holder


def privatize_for_loop(loop: F.DoLoop,
                       results: list[PrivatizationResult],
                       symtab: SymbolTable | None = None,
                       allow_arrays: bool = True,
                       sink=NULL_SINK, unit: str = "") -> PrivatizeOutcome:
    """Turn analysis verdicts into loop-local declarations.

    Variables needing a last value get one synthesized when possible;
    otherwise they are declined (stay shared — the loop then may not be
    parallelizable on their account, which the planner rechecks).
    Each take-or-decline decision is emitted to ``sink``.
    """
    def emit(action: str, name: str, reason: str) -> None:
        sink.emit(DecisionEvent(
            kind="pass", unit=unit, technique="privatize", action=action,
            loop=f"do {loop.var}", line=loop.line,
            reason=f"{name}: {reason}" if reason else name))

    out = PrivatizeOutcome()
    for r in results:
        if not r.privatizable:
            continue
        if r.is_array and not allow_arrays:
            out.declined.append(r.name)
            emit("declined", r.name, "array privatization disabled")
            continue
        if r.needs_last_value:
            if r.is_array:
                out.declined.append(r.name)
                emit("declined", r.name,
                     "live-out array needs a last-value copy")
                continue
            lv = last_value_assign(loop, r.name)
            if lv is None:
                out.declined.append(r.name)
                emit("declined", r.name,
                     "no synthesizable last-value assignment")
                continue
            out.after_loop.append(lv)
            emit("applied", r.name, "privatized with last-value copy-out")
        else:
            emit("applied", r.name,
                 "array made loop-private" if r.is_array
                 else "scalar made loop-private")
        out.locals_.append(_decl_for(r.name, symtab))
        out.privatized.append(r.name)
    return out
