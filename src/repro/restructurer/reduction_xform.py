"""Reduction transformation (paper §3.3, §4.1.3).

A recognized reduction in a parallel loop becomes:

- a loop-local partial accumulator, initialized in the loop *preamble*
  (once per joining processor);
- the original accumulation statements, redirected to the partial;
- a *postamble* that folds the partial into the shared accumulator inside
  an unordered critical section (lock/unlock) — the two-step
  cluster/cross-cluster combining of the Cedar library is modelled by the
  machine layer's cost for this postamble.

Array reductions get a private copy of the whole array, vector-initialized
and vector-combined.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reductions import Reduction
from repro.cedar.nodes import LockStmt, UnlockStmt
from repro.errors import TransformError
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable, type_of
from repro.restructurer.names import NamePool
from repro.restructurer.rename import rename_in_stmts
from repro.trace.events import NULL_SINK, DecisionEvent

#: neutral element literal per op and type class
def _neutral(op: str, ftype: str) -> F.Expr:
    real = ftype in ("real", "doubleprecision")
    if op == "+":
        return F.RealLit(0.0, double=(ftype == "doubleprecision")) if real \
            else F.IntLit(0)
    if op == "*":
        return F.RealLit(1.0) if real else F.IntLit(1)
    if op == "min":
        return F.RealLit(1e30) if real else F.IntLit(2**31 - 1)
    if op == "max":
        return F.RealLit(-1e30) if real else F.IntLit(-(2**31 - 1))
    raise TransformError(f"no neutral element for op {op!r}")


def _combine(op: str, target: F.Expr, partial: F.Expr) -> F.Expr:
    if op in ("+", "*"):
        return F.BinOp(op, target, partial)
    return F.FuncCall(op, [target, partial], intrinsic=True)


@dataclass
class ReductionOutcome:
    """Code pieces produced for the reductions of one loop."""

    locals_: list[F.Stmt] = field(default_factory=list)
    preamble: list[F.Stmt] = field(default_factory=list)
    postamble: list[F.Stmt] = field(default_factory=list)
    renames: dict[str, str] = field(default_factory=dict)
    transformed: list[str] = field(default_factory=list)


def transform_reductions(loop: F.DoLoop, reductions: list[Reduction],
                         pool: NamePool,
                         symtab: SymbolTable | None = None,
                         sink=NULL_SINK,
                         unit: str = "") -> ReductionOutcome:
    """Build preamble/postamble code for ``reductions`` and redirect the
    accumulation statements in ``loop.body`` (mutated in place)."""
    out = ReductionOutcome()
    for red in reductions:
        sink.emit(DecisionEvent(
            kind="pass", unit=unit, technique="reduction", action="applied",
            loop=f"do {loop.var}", line=loop.line,
            reason=f"{red.var}: {red.kind} {red.op}-reduction split into "
                   f"per-processor partials"))
        sym = symtab.lookup(red.var) if symtab else None
        ftype = type_of(symtab, red.var)
        partial = pool.fresh(red.var + "_p")
        out.renames[red.var] = partial
        out.transformed.append(red.var)

        if red.kind == "scalar":
            out.locals_.append(F.TypeDecl(type=F.TypeSpec(ftype),
                                          entities=[F.EntityDecl(partial)]))
            out.preamble.append(
                F.Assign(target=F.Var(partial),
                         value=_neutral(red.op, ftype)))
            out.postamble.extend([
                LockStmt(name="redlck"),
                F.Assign(target=F.Var(red.var),
                         value=_combine(red.op, F.Var(red.var),
                                        F.Var(partial))),
                UnlockStmt(name="redlck"),
            ])
        else:  # array
            if sym is None or not sym.is_array:
                raise TransformError(
                    f"array reduction on undeclared array {red.var!r}")
            dims = [F.DimSpec(b.lower.clone() if b.lower else None,
                              b.upper.clone() if b.upper else None)
                    for b in sym.dims]
            if any(d.upper is None for d in dims):
                raise TransformError(
                    f"cannot size private copy of assumed-size {red.var!r}")
            out.locals_.append(F.TypeDecl(type=F.TypeSpec(ftype),
                                          entities=[F.EntityDecl(partial, dims)]))
            full = [F.RangeExpr(d.lower.clone() if d.lower else F.IntLit(1),
                                d.upper.clone(), None) for d in dims]
            out.preamble.append(
                F.Assign(target=F.ArrayRef(partial, [s.clone() for s in full]),
                         value=_neutral(red.op, ftype)))
            out.postamble.extend([
                LockStmt(name="redlck"),
                F.Assign(
                    target=F.ArrayRef(red.var, [s.clone() for s in full]),
                    value=_combine(
                        red.op,
                        F.ArrayRef(red.var, [s.clone() for s in full]),
                        F.ArrayRef(partial, [s.clone() for s in full]))),
                UnlockStmt(name="redlck"),
            ])

        # redirect accumulation statements to the partial
        for s in red.stmts:
            rename_in_stmts([s], {red.var: partial})
    return out
