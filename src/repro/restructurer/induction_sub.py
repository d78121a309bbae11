"""Induction variable substitution (paper §4.1.4).

Replaces reads of a recognized induction variable by its closed form in
the loop indices, deletes the recursive update, and emits the final-value
assignment after the loop.  This removes the cross-iteration flow
dependence that otherwise serializes the loop (OCEAN's multiplicative
GIVs, TRFD's triangular GIVs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.expr import simplify
from repro.analysis.induction import InductionVar
from repro.analysis.nest import NestRecord
from repro.fortran import ast_nodes as F
from repro.restructurer.names import NamePool
from repro.restructurer.rename import substitute_reads


@dataclass
class InductionOutcome:
    """Result of substituting the IVs of one loop."""

    before_loop: list[F.Stmt] = field(default_factory=list)
    after_loop: list[F.Stmt] = field(default_factory=list)
    substituted: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)


class _DeleteStmt(F.Transformer):
    def __init__(self, target: F.Stmt):
        self.target = target

    def visit_Assign(self, node: F.Assign):
        if node is self.target:
            return []
        return None


def _final_trip_env(loop: F.DoLoop, ivs_closed: F.Expr,
                    nest_vars: list[tuple[str, F.Expr]]) -> F.Expr:
    """Closed form evaluated at the final iteration of every nest loop.

    Substitution runs innermost-first: a triangular inner bound mentions
    the outer index (``do j = 1, i``), which the outer substitution then
    resolves.
    """
    out = ivs_closed.clone()
    holder = F.Assign(target=F.Var("__h__"), value=out)
    for var, end in reversed(nest_vars):
        substitute_reads([holder], var, end.clone())
    return simplify(holder.value)


def _reads_follow_update(loop: F.DoLoop, iv: InductionVar) -> bool:
    """True if every read of the IV occurs textually after its update
    (pre-order position), so the post-update closed form is correct for
    all of them."""
    for node in F.stmts_walk(loop.body):
        if node is iv.update:
            return True  # everything after it, its own RHS included
        if isinstance(node, F.Var) and node.name == iv.name:
            return False
    return True


def substitute_inductions(loop: "F.DoLoop | NestRecord",
                          ivs: list[InductionVar],
                          pool: NamePool) -> InductionOutcome:
    """Substitute each closed-form IV in ``loop`` (body mutated in place;
    a record handed in is invalidated with every rewrite).

    For each variable ``v``:

    1. ``v0 = v`` is emitted before the loop (captures the entry value);
    2. reads of ``v`` inside the loop become the closed form (which
       references ``v0`` and the loop indices);
    3. the update statement is deleted;
    4. ``v = <closed form at final iteration>`` is emitted after the loop.
    """
    nest = NestRecord.of(loop)
    loop = nest.loop
    out = InductionOutcome()
    for iv in ivs:
        if iv.closed_form is None:
            out.skipped.append(iv.name)
            continue
        if not _reads_follow_update(loop, iv):
            # a read before the update would need the previous-trip closed
            # form; decline rather than substitute incorrectly
            out.skipped.append(iv.name)
            continue
        v0 = pool.fresh(iv.name + "0")
        closed = iv.closed_form.clone()
        holder = F.Assign(target=F.Var("__h__"), value=closed)
        substitute_reads([holder], iv.name + "0", F.Var(v0))
        closed = holder.value

        # nest variables that the closed form mentions, with their ends
        nest_vars: list[tuple[str, F.Expr]] = [(loop.var, loop.end)]
        nest_vars += [(s.var, s.end) for s in nest.inner_loops]

        out.before_loop.append(
            F.Assign(target=F.Var(v0), value=F.Var(iv.name)))

        # delete the update, then substitute the remaining reads
        deleter = _DeleteStmt(iv.update)
        for i, s in enumerate(list(loop.body)):
            res = deleter.visit(s)
            if isinstance(res, list):
                loop.body[i:i + 1] = res
        substitute_reads(loop.body, iv.name, closed)
        nest.invalidate()

        final = _final_trip_env(loop, closed, nest_vars)
        out.after_loop.append(F.Assign(target=F.Var(iv.name), value=final))
        out.substituted.append(iv.name)
    return out
