"""Induction variable recognition, including generalized IVs (paper §4.1.4).

Three kinds are recognized for a loop nest:

- **basic**: ``v = v + k`` with ``k`` loop-invariant — an arithmetic
  progression; closed form ``v0 + k * (trip index)``.
- **geometric** (GIV type 1): ``v = v * k`` — a geometric progression;
  closed form ``v0 * k ** (trip index)``.  Strictly monotonic when
  ``v0 > 0 and k > 1``.
- **polynomial** (GIV type 2): ``v = v + k`` sitting in an inner loop of a
  *triangular* nest (inner bound depends on the outer index); the values
  form no arithmetic progression in the outer index, but a closed form in
  all the loop indices exists (e.g. ``k0 + (i-1)*i/2 + j`` for
  ``do i / do j = 1, i``).

The paper's point (OCEAN, TRFD) is that replacing GIV uses with closed
forms — or simply knowing that the GIV is strictly monotonic, hence array
writes through it never collide — removes the dependence cycle and lets
the loop run parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from collections import Counter

from repro.analysis.expr import LinearExpr, const_value, linearize, simplify
from repro.analysis.nest import NestRecord
from repro.fortran import ast_nodes as F


@dataclass
class InductionVar:
    """One recognized induction variable in a loop."""

    name: str
    kind: str                 # 'basic' | 'geometric' | 'polynomial'
    step: F.Expr              # increment (basic/polynomial) or factor
    update: F.Assign          # the update statement
    closed_form: Optional[F.Expr] = None  # value *after* the update, in loop indices
    strictly_monotonic: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IV {self.name} {self.kind} monotonic={self.strictly_monotonic}>"


def _is_var(e: F.Expr, name: str) -> bool:
    return isinstance(e, F.Var) and e.name == name


def _match_update(stmt: F.Stmt) -> Optional[tuple[str, str, F.Expr]]:
    """Match ``v = v + k`` / ``v = k + v`` / ``v = v * k`` / ``v = k * v``.

    Returns (name, op, step) or None.
    """
    if not isinstance(stmt, F.Assign) or not isinstance(stmt.target, F.Var):
        return None
    v = stmt.target.name
    e = stmt.value
    if isinstance(e, F.BinOp) and e.op in ("+", "*"):
        if _is_var(e.left, v):
            return (v, e.op, e.right)
        if _is_var(e.right, v):
            return (v, e.op, e.left)
    if isinstance(e, F.BinOp) and e.op == "-" and _is_var(e.left, v):
        return (v, "+", F.UnOp("-", e.right))
    return None


def _invariant(e: F.Expr, loop_vars: set[str], written: set[str]) -> bool:
    """Loop-invariant: mentions no loop index and nothing written in the nest."""
    for n in e.walk():
        if isinstance(n, F.Var) and (n.name in loop_vars or n.name in written):
            return False
        if isinstance(n, (F.FuncCall, F.Apply, F.ArrayRef)):
            return False
    return True


def _write_counts(stmts: list[F.Stmt]) -> Counter:
    """How many statements write each scalar (conservative for calls)."""
    count: Counter = Counter()
    for s in stmts:
        if isinstance(s, F.Assign) and isinstance(s.target, F.Var):
            count[s.target.name] += 1
        elif isinstance(s, F.DoLoop):
            count[s.var] += 1
        elif isinstance(s, (F.CallStmt, F.ReadStmt)):
            for a in (s.args if isinstance(s, F.CallStmt) else s.items):
                if isinstance(a, F.Var):
                    count[a.name] += 1
    return count


def _is_unconditional_in(stmts: list[F.Stmt], target: F.Stmt,
                         inner_loop_path: list[F.DoLoop]) -> bool:
    """True if ``target`` executes exactly once per innermost-loop iteration.

    ``inner_loop_path`` collects DO loops between the analyzed loop body and
    the statement (the statement may live in nested loops — that is the
    triangular GIV case)."""
    for s in stmts:
        if s is target:
            return True
        if isinstance(s, F.DoLoop):
            if _is_unconditional_in(s.body, target, inner_loop_path):
                inner_loop_path.insert(0, s)
                return True
        elif isinstance(s, F.IfBlock):
            for _, body in s.arms:
                if _find(body, target):
                    return False  # conditional update: not a clean IV
        elif isinstance(s, F.LogicalIf):
            if s.stmt is target:
                return False
    return False


def _find(stmts: list[F.Stmt], target: F.Stmt) -> bool:
    for s in F.stmts_walk(stmts):
        if s is target:
            return True
    return False


def find_induction_variables(loop: "F.DoLoop | NestRecord",
                             params: dict[str, int] | None = None
                             ) -> list[InductionVar]:
    """Find induction variables of ``loop`` (updates anywhere in its nest).

    Recognized updates must be the *only* write of the variable in the
    nest and must execute unconditionally.
    """
    nest = NestRecord.of(loop)
    loop = nest.loop
    loop_vars = {loop.var} | nest.inner_vars
    writes = _write_counts(nest.stmts)

    out: list[InductionVar] = []
    for s in nest.stmts:
        m = _match_update(s) if isinstance(s, F.Assign) else None
        if m is None:
            continue
        name, op, step = m
        if name in loop_vars:
            continue
        if writes[name] != 1:
            continue
        if not _invariant(step, loop_vars, nest.written - {name}):
            continue
        path: list[F.DoLoop] = []
        if not _is_unconditional_in(loop.body, s, path):
            continue
        iv = _classify(loop, name, op, step, s, path, params or {})
        if iv is not None:
            out.append(iv)
    return out


def _classify(loop: F.DoLoop, name: str, op: str, step: F.Expr,
              update: F.Assign, inner_path: list[F.DoLoop],
              params: dict[str, int]) -> Optional[InductionVar]:
    step_val = const_value(step)
    if op == "*":
        # Geometric GIV.  Monotonicity would additionally require v0 > 0,
        # which is not visible locally, so it stays False.
        closed = _geometric_closed_form(loop, name, step, inner_path)
        return InductionVar(name, "geometric", step, update,
                            closed_form=closed, strictly_monotonic=False)
    # additive
    if not inner_path:
        # basic IV in the analyzed loop: v_after = v0 + step * (i - lb + 1) / incr
        closed = _basic_closed_form(loop, name, step)
        mono = step_val is not None and step_val != 0
        return InductionVar(name, "basic", step, update,
                            closed_form=closed,
                            strictly_monotonic=bool(mono))
    # additive in nested loops: polynomial (triangular) GIV
    closed = _polynomial_closed_form(loop, inner_path, name, step, params)
    mono = step_val is not None and step_val > 0
    return InductionVar(name, "polynomial", step, update,
                        closed_form=closed, strictly_monotonic=bool(mono))


def _trip_index(loop: F.DoLoop) -> Optional[F.Expr]:
    """(i - lb)/step + 1 as an AST expression; None for non-unit steps."""
    if loop.step is not None and const_value(loop.step) != 1:
        return None
    return simplify(F.BinOp("-", F.Var(loop.var),
                            F.BinOp("-", loop.start, F.IntLit(1))))


def _basic_closed_form(loop: F.DoLoop, name: str, step: F.Expr) -> Optional[F.Expr]:
    t = _trip_index(loop)
    if t is None:
        return None
    # value after the update in iteration i: v0 + step * trip(i)
    return simplify(F.BinOp("+", F.Var(name + "0"),
                            F.BinOp("*", step, t)))


def _geometric_closed_form(loop: F.DoLoop, name: str, step: F.Expr,
                           inner_path: list[F.DoLoop]) -> Optional[F.Expr]:
    if inner_path:
        return None
    t = _trip_index(loop)
    if t is None:
        return None
    return F.BinOp("*", F.Var(name + "0"), F.BinOp("**", step, t))


def _polynomial_closed_form(outer: F.DoLoop, inner_path: list[F.DoLoop],
                            name: str, step: F.Expr,
                            params: dict[str, int]) -> Optional[F.Expr]:
    """Closed form for ``v = v + step`` in a triangular 2-deep nest.

    Handles ``do i = 1, n`` / ``do j = 1, a*i + b``: after the update in
    iteration (i, j)::

        v = v0 + step * ( Σ_{i'=1}^{i-1} (a*i' + b) + j )
          = v0 + step * ( a*(i-1)*i/2 + b*(i-1) + j )

    Rectangular inner bounds fall out as the a = 0 case.
    """
    if len(inner_path) != 1:
        return None
    inner = inner_path[0]
    if const_value(outer.start) != 1 or const_value(inner.start) != 1:
        return None
    if outer.step is not None and const_value(outer.step) != 1:
        return None
    if inner.step is not None and const_value(inner.step) != 1:
        return None
    ub = linearize(inner.end, params)
    if ub is None:
        return None
    a = ub.coeff(outer.var)
    # symbolic remainder: the inner bound minus its a*i term
    rest = ub - LinearExpr.variable(outer.var, a)
    if rest.depends_on({outer.var, inner.var}):
        return None
    i = F.Var(outer.var)
    j = F.Var(inner.var)
    im1 = F.BinOp("-", i, F.IntLit(1))
    tri = F.BinOp("/", F.BinOp("*", im1, i), F.IntLit(2))
    total = F.BinOp("+", F.BinOp("*", F.IntLit(a), tri)
                    if a != 1 else tri,
                    F.BinOp("*", rest.to_ast(), im1))
    if a == 0:
        total = F.BinOp("*", rest.to_ast(), im1)
    total = F.BinOp("+", total, j)
    return simplify(F.BinOp("+", F.Var(name + "0"),
                            F.BinOp("*", step, total)))
