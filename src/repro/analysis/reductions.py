"""Reduction recognition (paper §3.3 and §4.1.3).

Recognized forms, for a candidate loop:

- scalar accumulation ``s = s + e`` / ``s = s - e`` / ``s = s * e`` with
  ``e`` free of ``s``;
- min/max via intrinsic, ``s = min(s, e)`` / ``s = max(s, e)``;
- min/max via IF, ``if (e .lt. s) s = e`` (and the ``.gt.`` dual);
- **array-element accumulation** ``a(idx) = a(idx) + e`` with identical
  (affine-equal) index expressions on both sides — the §4.1.3 pattern the
  1991 KAP missed;
- **multiple accumulation statements** updating the same variable with the
  same operator class are merged into one reduction.

A variable qualifies only if *all* its references in the loop body belong
to its accumulation statements (otherwise intermediate values are
observable and reordering would change semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.expr import exprs_equal
from repro.analysis.nest import NestRecord
from repro.analysis.refs import subscripts_of
from repro.fortran import ast_nodes as F

#: operator → neutral element (used by the transformation pass)
NEUTRAL = {"+": 0.0, "*": 1.0, "min": float("inf"), "max": float("-inf")}


@dataclass
class Reduction:
    """One recognized reduction in a loop."""

    var: str
    op: str                         # '+', '*', 'min', 'max'
    kind: str                       # 'scalar' | 'array'
    stmts: list[F.Stmt] = field(default_factory=list)
    index: Optional[F.Expr] = None  # accumulator subscript for array kind

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Reduction {self.var} {self.op} {self.kind} x{len(self.stmts)}>"


def _expr_mentions(e: F.Expr, name: str) -> bool:
    for n in e.walk():
        if isinstance(n, (F.Var,)) and n.name == name:
            return True
        if isinstance(n, (F.ArrayRef, F.Apply, F.FuncCall)) and n.name == name:
            return True
    return False


def _additive_terms(e: F.Expr, sign: int = 1) -> list[tuple[F.Expr, int]]:
    """Flatten an additive chain into (term, ±1) pairs."""
    if isinstance(e, F.BinOp) and e.op == "+":
        return _additive_terms(e.left, sign) + _additive_terms(e.right, sign)
    if isinstance(e, F.BinOp) and e.op == "-":
        return _additive_terms(e.left, sign) + _additive_terms(e.right, -sign)
    if isinstance(e, F.UnOp) and e.op == "-":
        return _additive_terms(e.operand, -sign)
    return [(e, sign)]


def _match_accumulation(stmt: F.Stmt) -> Optional[tuple[str, str, Optional[list[F.Expr]], F.Expr]]:
    """Match one accumulation statement.

    Returns (var, op, subscripts-or-None, contributed expr) or None.
    """
    # IF-guarded min/max:  if (e .lt. s) s = e
    if isinstance(stmt, F.LogicalIf):
        inner = stmt.stmt
        if isinstance(inner, F.Assign) and isinstance(inner.target, F.Var) \
                and isinstance(stmt.cond, F.BinOp) \
                and stmt.cond.op in (".lt.", ".le.", ".gt.", ".ge."):
            v = inner.target.name
            e = inner.value
            c = stmt.cond
            # forms: if (e REL s) s = e
            def matches(lhs, rhs):
                return exprs_equal(lhs, e) and isinstance(rhs, F.Var) \
                    and rhs.name == v
            if matches(c.left, c.right):
                op = "min" if c.op in (".lt.", ".le.") else "max"
                if not _expr_mentions(e, v):
                    return (v, op, None, e)
            if matches(c.right, c.left):
                op = "max" if c.op in (".lt.", ".le.") else "min"
                if not _expr_mentions(e, v):
                    return (v, op, None, e)
        return None

    if not isinstance(stmt, F.Assign):
        return None
    t = stmt.target
    e = stmt.value

    if isinstance(t, F.Var):
        v = t.name
        subs = None
    else:
        subs = subscripts_of(t)
        if subs is None:
            return None
        v = t.name

    def self_ref(x: F.Expr) -> bool:
        if subs is None:
            return isinstance(x, F.Var) and x.name == v
        got = subscripts_of(x)
        if got is None or x.name != v:
            return False
        return len(got) == len(subs) and all(
            exprs_equal(a, b) for a, b in zip(got, subs))

    # s = s + e1 + e2 ... (any additive chain containing s exactly once)
    if isinstance(e, F.BinOp) and e.op in ("+", "-"):
        terms = _additive_terms(e)
        selfs = [(i, t) for i, (t, sign) in enumerate(terms) if self_ref(t)]
        if len(selfs) == 1 and terms[selfs[0][0]][1] == 1:
            others = [(t, sign) for i, (t, sign) in enumerate(terms)
                      if i != selfs[0][0]]
            if others and not any(_expr_mentions(t, v) for t, _ in others):
                contrib: F.Expr | None = None
                for t, sign in others:
                    t = t if sign == 1 else F.UnOp("-", t)
                    contrib = t if contrib is None else F.BinOp("+", contrib, t)
                return (v, "+", subs, contrib)
    # s = s * e | s = e * s
    if isinstance(e, F.BinOp) and e.op == "*":
        if self_ref(e.left) and not _expr_mentions(e.right, v):
            return (v, e.op, subs, e.right)
        if self_ref(e.right) and not _expr_mentions(e.left, v):
            return (v, e.op, subs, e.left)
    # s = min(s, e) / max(s, e)
    if isinstance(e, (F.FuncCall, F.Apply)) and e.name in (
            "min", "max", "amin1", "amax1", "min0", "max0", "dmin1", "dmax1"):
        if len(e.args) == 2:
            a, b = e.args
            op = "min" if e.name.startswith(("min", "amin", "dmin")) else "max"
            if self_ref(a) and not _expr_mentions(b, v):
                return (v, op, subs, b)
            if self_ref(b) and not _expr_mentions(a, v):
                return (v, op, subs, a)
    return None


def find_reductions(loop: "F.DoLoop | NestRecord") -> list[Reduction]:
    """Recognize reductions in ``loop`` (accumulations anywhere in the nest)."""
    nest = NestRecord.of(loop)
    candidates: dict[str, list[tuple[F.Stmt, str, Optional[list[F.Expr]], F.Expr]]] = {}
    for s in nest.stmts:
        if not isinstance(s, (F.Assign, F.LogicalIf)):
            continue
        m = _match_accumulation(s)
        if m is not None:
            v, op, subs, contrib = m
            candidates.setdefault(v, []).append((s, op, subs, contrib))

    out: list[Reduction] = []
    for v, accs in candidates.items():
        ops = {op for _, op, _, _ in accs}
        if len(ops) != 1:
            continue  # mixed operators: cannot reorder safely
        op = ops.pop()
        stmts = [s for s, _, _, _ in accs]
        stmt_ids = {id(s) for s in stmts}
        # inner statements of LogicalIf accumulators also count
        for s in stmts:
            if isinstance(s, F.LogicalIf):
                stmt_ids.add(id(s.stmt))
        # every ref to v must belong to an accumulation statement
        if any(id(r.stmt) not in stmt_ids or r.in_call
               for r in nest.by_name.get(v, [])):
            continue
        is_array = any(subs is not None for _, _, subs, _ in accs)
        if is_array and not all(subs is not None for _, _, subs, _ in accs):
            continue
        if is_array:
            out.append(Reduction(v, op, "array", stmts,
                                 index=accs[0][2][0] if len(accs[0][2]) == 1
                                 else None))
        else:
            out.append(Reduction(v, op, "scalar", stmts))
    return out
