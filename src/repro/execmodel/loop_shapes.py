"""Restructurer loop shapes the compiled engine's vector text reads
through (:class:`repro.execmodel.source_jit._LoopLowerer`): a DOALL's
private scalar declarations, and the strip-mined DOALL of the
memory-hierarchy pass collapsed back to the elementwise DOALL it was
made from.  Both are AST facts, not emitted text."""

from __future__ import annotations

from typing import Optional

from repro.cedar import nodes as C
from repro.execmodel.interp import NOOP_STMTS
from repro.fortran import ast_nodes as F


def scalar_locals(node: C.ParallelDo) -> Optional[dict]:
    """Name -> declared type of a DOALL's private ``locals_`` when every
    one is a scalar declaration, else None."""
    names: dict = {}
    for d in node.locals_:
        if not isinstance(d, F.TypeDecl):
            return None
        for ent in d.entities:
            if ent.dims:
                return None
            names[ent.name] = d.type.base
    return names


def desugar_stripmine(pdo: F.Stmt) -> Optional[C.ParallelDo]:
    """Collapse the restructurer's canonical strip-mined DOALL back to a
    plain elementwise DOALL.

    The memory-hierarchy pass emits::

        PARALLEL DO v = lo, end, B  (private L, U)
          L = min(B, end - v + 1)
          U = v + L - 1
          x(c + v : c + U) = <elementwise section expression>
          ...

    The per-lane blocks ``[v, U]`` tile ``[lo, end]`` disjointly, and
    every statement is an elementwise section assignment evaluated with
    NumPy ufuncs — so executing each statement once over the whole range
    is bit-identical to executing it block-by-block in any block order.
    Returns the rewritten nest (fresh nodes; the original is untouched
    for the fallback path) or None when the shape doesn't match.
    """
    if not isinstance(pdo, C.ParallelDo) or pdo.order != "doall" \
            or pdo.preamble or pdo.postamble:
        return None
    if not isinstance(pdo.step, F.IntLit) or pdo.step.value < 1:
        return None
    blk = pdo.step.value
    names = set(scalar_locals(pdo) or ())
    if len(names) != 2:
        return None
    v = pdo.var
    body = [s for s in pdo.body if not isinstance(s, NOOP_STMTS)]
    if len(body) < 3:
        return None
    a1, a2, rest = body[0], body[1], body[2:]
    # a1:  L = min(B, end - v + 1)
    if not (isinstance(a1, F.Assign) and isinstance(a1.target, F.Var)
            and a1.target.name in names):
        return None
    lname = a1.target.name
    m = a1.value
    if not (isinstance(m, F.FuncCall) and m.name == "min"
            and len(m.args) == 2 and isinstance(m.args[0], F.IntLit)
            and m.args[0].value == blk):
        return None
    rem = m.args[1]
    if not (isinstance(rem, F.BinOp) and rem.op == "+"
            and isinstance(rem.right, F.IntLit) and rem.right.value == 1
            and isinstance(rem.left, F.BinOp) and rem.left.op == "-"
            and isinstance(rem.left.right, F.Var)
            and rem.left.right.name == v
            and repr(rem.left.left) == repr(pdo.end)):
        return None
    # a2:  U = v + L - 1
    uname = (names - {lname}).pop()
    if not (isinstance(a2, F.Assign) and isinstance(a2.target, F.Var)
            and a2.target.name == uname):
        return None
    u = a2.value
    if not (isinstance(u, F.BinOp) and u.op == "-"
            and isinstance(u.right, F.IntLit) and u.right.value == 1
            and isinstance(u.left, F.BinOp) and u.left.op == "+"
            and isinstance(u.left.left, F.Var) and u.left.left.name == v
            and isinstance(u.left.right, F.Var)
            and u.left.right.name == lname):
        return None

    def bound_split(e: F.Expr, base: str) -> Optional[tuple]:
        """``e`` as ``base``, ``base + c`` or ``c + base`` with an
        offset free of v/L/U: (offset repr, offset node)."""
        if isinstance(e, F.Var) and e.name == base:
            return ("", None)
        if isinstance(e, F.BinOp) and e.op == "+":
            for off, bvar in ((e.left, e.right), (e.right, e.left)):
                if isinstance(bvar, F.Var) and bvar.name == base \
                        and not any(isinstance(n, F.Var)
                                    and n.name in (v, lname, uname)
                                    for n in off.walk()):
                    return (repr(off), off)
        return None

    def rw(e: F.Expr) -> Optional[F.Expr]:
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit)):
            return e
        if isinstance(e, F.Var):
            return None if e.name in (lname, uname) else e
        if isinstance(e, F.BinOp):
            l, r = rw(e.left), rw(e.right)
            return None if l is None or r is None \
                else F.BinOp(e.op, l, r)
        if isinstance(e, F.UnOp):
            x = rw(e.operand)
            return None if x is None else F.UnOp(e.op, x)
        if isinstance(e, F.FuncCall):
            args = [rw(a) for a in e.args]
            return None if any(a is None for a in args) \
                else F.FuncCall(e.name, args, intrinsic=e.intrinsic)
        if isinstance(e, (F.ArrayRef, F.Apply)):
            subs = (e.subscripts if isinstance(e, F.ArrayRef)
                    else e.args)
            parts = []
            for sub in subs:
                if isinstance(sub, F.RangeExpr):
                    if sub.stride is not None or sub.lo is None \
                            or sub.hi is None:
                        return None
                    lo = bound_split(sub.lo, v)
                    hi = bound_split(sub.hi, uname)
                    if lo is None or hi is None or lo[0] != hi[0]:
                        return None
                    parts.append(sub.lo)   # element at lane v
                else:
                    parts.append(rw(sub))
            if any(p is None for p in parts):
                return None
            if isinstance(e, F.ArrayRef):
                return F.ArrayRef(e.name, parts)
            return F.Apply(e.name, parts)
        return None

    new_body: list[F.Stmt] = []
    for st in rest:
        if not (isinstance(st, F.Assign)
                and isinstance(st.target, F.ArrayRef)):
            return None
        nt = rw(st.target)
        nv = rw(st.value)
        if nt is None or nv is None:
            return None
        new_body.append(F.Assign(label=st.label, line=st.line,
                                 target=nt, value=nv))
    return C.ParallelDo(level=pdo.level, order="doall", var=v,
                        start=pdo.start, end=pdo.end, step=None,
                        locals_=[], preamble=[], body=new_body,
                        postamble=[])
