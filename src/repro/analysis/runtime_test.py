"""Run-time dependence test synthesis (paper §4.1.5, OCEAN).

When a singly-dimensioned array is indexed by an expression like
``a(i + m*(j-1))`` with symbolic ``m``, compile-time tests cannot decide
independence: if the loop bounds satisfy ``1 ≤ i ≤ m`` the subscript is a
*linearized* 2-D access and iterations never collide, otherwise they may.

This module recognizes the linearized pattern and synthesizes the run-time
predicate under which the loop is parallel; the versioning transformation
emits a two-version loop (``IF (pred) parallel ELSE serial``).

Recognized pattern, for a nest ``do j / do i`` over a 1-D array ``a``::

    subscript = base + c_i * i + c_j * S * j      (c_i, c_j integer, S symbolic)

with ``i`` spanning ``[lo_i, hi_i]``.  The predicate is
``c_i * (hi_i - lo_i) < c_j * S`` — the inner index range fits inside one
"row", so distinct ``j`` never alias (integer sequence analysis).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.analysis.expr import LinearExpr, linearize, simplify
from repro.analysis.nest import NestRecord
from repro.analysis.refs import LoopInfo, Ref
from repro.fortran import ast_nodes as F


@dataclass
class RuntimeTest:
    """A synthesized run-time independence predicate for one loop."""

    loop: F.DoLoop
    array: str
    predicate: F.Expr            # parallel when this evaluates .true.
    description: str

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<RuntimeTest on {self.array}>"


def _split_symbolic(e: F.Expr, nest_vars: list[str],
                    params: Mapping[str, int] | None
                    ) -> Optional[tuple[LinearExpr, dict[str, F.Expr]]]:
    """Linearize ``e`` allowing one level of ``sym * index`` products.

    Returns the affine form where such a product appears as a coefficient
    variable ``<sym>@<index>``, plus a map from those synthetic names to
    the symbolic stride AST.
    """
    strides: dict[str, F.Expr] = {}

    def rec(x: F.Expr) -> Optional[LinearExpr]:
        if isinstance(x, F.IntLit):
            return LinearExpr.constant(x.value)
        if isinstance(x, F.Var):
            if params and x.name in params:
                return LinearExpr.constant(params[x.name])
            return LinearExpr.variable(x.name)
        if isinstance(x, F.UnOp) and x.op in ("-", "+"):
            inner = rec(x.operand)
            if inner is None:
                return None
            return -inner if x.op == "-" else inner
        if isinstance(x, F.BinOp):
            if x.op in ("+", "-"):
                l, r = rec(x.left), rec(x.right)
                if l is None or r is None:
                    return None
                return l + r if x.op == "+" else l - r
            if x.op == "*":
                l, r = rec(x.left), rec(x.right)
                if l is not None and r is not None:
                    prod = l.multiply(r)
                    if prod is not None:
                        return prod
                    # symbolic stride × affine-in-one-index
                    return _sym_product(l, r)
                return None
        return None

    def _sym_product(l: LinearExpr, r: LinearExpr) -> Optional[LinearExpr]:
        # one side must be a pure symbolic invariant, the other a single
        # index variable (possibly shifted): sym * (a*v + b)
        def pure_sym(le: LinearExpr) -> Optional[str]:
            if le.const == 0 and len(le.coeffs) == 1 and le.coeffs[0][1] == 1 \
                    and le.coeffs[0][0] not in nest_vars:
                return le.coeffs[0][0]
            return None

        for sym_side, idx_side in ((l, r), (r, l)):
            sname = pure_sym(sym_side)
            if sname is None:
                continue
            idx_vars = [v for v in idx_side.variables() if v in nest_vars]
            if len(idx_vars) != 1 or len(idx_side.variables()) != 1:
                continue
            v = idx_vars[0]
            a = idx_side.coeff(v)
            b = idx_side.const
            key = f"{sname}@{v}"
            strides[key] = F.Var(sname)
            return (LinearExpr.variable(key, a)
                    + LinearExpr.variable(sname, b))
        return None

    le = rec(e)
    if le is None:
        return None
    return le, strides


def synthesize_runtime_test(loop: "F.DoLoop | NestRecord",
                            params: Mapping[str, int] | None = None
                            ) -> Optional[RuntimeTest]:
    """Try to build a run-time independence test for ``loop``.

    ``loop`` is the candidate parallel loop (index ``j`` in the module
    docstring); its body may contain inner loops (index ``i``).
    """
    nest = NestRecord.of(loop)
    loop, rc = nest.loop, nest.collector
    if rc.has_goto or rc.has_unknown_calls:
        return None

    nest_vars: list[str] = [loop.var]
    inner_loops: dict[str, LoopInfo] = {}
    for r in rc.refs:
        for li in r.loops:
            if li.var not in inner_loops:
                inner_loops[li.var] = li
                if li.var not in nest_vars:
                    nest_vars.append(li.var)

    # candidate arrays: 1-D refs written in the loop whose subscripts are
    # linearized (need the symbolic-product splitter)
    by_array: dict[str, list[Ref]] = {}
    for r in rc.refs:
        if r.subscripts and len(r.subscripts) == 1:
            by_array.setdefault(r.name, []).append(r)

    for name, refs in sorted(by_array.items()):
        if not any(r.is_write for r in refs):
            continue
        test = _test_for_array(loop, name, refs, nest_vars, inner_loops, params)
        if test is not None:
            return test
    return None


def _test_for_array(loop: F.DoLoop, name: str, refs: list[Ref],
                    nest_vars: list[str], inner_loops: dict[str, LoopInfo],
                    params: Mapping[str, int] | None) -> Optional[RuntimeTest]:
    forms = []
    stride_sym: Optional[str] = None
    inner_var: Optional[str] = None
    outer_coeff: Optional[int] = None
    for r in refs:
        got = _split_symbolic(r.subscripts[0], nest_vars, params)
        if got is None:
            return None
        le, strides = got
        keys = [k for k in le.variables() if "@" in k]
        if len(keys) != 1:
            return None
        key = keys[0]
        sym, idx = key.split("@")
        if idx != loop.var:
            return None  # stride must multiply the candidate parallel index
        if stride_sym is None:
            stride_sym = sym
        elif stride_sym != sym:
            return None
        c_outer = le.coeff(key)
        if outer_coeff is None:
            outer_coeff = c_outer
        elif outer_coeff != c_outer:
            return None
        ivars = [v for v in le.variables()
                 if v in nest_vars and v != loop.var]
        if len(ivars) > 1:
            return None
        if ivars:
            if inner_var is None:
                inner_var = ivars[0]
            elif inner_var != ivars[0]:
                return None
        forms.append(le)

    if stride_sym is None or outer_coeff is None or outer_coeff == 0:
        return None

    # inner index span: max over refs of |c_i| * (hi - lo) + |const spread|
    if inner_var is not None and inner_var in inner_loops:
        li = inner_loops[inner_var]
        lo_ast, hi_ast = li.start, li.end
    else:
        lo_ast = hi_ast = F.IntLit(0)

    max_ci = max(abs(le.coeff(inner_var)) for le in forms) if inner_var else 0
    consts = [le.const for le in forms]
    spread = max(consts) - min(consts) if consts else 0

    # predicate: max_ci*(hi - lo) + spread < |outer_coeff| * stride
    span = F.BinOp("+",
                   F.BinOp("*", F.IntLit(max_ci),
                           F.BinOp("-", hi_ast, lo_ast)),
                   F.IntLit(spread))
    rhs = F.BinOp("*", F.IntLit(abs(outer_coeff)), F.Var(stride_sym))
    pred = simplify(F.BinOp(".lt.", span, rhs))
    # also require a positive stride (a negative m would fold rows back)
    pred = F.BinOp(".and.", F.BinOp(".gt.", F.Var(stride_sym), F.IntLit(0)),
                   pred)
    return RuntimeTest(
        loop=loop, array=name, predicate=pred,
        description=(f"iterations of {loop.var} touch disjoint {name} rows "
                     f"when the inner span is below the row stride "
                     f"{stride_sym}"))
