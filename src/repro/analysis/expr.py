"""Affine expression algebra and AST-level simplification.

The dependence tests and most restructuring passes reason about *linear
(affine) forms*: ``c0 + c1*v1 + ... + ck*vk`` with integer coefficients over
symbolic variables (loop indices, bounds, parameters).  :class:`LinearExpr`
implements that algebra; :func:`linearize` converts an AST expression into a
LinearExpr when possible (returning ``None`` for non-affine expressions,
which makes callers conservative by construction).

:func:`simplify` is a constant-folding/identity-pruning rewrite over the
expression AST used by the transformation passes when they synthesize bound
expressions such as ``min(i + strip - 1, n)``.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.fortran import ast_nodes as F


class LinearExpr:
    """An affine form: ``const + Σ coeffs[name] * name``.

    Treated as immutable; arithmetic returns new instances.  ``coeffs``
    is sorted by name with zero coefficients pruned, so equality is
    structural.  A slotted class rather than a dataclass: the
    dependence tests build these by the hundred thousand.
    """

    __slots__ = ("const", "coeffs")

    def __init__(self, const: int = 0,
                 coeffs: tuple[tuple[str, int], ...] = ()):
        self.const = const
        self.coeffs = coeffs

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not LinearExpr:
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.const, self.coeffs))

    def __repr__(self) -> str:
        return f"LinearExpr(const={self.const!r}, coeffs={self.coeffs!r})"

    # -- construction -----------------------------------------------------

    @staticmethod
    def constant(c: int) -> "LinearExpr":
        return LinearExpr(int(c), ())

    @staticmethod
    def variable(name: str, coeff: int = 1) -> "LinearExpr":
        if coeff == 0:
            return LinearExpr(0, ())
        return LinearExpr(0, ((name, int(coeff)),))

    @staticmethod
    def _make(const: int, coeffs: dict[str, int]) -> "LinearExpr":
        items = tuple(sorted((n, c) for n, c in coeffs.items() if c != 0))
        return LinearExpr(int(const), items)

    # -- queries ----------------------------------------------------------

    def coeff(self, name: str) -> int:
        for n, c in self.coeffs:
            if n == name:
                return c
        return 0

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def variables(self) -> set[str]:
        return {n for n, _ in self.coeffs}

    def depends_on(self, names: set[str] | frozenset[str]) -> bool:
        return any(n in names for n, _ in self.coeffs)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "LinearExpr | int") -> "LinearExpr":
        if isinstance(other, int):
            return LinearExpr(self.const + other, self.coeffs)
        if not other.coeffs:
            return LinearExpr(self.const + other.const, self.coeffs)
        if not self.coeffs:
            return LinearExpr(self.const + other.const, other.coeffs)
        d = dict(self.coeffs)
        for n, c in other.coeffs:
            d[n] = d.get(n, 0) + c
        return LinearExpr._make(self.const + other.const, d)

    def __sub__(self, other: "LinearExpr | int") -> "LinearExpr":
        if isinstance(other, int):
            return LinearExpr(self.const - other, self.coeffs)
        if not other.coeffs:
            return LinearExpr(self.const - other.const, self.coeffs)
        return self + other.scale(-1)

    def scale(self, k: int) -> "LinearExpr":
        if k == 0:
            return LinearExpr(0, ())
        return LinearExpr(self.const * k,
                          tuple((n, c * k) for n, c in self.coeffs))

    def __neg__(self) -> "LinearExpr":
        return self.scale(-1)

    def multiply(self, other: "LinearExpr") -> Optional["LinearExpr"]:
        """Product, only if one side is constant (stays affine)."""
        if other.is_constant:
            return self.scale(other.const)
        if self.is_constant:
            return other.scale(self.const)
        return None

    def substitute(self, env: Mapping[str, "LinearExpr"]) -> "LinearExpr":
        """Replace variables by affine forms."""
        out = LinearExpr.constant(self.const)
        for n, c in self.coeffs:
            if n in env:
                out = out + env[n].scale(c)
            else:
                out = out + LinearExpr.variable(n, c)
        return out

    def to_ast(self) -> F.Expr:
        """Render back to an expression AST."""
        terms: list[F.Expr] = []
        for n, c in self.coeffs:
            if c == 1:
                terms.append(F.Var(n))
            elif c == -1:
                terms.append(F.UnOp("-", F.Var(n)))
            else:
                terms.append(F.BinOp("*", F.IntLit(abs(c)), F.Var(n))
                             if c > 0 else
                             F.UnOp("-", F.BinOp("*", F.IntLit(-c), F.Var(n))))
        if self.const != 0 or not terms:
            terms.append(F.IntLit(self.const))
        expr = terms[0]
        for t in terms[1:]:
            if isinstance(t, F.UnOp) and t.op == "-":
                expr = F.BinOp("-", expr, t.operand)
            elif isinstance(t, F.IntLit) and t.value < 0:
                expr = F.BinOp("-", expr, F.IntLit(-t.value))
            else:
                expr = F.BinOp("+", expr, t)
        return expr

    def __str__(self) -> str:  # pragma: no cover - debug aid
        parts = [str(self.const)] if self.const or not self.coeffs else []
        for n, c in self.coeffs:
            parts.append(f"{c:+d}*{n}")
        return " ".join(parts) or "0"


def linearize(e: F.Expr,
              params: Mapping[str, int] | None = None) -> Optional[LinearExpr]:
    """Convert an AST expression to a LinearExpr, or None if non-affine.

    ``params`` supplies known integer constants (PARAMETER values) folded in.
    """
    params = params or {}

    def rec(x: F.Expr) -> Optional[LinearExpr]:
        if isinstance(x, F.IntLit):
            return LinearExpr.constant(x.value)
        if isinstance(x, F.Var):
            if x.name in params:
                return LinearExpr.constant(params[x.name])
            return LinearExpr.variable(x.name)
        if isinstance(x, F.UnOp):
            inner = rec(x.operand)
            if inner is None:
                return None
            if x.op == "-":
                return -inner
            if x.op == "+":
                return inner
            return None
        if isinstance(x, F.BinOp):
            l, r = rec(x.left), rec(x.right)
            if l is None or r is None:
                return None
            if x.op == "+":
                return l + r
            if x.op == "-":
                return l - r
            if x.op == "*":
                return l.multiply(r)
            if x.op == "/":
                # integer division only when exact & constant divisor
                if r.is_constant and r.const != 0:
                    if l.is_constant and l.const % r.const == 0:
                        return LinearExpr.constant(l.const // r.const)
                    if all(c % r.const == 0 for _, c in l.coeffs) \
                            and l.const % r.const == 0:
                        return LinearExpr._make(
                            l.const // r.const,
                            {n: c // r.const for n, c in l.coeffs})
                return None
            if x.op == "**":
                if r.is_constant and l.is_constant and 0 <= r.const <= 8:
                    return LinearExpr.constant(l.const ** r.const)
                return None
            return None
        return None

    return rec(e)


# ---------------------------------------------------------------------------
# AST simplification
# ---------------------------------------------------------------------------

def const_value(e: F.Expr) -> Optional[int | float | bool]:
    """Evaluate a constant expression, or None."""
    if isinstance(e, F.IntLit):
        return e.value
    if isinstance(e, F.RealLit):
        return e.value
    if isinstance(e, F.LogicalLit):
        return e.value
    if isinstance(e, F.UnOp):
        v = const_value(e.operand)
        if v is None:
            return None
        if e.op == "-":
            return -v
        if e.op == "+":
            return v
        if e.op == ".not.":
            return not v
        return None
    if isinstance(e, F.BinOp):
        l, r = const_value(e.left), const_value(e.right)
        if l is None or r is None:
            return None
        try:
            if e.op == "+":
                return l + r
            if e.op == "-":
                return l - r
            if e.op == "*":
                return l * r
            if e.op == "/":
                if isinstance(l, int) and isinstance(r, int):
                    if r == 0:
                        return None
                    return int(l / r)  # Fortran truncates toward zero
                return l / r if r != 0 else None
            if e.op == "**":
                return l ** r
            if e.op == ".lt.":
                return l < r
            if e.op == ".le.":
                return l <= r
            if e.op == ".eq.":
                return l == r
            if e.op == ".ne.":
                return l != r
            if e.op == ".gt.":
                return l > r
            if e.op == ".ge.":
                return l >= r
            if e.op == ".and.":
                return bool(l) and bool(r)
            if e.op == ".or.":
                return bool(l) or bool(r)
        except (OverflowError, ValueError, ZeroDivisionError):
            return None
    return None


def _lit(v: int | float | bool, like: F.Expr) -> F.Expr:
    if isinstance(v, bool):
        return F.LogicalLit(v)
    if isinstance(v, int):
        return F.IntLit(v)
    return F.RealLit(float(v))


def simplify(e: F.Expr) -> F.Expr:
    """Constant-fold and prune algebraic identities, recursively."""
    if isinstance(e, F.BinOp):
        left = simplify(e.left)
        right = simplify(e.right)
        e = F.BinOp(e.op, left, right)
        v = const_value(e)
        if v is not None:
            return _lit(v, e)
        lv, rv = const_value(left), const_value(right)
        if e.op == "+":
            if lv == 0:
                return right
            if rv == 0:
                return left
        elif e.op == "-":
            if rv == 0:
                return left
            if _same_var(left, right):
                return F.IntLit(0)
        elif e.op == "*":
            if lv == 1:
                return right
            if rv == 1:
                return left
            if lv == 0 or rv == 0:
                return F.IntLit(0)
        elif e.op == "/":
            if rv == 1:
                return left
        elif e.op == "**":
            if rv == 1:
                return left
            if rv == 0:
                return F.IntLit(1)
        return e
    if isinstance(e, F.UnOp):
        inner = simplify(e.operand)
        e = F.UnOp(e.op, inner)
        v = const_value(e)
        if v is not None:
            return _lit(v, e)
        if e.op == "-" and isinstance(inner, F.UnOp) and inner.op == "-":
            return inner.operand
        if e.op == "+":
            return inner
        return e
    if isinstance(e, (F.FuncCall, F.Apply)):
        args = [simplify(a) for a in e.args]
        if e.name in ("min", "max", "min0", "max0") and len(args) == 2:
            a, b = const_value(args[0]), const_value(args[1])
            if a is not None and b is not None:
                return _lit(min(a, b) if e.name.startswith("min") else max(a, b), e)
            # min(x, x) = x
            if _same_var(args[0], args[1]):
                return args[0]
        if isinstance(e, F.Apply):
            return F.Apply(e.name, args)
        return F.FuncCall(e.name, args, intrinsic=e.intrinsic)
    if isinstance(e, F.ArrayRef):
        return F.ArrayRef(e.name, [simplify(s) if not isinstance(s, F.RangeExpr)
                                   else _simplify_range(s) for s in e.subscripts])
    return e


def _simplify_range(r: F.RangeExpr) -> F.RangeExpr:
    return F.RangeExpr(
        simplify(r.lo) if r.lo is not None else None,
        simplify(r.hi) if r.hi is not None else None,
        simplify(r.stride) if r.stride is not None else None,
    )


def _same_var(a: F.Expr, b: F.Expr) -> bool:
    return isinstance(a, F.Var) and isinstance(b, F.Var) and a.name == b.name


def exprs_equal(a: F.Expr, b: F.Expr,
                params: Mapping[str, int] | None = None) -> bool:
    """Structural/affine equality of two expressions (conservative)."""
    la, lb = linearize(a, params), linearize(b, params)
    if la is not None and lb is not None:
        return la == lb
    return _struct_eq(a, b)


def _struct_eq(a: F.Expr, b: F.Expr) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, F.IntLit):
        return a.value == b.value
    if isinstance(a, F.RealLit):
        return a.value == b.value
    if isinstance(a, F.LogicalLit):
        return a.value == b.value
    if isinstance(a, F.StrLit):
        return a.value == b.value
    if isinstance(a, F.Var):
        return a.name == b.name
    if isinstance(a, F.BinOp):
        return a.op == b.op and _struct_eq(a.left, b.left) \
            and _struct_eq(a.right, b.right)
    if isinstance(a, F.UnOp):
        return a.op == b.op and _struct_eq(a.operand, b.operand)
    if isinstance(a, (F.FuncCall, F.Apply)):
        return a.name == b.name and len(a.args) == len(b.args) and all(
            _struct_eq(x, y) for x, y in zip(a.args, b.args))
    if isinstance(a, F.ArrayRef):
        return a.name == b.name and len(a.subscripts) == len(b.subscripts) \
            and all(_struct_eq(x, y) for x, y in zip(a.subscripts, b.subscripts))
    if isinstance(a, F.RangeExpr):
        def opt(x, y):
            if (x is None) != (y is None):
                return False
            return x is None or _struct_eq(x, y)
        return opt(a.lo, b.lo) and opt(a.hi, b.hi) and opt(a.stride, b.stride)
    return False
