"""Loop-nest lowering: whole-grid Python/NumPy source for the compiled engine.

:class:`repro.execmodel.compiled.Compiler` emits one Python module per
statement list through :func:`emit_module`; this module decides which of
the list's loops become vectorized source and writes that source.  Every
statement the lowerer declines is emitted as a ``fb(i)`` request for the
compiler's scalar closure, so coverage is total.

What lowers:

- **loop nests** — a DOALL (or plain sequential DO) whose body is a
  chain of nested loops ending in eligible assignments is lowered to
  one set of broadcast NumPy operations over the full iteration grid;
  the restructurer's strip-mined PARALLEL DO is recognized and
  collapsed back to its elementwise form first;
- **IF-guarded bodies** — ``IF (c) a(i) = e`` and two-arm block IFs
  lower to masked assignment: the guard is evaluated over the whole
  grid (exactly as the scalar loop evaluates it every iteration), and
  the guarded statement's reads, evaluation, and writes happen only on
  the compressed true lanes, so the executed operation set is identical
  to the scalar loop's;
- **reductions** — scalar SUM/PRODUCT accumulators recognized by
  :func:`repro.analysis.reductions.find_reductions` evaluate their
  contributed terms vectorized, then replay the tree walk's exact
  per-iteration accumulation: same left-spine operator order, same
  per-store integer-coercion ladder, same worker-by-worker iteration
  order (the interpreter's ``deal``) when the outer axis is a DOALL.
  MIN/MAX accumulators lower to ``np.minimum.reduce``/
  ``np.maximum.reduce`` when the accumulator and contribution provably
  share a type class.

Every lowering carries one exactness obligation — the vector evaluation
must be bit-equal to the scalar loop: plain or affine loop-variable
subscripts, intrinsics marked ``exact`` in
:data:`repro.fortran.intrinsics.INTRINSICS` only, reads of written
arrays restricted to the writing iteration's element.  Anything that
cannot be proven falls back *per loop* (recurrences are rejected, never
approximated).  Signed-zero and NaN treatment of the MIN/MAX lowerings
follows the same table (``min``/``max`` are exact elementwise).
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Optional

import numpy as np

from repro.cedar import nodes as C
from repro.cedar.library import CEDAR_LIBRARY
from repro.errors import InterpreterError
from repro.execmodel.interp import (_DECL_STMTS, _SYNC_STMTS,
                                    Interpreter)
from repro.execmodel.values import FArray, Scope
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import INTRINSICS

#: bump when the emitter changes: keys every cached ``jit-source``
#: artifact so stale module text can never be served to a newer runtime
JIT_VERSION = 1

#: statements that do nothing when executed (sync statements are
#: functional no-ops without a shadow recorder)
NOOP_STMTS = (F.ContinueStmt,) + _DECL_STMTS + _SYNC_STMTS

#: loop-nest levels the lowerer can walk through
_LOOPS = (F.DoLoop, C.ParallelDo)


def coerces_to_int(symtab, name: str) -> bool:
    """Whether a scalar store to ``name`` truncates to integer: declared
    integer, or undeclared under the implicit i-n rule.  Symbol-table
    facts are static, so this branch of ``Interpreter._assign`` is
    resolved once at compile time."""
    sym = symtab.lookup(name) if symtab is not None else None
    if sym is not None:
        return sym.type == "integer"
    return name[0] in "ijklmn"


class _Ineligible(Exception):
    """Internal: the loop (or one statement of it) cannot be lowered."""


def _fmt_literal(v) -> str:
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, float):
        if math.isfinite(v):
            return repr(v)
        return f"float({str(v)!r})"
    return repr(v)


class Runtime:
    """Semantics shared by the compiler's closures and emitted modules.

    One instance per statement list is the ``rt`` object handed to the
    module's ``make()``: it carries what generated source cannot embed —
    scope access, bounds-checked grid loads/stores, the Fortran
    division/logical helpers, the numpy intrinsic table, and the
    compiler's closure lowering for statements the emitter declined.
    The static helpers double as the closures' own operator semantics.
    """

    #: the vectorizable intrinsics, as emitted code indexes them
    np_funcs = {name: info.np_fn for name, info in INTRINSICS.items()
                if info.exact}

    def __init__(self, compiler, stmts: list, unit: str):
        self.compiler = compiler
        self.stmts = stmts
        self.unit = unit

    def fallback(self, i: int):
        return self.compiler._stmt(self.stmts[i], self.unit)

    def tally(self, loops: int, fallback: int) -> None:
        self.compiler.vectorized_loops += loops
        self.compiler.fallback_stmts += fallback

    # -- scope access --------------------------------------------------

    @staticmethod
    def scalar(scope: Scope, name: str):
        sc = scope.lookup_scope(name)
        if sc is None:
            raise InterpreterError(f"undefined variable {name!r}")
        v = sc.vars[name]
        if isinstance(v, FArray):
            d = v.data
            if d.ndim == 0:          # COMMON scalar box
                return d.item()
            return d
        return v

    @staticmethod
    def sset(scope: Scope, name: str, value) -> None:
        scope.set(name, value)

    @staticmethod
    def astore(scope: Scope, name: str, value, coerce_int: bool):
        """One scalar store, replicating ``Interpreter._assign``'s
        coercion ladder with the symbol-table facts pre-resolved into
        ``coerce_int``.

        Returns the stored value exactly as a fresh scope read would see
        it, so a reduction's accumulation loop observes the same
        per-iteration coercions as the tree walk's store-then-reload.
        """
        sc = scope.lookup_scope(name)
        cur = sc.vars[name] if sc is not None else None
        if isinstance(cur, FArray):
            cur.data[...] = value
            d = cur.data
            return d.item() if d.ndim == 0 else d
        if sc is None:
            sc = scope._root()
        if isinstance(cur, (int, np.integer)) and not isinstance(
                cur, (bool, np.bool_)):
            v = int(np.trunc(value))
            sc.vars[name] = v
            return v
        if isinstance(value, np.ndarray):
            raise InterpreterError(
                f"array value assigned to scalar {name!r}")
        if coerce_int and not isinstance(value, (bool, np.bool_)):
            v = int(np.trunc(value))
            sc.vars[name] = v
            return v
        sc.vars[name] = value
        return value

    def error(self, msg: str):
        raise InterpreterError(msg)

    # -- library/intrinsic calls in loop-invariant position ------------

    @staticmethod
    def call(scope: Scope, name: str, vals: tuple):
        if name in CEDAR_LIBRARY:
            return CEDAR_LIBRARY[name].fn(*vals)
        info = INTRINSICS.get(name)
        if info is not None:
            for v in vals:
                if isinstance(v, np.ndarray):
                    if info.np_fn is None:
                        raise InterpreterError(
                            f"intrinsic {name!r} not vectorized")
                    return info.np_fn(*vals)
            return info.fn(*vals)
        raise InterpreterError(f"unknown function {name!r}")

    # -- grid loads/stores (bounds-checked like FArray.get/set) --------

    @staticmethod
    def _grid_key(arr: FArray, parts: tuple) -> tuple:
        key = []
        for dim, part in enumerate(parts):
            lo = arr.lowers[dim]
            n = arr.data.shape[dim]
            if isinstance(part, np.ndarray):
                j = part - lo
                if j.size and (int(j.min()) < 0 or int(j.max()) >= n):
                    bad = int(part.min()) if int(j.min()) < 0 \
                        else int(part.max())
                    raise InterpreterError(
                        f"subscript {bad} out of bounds in dimension "
                        f"{dim + 1} [{lo}, {lo + n - 1}]")
                key.append(j)
            else:
                j = int(part) - lo
                if not (0 <= j < n):
                    raise InterpreterError(
                        f"subscript {j + lo} out of bounds in dimension "
                        f"{dim + 1} [{lo}, {lo + n - 1}]")
                key.append(j)
        return tuple(key)

    def vload(self, scope: Scope, name: str, parts: tuple):
        arr = scope.get(name)
        if not isinstance(arr, FArray):
            raise InterpreterError(f"{name!r} is not an array")
        return arr.data[self._grid_key(arr, parts)]

    def vstore(self, scope: Scope, name: str, parts: tuple,
               value) -> None:
        arr = scope.get(name)
        if not isinstance(arr, FArray):
            raise InterpreterError(f"{name!r} is not an array")
        arr.data[self._grid_key(arr, parts)] = value

    # -- Fortran operator semantics ------------------------------------

    @staticmethod
    def div(l, r):
        if Interpreter._is_int(l) and Interpreter._is_int(r):
            if isinstance(l, np.ndarray) or isinstance(r, np.ndarray):
                return np.trunc(np.divide(l, r)).astype(np.int64)
            return int(l / r)
        return l / r

    @staticmethod
    def and_(l, r):
        return np.logical_and(l, r) \
            if isinstance(l, np.ndarray) or isinstance(r, np.ndarray) \
            else (l and r)

    @staticmethod
    def or_(l, r):
        return np.logical_or(l, r) \
            if isinstance(l, np.ndarray) or isinstance(r, np.ndarray) \
            else (l or r)

    @staticmethod
    def eqv(l, r):
        return np.equal(l, r) \
            if isinstance(l, np.ndarray) or isinstance(r, np.ndarray) \
            else (bool(l) == bool(r))

    @staticmethod
    def neqv(l, r):
        return np.not_equal(l, r) \
            if isinstance(l, np.ndarray) or isinstance(r, np.ndarray) \
            else (bool(l) != bool(r))

    @staticmethod
    def not_(v):
        return ~np.asarray(v) if isinstance(v, np.ndarray) else not v

    # -- reduction support ---------------------------------------------

    def red_flat(self, value, shape: tuple, doall_outer: bool):
        """Flatten a grid of contributed terms into scalar-loop order.

        C-order ravel is the sequential nest order; a DOALL outer axis
        is permuted into the order the tree walk visits it in — worker
        by worker, each through its share of the interpreter's deal.
        """
        a = np.broadcast_to(np.asarray(value), shape)
        if doall_outer and len(shape) >= 1:
            interp = self.compiler.interp
            n0 = shape[0]
            p = max(1, min(interp.processors, n0 or 1))
            a = a[np.fromiter(chain.from_iterable(interp.deal(n0, p)),
                              dtype=np.intp)]
        return a.ravel()


def _scalar_locals(node: C.ParallelDo) -> Optional[set]:
    """Names declared by a DOALL's private ``locals_`` when every one is
    a scalar declaration, else None."""
    names: set = set()
    for d in node.locals_:
        if not isinstance(d, F.TypeDecl):
            return None
        for ent in d.entities:
            if ent.dims:
                return None
            names.add(ent.name)
    return names


def _desugar_stripmine(pdo: F.Stmt) -> Optional[C.ParallelDo]:
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
    names = _scalar_locals(pdo)
    if names is None or len(names) != 2:
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


class _LoopLowerer:
    """Analysis + Python/NumPy source emission for one loop nest."""

    def __init__(self, interp: Interpreter, loop: F.Stmt, unit: str):
        self.interp = interp
        self.unit = unit
        self.symtab = interp.tables.get(unit)
        if self.symtab is None:
            raise _Ineligible("no symbol table")
        self.levels: list[F.Stmt] = []
        self.axes: list[str] = []            # loop vars, outer -> inner
        self.private_axes: set[int] = set()  # declared in a PDO's locals
        self.writes: dict[str, tuple] = {}   # array -> per-dim axis mask
        self.red_vars: set[str] = set()
        self.reductions: dict[int, tuple] = {}  # id(stmt) -> lowering
        self.body: list[F.Stmt] = []
        self._uniq = 0
        self._collect_nest(loop)
        self._collect_reductions(loop)
        self._collect_writes()

    # -- structure -----------------------------------------------------

    @staticmethod
    def _plain_level(s: F.Stmt) -> bool:
        if isinstance(s, C.ParallelDo):
            return (s.order == "doall" and not s.preamble
                    and not s.postamble and not s.locals_)
        return isinstance(s, F.DoLoop)

    def _collect_nest(self, loop: F.Stmt) -> None:
        node: F.Stmt = loop
        pending: list[tuple[int, set]] = []
        while True:
            if not self._plain_level(node):
                d = _desugar_stripmine(node)
                if d is not None:
                    node = d
                else:
                    # a DOALL whose private locals declare only inner
                    # loop variables is still plain: worker scopes hide
                    # those names either way (validated below)
                    names = (_scalar_locals(node)
                             if isinstance(node, C.ParallelDo)
                             and node.order == "doall"
                             and not node.preamble
                             and not node.postamble else None)
                    if not names:
                        raise _Ineligible("ineligible nest level")
                    pending.append((len(self.axes), names))
            if node.var in self.axes:
                raise _Ineligible("duplicate loop variable")
            self.levels.append(node)
            self.axes.append(node.var)
            body = node.body
            # declaration/CONTINUE no-ops around a single nested loop do
            # not break the nest (shared-termination DO chains end in a
            # labelled CONTINUE the tree walk also ignores)
            inner = [s for s in body if not isinstance(s, NOOP_STMTS)]
            if len(inner) == 1 and isinstance(inner[0], _LOOPS):
                node = inner[0]
                continue
            if not inner:
                raise _Ineligible("empty body")
            self.body = body
            break
        for lvl, names in pending:
            deeper = set(self.axes[lvl + 1:])
            if not names <= deeper:
                raise _Ineligible("private scalar locals")
            # a sequential DO over a privately-declared variable must
            # not leak its final value to the parent scope
            self.private_axes.update(self.axes.index(n) for n in names)

    def _collect_reductions(self, loop: F.Stmt) -> None:
        from repro.analysis.reductions import find_reductions

        # a reduction's accumulation order is only reproducible when the
        # sharded axis is the outermost one (or no axis is sharded)
        if any(isinstance(lv, C.ParallelDo) for lv in self.levels[1:]):
            return
        for red in find_reductions(loop):
            if red.kind != "scalar" or red.var in self.axes:
                continue
            if red.op not in ("+", "*", "min", "max"):
                continue
            if red.op in ("+", "*") and len(red.stmts) != 1:
                continue   # interleaved accumulations: order not ours
            entries = []
            for st in red.stmts:
                if not any(st is b for b in self.body):
                    entries = None     # accumulated outside our body
                    break
                info = self._match_strict(st, red.var, red.op)
                if info is None:
                    entries = None
                    break
                entries.append((st, info))
            if not entries:
                continue   # unhandled form: the loop will fall back
            for st, info in entries:
                self.reductions[id(st)] = info
            self.red_vars.add(red.var)

    @staticmethod
    def _match_strict(st: F.Stmt, var: str, op: str) -> Optional[tuple]:
        """Map one accumulation statement to a lowering that replays the
        tree walk's exact evaluation order, or None if the shape is not
        one we can replay."""
        if not isinstance(st, F.Assign) \
                or not isinstance(st.target, F.Var) \
                or st.target.name != var:
            return None
        v = st.value
        if op in ("min", "max"):
            if isinstance(v, (F.FuncCall, F.Apply)) and len(v.args) == 2:
                a, b = v.args
                if isinstance(a, F.Var) and a.name == var:
                    return ("minmax", var, op, b)
                if isinstance(b, F.Var) and b.name == var:
                    return ("minmax", var, op, a)
            return None
        if not isinstance(v, F.BinOp):
            return None
        if op == "+" and v.op in ("+", "-"):
            # left spine  s = (((s op1 e1) op2 e2) ...): the tree walk
            # folds left-to-right; we replay the same association
            terms: list[tuple] = []
            node: F.Expr = v
            while isinstance(node, F.BinOp) and node.op in ("+", "-"):
                terms.append((node.op, node.right))
                node = node.left
            if isinstance(node, F.Var) and node.name == var:
                return ("spine", var, list(reversed(terms)))
            if v.op == "+" and isinstance(v.right, F.Var) \
                    and v.right.name == var:
                return ("right", var, "+", v.left)
            return None
        if op == "*" and v.op == "*":
            if isinstance(v.left, F.Var) and v.left.name == var:
                return ("spine", var, [("*", v.right)])
            if isinstance(v.right, F.Var) and v.right.name == var:
                return ("right", var, "*", v.left)
        return None

    def _collect_writes(self) -> None:
        for st in self.body:
            for t in self._write_targets(st):
                name = t.name
                subs = (t.subscripts if isinstance(t, F.ArrayRef)
                        else t.args)
                mask = self._axis_mask(subs)
                if set(e[0] for e in mask if e is not None) != \
                        set(range(len(self.axes))):
                    raise _Ineligible("write misses a nest axis")
                prev = self.writes.get(name)
                if prev is not None and prev != mask:
                    raise _Ineligible("two write shapes for one array")
                self.writes[name] = mask

    def _write_targets(self, st: F.Stmt):
        """Array-element targets of one innermost statement (validated)."""
        if id(st) in self.reductions:
            return []
        if isinstance(st, NOOP_STMTS):
            return []
        if isinstance(st, F.Assign):
            t = st.target
            if not isinstance(t, (F.ArrayRef, F.Apply)):
                raise _Ineligible("non-array write")
            return [t]
        if isinstance(st, F.LogicalIf):
            inner = st.stmt
            if not isinstance(inner, F.Assign):
                raise _Ineligible("guarded non-assignment")
            return self._write_targets(inner)
        if isinstance(st, F.IfBlock):
            if len(st.arms) > 2 or not st.arms:
                raise _Ineligible("multi-arm IF")
            if len(st.arms) == 2 and st.arms[1][0] is not None:
                raise _Ineligible("ELSE IF chain")
            out = []
            for _, arm_body in st.arms:
                for inner in arm_body:
                    if not isinstance(inner, F.Assign):
                        raise _Ineligible("guarded non-assignment")
                    out.extend(self._write_targets(inner))
            return out
        raise _Ineligible(f"ineligible statement "
                          f"{type(st).__name__}")

    def _uses_axis(self, e: F.Expr) -> bool:
        return any(isinstance(n, F.Var) and n.name in self.axes
                   for n in e.walk())

    def _split_affine(self, sub: F.Expr) -> Optional[tuple]:
        """``sub`` as ``axis``, ``axis ± c`` or ``c + axis`` with an
        integer-classed invariant offset: (axis, op, offset|None)."""
        if isinstance(sub, F.Var) and sub.name in self.axes:
            return (self.axes.index(sub.name), "+", None)
        if isinstance(sub, F.BinOp) and sub.op in ("+", "-"):
            l, r = sub.left, sub.right
            l_ax = isinstance(l, F.Var) and l.name in self.axes
            r_ax = isinstance(r, F.Var) and r.name in self.axes
            cand = None
            if l_ax and not r_ax and not self._uses_axis(r):
                cand = (self.axes.index(l.name), sub.op, r)
            elif sub.op == "+" and r_ax and not l_ax \
                    and not self._uses_axis(l):
                cand = (self.axes.index(r.name), "+", l)
            if cand is not None and self._type_class(cand[2]) == "i":
                return cand
        return None

    def _axis_mask(self, subs) -> tuple:
        """Per-dim subscript classification: None for invariant
        subscripts, ``(axis, op, offset-key)`` for affine ones.  The
        offset key (a structural repr) makes masks comparable, so the
        read-equals-write proof covers offsets too — a stencil read
        ``u(j+1)`` against a write ``u(j)`` is a mask mismatch, i.e. a
        rejected recurrence."""
        mask = []
        for sub in subs:
            if isinstance(sub, F.RangeExpr):
                raise _Ineligible("section subscript")
            aff = self._split_affine(sub)
            if aff is not None:
                a, op, off = aff
                mask.append((a, op, "" if off is None else repr(off)))
            elif self._uses_axis(sub):
                raise _Ineligible("loop var inside subscript arithmetic")
            else:
                mask.append(None)
        return tuple(mask)

    def _sub_src(self, sub: F.Expr, entry, ctx: dict) -> str:
        """Python source for one subscript's lane index array."""
        if entry is None:
            return f"({self.ex(sub, None)})"
        a, op, off = self._split_affine(sub)
        base = ctx[self.axes[a]]
        if off is None:
            return base
        return f"({base} {op} ({self.ex(off, None)}))"

    # -- expression emission -------------------------------------------

    def _is_array_sym(self, name: str) -> bool:
        sym = self.symtab.lookup(name)
        return sym is not None and sym.is_array

    def ex(self, e: F.Expr, ctx: Optional[dict]) -> str:
        """Emit ``e`` as Python source.

        ``ctx`` maps each axis variable to its lane-array name (open grid
        or compressed); ``ctx=None`` is invariant/scalar mode, mirroring
        the closures' ``_expr`` semantics.
        """
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit)):
            return _fmt_literal(e.value)
        if isinstance(e, F.Var):
            name = e.name
            if name in self.red_vars:
                raise _Ineligible("accumulator read outside reduction")
            if ctx is not None and name in ctx:
                return ctx[name]
            if name in self.axes or name in self.writes:
                raise _Ineligible("loop-carried scalar read")
            if self._is_array_sym(name):
                # a whole-array read would vectorize where the scalar
                # loop raises (array condition / array arithmetic)
                raise _Ineligible("bare array reference")
            return f"G(s, {name!r})"
        if isinstance(e, (F.ArrayRef, F.Apply)):
            return self._ex_ref(e, ctx)
        if isinstance(e, F.FuncCall):
            return self._ex_call(e.name, e.args, ctx)
        if isinstance(e, F.BinOp):
            return self._ex_binop(e, ctx)
        if isinstance(e, F.UnOp):
            x = self.ex(e.operand, ctx)
            if e.op == "-":
                return f"(-{x})"
            if e.op == "+":
                return x
            if e.op == ".not.":
                if ctx is not None:
                    return f"(~np.asarray({x}))"
                return f"NOT({x})"
        raise _Ineligible(f"cannot emit {type(e).__name__}")

    def _ex_ref(self, e, ctx: Optional[dict]) -> str:
        name = e.name
        subs = e.subscripts if isinstance(e, F.ArrayRef) else e.args
        if self._is_array_sym(name):
            mask = self._axis_mask(subs)
            if name in self.writes and ctx is not None \
                    and mask != self.writes[name]:
                raise _Ineligible("read crosses written iterations")
            if name in self.writes and ctx is None:
                raise _Ineligible("written array in invariant position")
            parts = []
            for sub, entry in zip(subs, mask):
                if entry is not None and ctx is None:
                    raise _Ineligible("axis in invariant position")
                parts.append(self._sub_src(sub, entry, ctx))
            return f"VL(s, {name!r}, ({', '.join(parts)},))"
        return self._ex_call(name, list(subs), ctx)

    def _ex_call(self, name: str, args, ctx: Optional[dict]) -> str:
        if name in self.writes or name in self.red_vars:
            raise _Ineligible("call shadows a written name")
        if ctx is not None:
            if name not in Runtime.np_funcs:
                raise _Ineligible(f"intrinsic {name!r} not exact")
            parts = [self.ex(a, ctx) for a in args]
            return f"NP[{name!r}]({', '.join(parts)})"
        if name in self.interp.units:
            raise _Ineligible("user routine in invariant position")
        parts = [self.ex(a, None) for a in args]
        return f"CALL(s, {name!r}, ({', '.join(parts)},))"

    def _ex_binop(self, e: F.BinOp, ctx: Optional[dict]) -> str:
        l = self.ex(e.left, ctx)
        r = self.ex(e.right, ctx)
        op = e.op
        simple = {"+": "+", "-": "-", "*": "*", "**": "**",
                  ".lt.": "<", ".le.": "<=", ".eq.": "==",
                  ".ne.": "!=", ".gt.": ">", ".ge.": ">="}
        if op in simple:
            return f"({l} {simple[op]} {r})"
        if op == "/":
            return f"DIV({l}, {r})"
        if ctx is not None:
            vec_logical = {".and.": "np.logical_and",
                           ".or.": "np.logical_or",
                           ".eqv.": "np.equal",
                           ".neqv.": "np.not_equal"}
            if op in vec_logical:
                return f"{vec_logical[op]}({l}, {r})"
        else:
            scalar_logical = {".and.": "AND", ".or.": "OR",
                              ".eqv.": "EQV", ".neqv.": "NEQV"}
            if op in scalar_logical:
                return f"{scalar_logical[op]}({l}, {r})"
        raise _Ineligible(f"operator {op!r}")

    # -- type-class inference (MIN/MAX reduction proof) ----------------

    def _type_class(self, e: F.Expr) -> Optional[str]:
        if isinstance(e, F.IntLit):
            return "i"
        if isinstance(e, F.RealLit):
            return "f"
        if isinstance(e, F.Var):
            if e.name in self.axes:
                return "i"
            return self._sym_class(e.name)
        if isinstance(e, (F.ArrayRef, F.Apply, F.FuncCall)):
            if isinstance(e, (F.ArrayRef, F.Apply)) \
                    and self._is_array_sym(e.name):
                return self._sym_class(e.name)
            info = INTRINSICS.get(e.name)
            if info is not None and info.result == "arg":
                args = (e.subscripts if isinstance(e, F.ArrayRef)
                        else e.args)
                return self._join_class([self._type_class(a)
                                         for a in args])
            return info.result if info is not None else None
        if isinstance(e, F.BinOp):
            if e.op in ("+", "-", "*", "/", "**"):
                return self._join_class([self._type_class(e.left),
                                         self._type_class(e.right)])
            return None
        if isinstance(e, F.UnOp) and e.op in ("-", "+"):
            return self._type_class(e.operand)
        return None

    def _sym_class(self, name: str) -> Optional[str]:
        sym = self.symtab.lookup(name)
        if sym is not None:
            if sym.type == "integer":
                return "i"
            if sym.type in ("real", "doubleprecision"):
                return "f"
            return None
        return "i" if name[0] in "ijklmn" else "f"

    @staticmethod
    def _join_class(classes) -> Optional[str]:
        if any(c is None for c in classes):
            return None
        return "f" if "f" in classes else "i"

    # -- statement lowerings -------------------------------------------

    def _grid_ctx(self) -> dict:
        return {v: f"_g{a}" for a, v in enumerate(self.axes)}

    def _target_parts(self, t, ctx: dict) -> str:
        subs = t.subscripts if isinstance(t, F.ArrayRef) else t.args
        mask = self._axis_mask(subs)
        parts = [self._sub_src(sub, entry, ctx)
                 for sub, entry in zip(subs, mask)]
        return ", ".join(parts) + ","

    def _emit_assign(self, st: F.Assign, ctx: dict, out: list,
                     indent: str) -> None:
        rhs = self.ex(st.value, ctx)
        t = st.target
        out.append(f"{indent}VS(s, {t.name!r}, "
                   f"({self._target_parts(t, ctx)}), {rhs})")

    def _emit_guarded(self, mask_src: str, assigns: list, out: list,
                      indent: str) -> None:
        """Compressed-lane lowering of one guard arm."""
        self._uniq += 1
        u = self._uniq
        out.append(f"{indent}_w{u} = np.nonzero({mask_src})")
        cctx = {}
        for a, v in enumerate(self.axes):
            out.append(f"{indent}_h{u}_{a} = _iv{a}[_w{u}[{a}]]")
            cctx[v] = f"_h{u}_{a}"
        out.append(f"{indent}if _h{u}_0.size:")
        for st in assigns:
            self._emit_assign(st, cctx, out, indent + "    ")

    def _emit_reduction(self, st: F.Stmt, out: list,
                        indent: str) -> None:
        info = self.reductions[id(st)]
        kind, var = info[0], info[1]
        ctx = self._grid_ctx()
        k = len(self.axes)
        shape = ", ".join(f"_n{a}" for a in range(k))
        doall0 = isinstance(self.levels[0], C.ParallelDo)
        self._uniq += 1
        u = self._uniq
        coerce = coerces_to_int(self.symtab, var)
        out.append(f"{indent}_a{u} = G(s, {var!r})")
        if kind == "minmax":
            op, contrib = info[2], info[3]
            acls = self._sym_class(var)
            ccls = self._type_class(contrib)
            if acls is None or ccls != acls:
                raise _Ineligible("min/max reduction type classes differ")
            csrc = self.ex(contrib, ctx)
            red = "np.minimum" if op == "min" else "np.maximum"
            out.append(f"{indent}_f{u} = RED({csrc}, ({shape},), False)")
            out.append(f"{indent}_v{u} = {red}(_a{u}, "
                       f"{red}.reduce(_f{u}))")
            out.append(f"{indent}_a{u} = AST(s, {var!r}, _v{u}, "
                       f"{coerce})")
            return
        # '+'/'*': vectorize the contributed terms, then replay the
        # scalar loop's accumulation order store-for-store
        if kind == "spine":
            terms = info[2]
            upd = f"_a{u}"
            for j, (top, te) in enumerate(terms):
                csrc = self.ex(te, ctx)
                out.append(f"{indent}_f{u}_{j} = RED({csrc}, "
                           f"({shape},), {doall0})")
                upd = f"({upd} {top} _f{u}_{j}[_q{u}])"
        else:   # ("right", var, op, expr):  s = e op s
            top, te = info[2], info[3]
            csrc = self.ex(te, ctx)
            out.append(f"{indent}_f{u}_0 = RED({csrc}, ({shape},), "
                       f"{doall0})")
            upd = f"(_f{u}_0[_q{u}] {top} _a{u})"
        out.append(f"{indent}for _q{u} in range(_f{u}_0.shape[0]):")
        out.append(f"{indent}    _a{u} = AST(s, {var!r}, {upd}, "
                   f"{coerce})")

    def _emit_stmt(self, st: F.Stmt, out: list, indent: str) -> None:
        if id(st) in self.reductions:
            self._emit_reduction(st, out, indent)
            return
        if isinstance(st, NOOP_STMTS):
            return
        ctx = self._grid_ctx()
        if isinstance(st, F.Assign):
            self._emit_assign(st, ctx, out, indent)
            return
        k = len(self.axes)
        shape = ", ".join(f"_n{a}" for a in range(k))
        if isinstance(st, F.LogicalIf):
            self._uniq += 1
            u = self._uniq
            cond = self.ex(st.cond, ctx)
            out.append(f"{indent}_m{u} = np.broadcast_to(np.asarray("
                       f"{cond}, dtype=bool), ({shape},))")
            self._emit_guarded(f"_m{u}", [st.stmt], out, indent)
            return
        if isinstance(st, F.IfBlock):
            self._uniq += 1
            u = self._uniq
            cond = self.ex(st.arms[0][0], ctx)
            out.append(f"{indent}_m{u} = np.broadcast_to(np.asarray("
                       f"{cond}, dtype=bool), ({shape},))")
            self._emit_guarded(f"_m{u}", list(st.arms[0][1]), out,
                               indent)
            if len(st.arms) == 2:
                self._emit_guarded(f"(~_m{u})", list(st.arms[1][1]),
                                   out, indent)
            return
        raise _Ineligible(f"ineligible statement {type(st).__name__}")

    # -- whole-loop emission -------------------------------------------

    def emit(self, fn_name: str) -> list[str]:
        out = [f"def {fn_name}(s):"]
        k = len(self.axes)
        indent = "    "
        for a, lv in enumerate(self.levels):
            out.append(f"{indent}_lo{a} = int({self.ex(lv.start, None)})")
            out.append(f"{indent}_hi{a} = int({self.ex(lv.end, None)})")
            if lv.step is not None:
                out.append(f"{indent}_st{a} = "
                           f"int({self.ex(lv.step, None)})")
                out.append(f"{indent}if _st{a} == 0:")
                out.append(f"{indent}    ERR('zero DO step')")
            else:
                out.append(f"{indent}_st{a} = 1")
            out.append(f"{indent}_n{a} = len(range(_lo{a}, _hi{a} + "
                       f"(1 if _st{a} > 0 else -1), _st{a}))")
            out.append(f"{indent}if _n{a}:")
            indent += "    "
        for a in range(k):
            out.append(f"{indent}_iv{a} = np.arange(_lo{a}, _lo{a} + "
                       f"_st{a} * _n{a}, _st{a}, dtype=np.int64)")
            shape = ["1"] * k
            shape[a] = "-1"
            out.append(f"{indent}_g{a} = _iv{a}.reshape"
                       f"({', '.join(shape)})")
        for st in self.body:
            self._emit_stmt(st, out, indent)
        # sequential DO variables keep their scalar-loop final values;
        # DOALL variables live in discarded worker scopes and must not
        # leak (matching _parallel_do/_do_loop semantics exactly)
        for a in range(k - 1, -1, -1):
            indent = "    " * (a + 2)
            if not isinstance(self.levels[a], C.ParallelDo) \
                    and a not in self.private_axes:
                out.append(f"{indent}SSET(s, {self.axes[a]!r}, "
                           f"_lo{a} + _st{a} * (_n{a} - 1))")
        return out


def emit_module(interp: Interpreter, stmts: list[F.Stmt],
                unit: str) -> str:
    """Deterministic module text for one statement list: a ``make(rt)``
    returning one function per statement — ``_s<i>`` for each lowered
    loop, ``rt.fallback(i)`` for everything else."""
    lowered: dict[int, list[str]] = {}
    for i, s in enumerate(stmts):
        if isinstance(s, _LOOPS):
            try:
                lowered[i] = _LoopLowerer(interp, s, unit).emit(f"_s{i}")
            except _Ineligible:
                pass
    head = [
        f'"""jit-source module: unit {unit!r}, {len(stmts)} '
        f'statements, {len(lowered)} vectorized loops '
        f'(emitter v{JIT_VERSION})."""',
        "import numpy as np",
        "",
        "",
        "def make(rt):",
        "    fb = rt.fallback",
        "    G = rt.scalar",
        "    VL = rt.vload",
        "    VS = rt.vstore",
        "    CALL = rt.call",
        "    DIV = rt.div",
        "    AND = rt.and_",
        "    OR = rt.or_",
        "    EQV = rt.eqv",
        "    NEQV = rt.neqv",
        "    NOT = rt.not_",
        "    NP = rt.np_funcs",
        "    ERR = rt.error",
        "    SSET = rt.sset",
        "    AST = rt.astore",
        "    RED = rt.red_flat",
        f"    rt.tally({len(lowered)}, {len(stmts) - len(lowered)})",
        "    fns = []",
    ]
    body: list[str] = []
    for i in range(len(stmts)):
        if i in lowered:
            body.append("")
            body.extend("    " + line for line in lowered[i])
            body.append(f"    fns.append(_s{i})")
        else:
            body.append(f"    fns.append(fb({i}))")
    tail = ["    return fns", ""]
    return "\n".join(head + body + tail)
