"""The compiled engine's emitter: one Python module text per statement list.

:class:`repro.execmodel.compiled.Compiler` asks :func:`emit_module` for
the text of each statement list it meets.  The module's ``make(rt)``
returns one function per statement, in one of two forms:

- **vector text** (``_v<i>``, :class:`_LoopLowerer`) — a loop nest whose
  whole-grid NumPy evaluation is provably bit-equal to the scalar loop;
- **scalar text** (``_s<i>``, :class:`_ScalarText`) — every other
  statement, as the tree handlers' own operation sequence: each name
  looked up once when the statement starts, and per access only what
  can change (the value, each subscript's ``int()``, the bounds test,
  the recorder's calls, the store ladder); statement dispatch and
  symbol-table facts resolved at emission.  Assignment, block and
  logical IF, DO, LOCK/UNLOCK, RETURN, the no-ops and the DO/IF bodies
  the text writes whole are inline; ``ParallelDo``, CALL statements,
  other nested lists and calls of program units go to the interpreter's
  own handlers by AST node.

A list holding a statement kind the scalar text does not cover — GOTO,
computed GOTO, PRINT, READ, WHERE, STOP, other I/O — is not emitted at
all (``make = None``): it runs whole on the tree walk, which is total
and is the reference.

What the vector text takes:

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
  share a type class;
- **partial-sum DOALLs** — the one shape the restructurer's reduction
  pass emits (loop-local real partials, a preamble assigning each a
  literal, accumulations into them, a postamble of ``LOCK; v = v op
  partial; UNLOCK`` triples): the contributed terms are evaluated
  vectorized, then every worker share of the interpreter's ``deal`` is
  folded sequentially from the preamble value and combined into ``v``
  through the scalar store ladder.  A zero-trip loop still runs
  preamble + postamble once.

A vector form loads each distinct grid once per straight-line block: a
load whose text comes again reads the local its first use filled.  The
reuse stops at the next store of any kind, at each guard arm and at each
nest level, so a repeat never reads past a store or a lane set that may
not have run.

A grid stores every lane once, so a DOALL level takes its vector text
only under a deal that hands each iteration to exactly one worker
(:meth:`Runtime.partition`, checked at loop entry before anything is
stored).  Under a deal that drops or repeats a position the loop runs
its scalar text — ``_parallel_do``, exactly as dealt — like the tree.

With a :class:`~repro.execmodel.shadow.ShadowRecorder` attached the
vector forms are recorder-aware (:func:`emit_module` with ``rec=True``;
the scalar text makes the same accesses either way, and tests the
``Runtime``'s recorder — a stand-in that never records when there is
none).  Every vector form first tests ``recording``: inside a checked
iteration of an enclosing loop the statement runs its scalar text, which
logs access by access.  Otherwise a sequential nest runs as it does
unrecorded (nothing is being checked), and a nest whose only parallel
level is the outermost opens the loop on the recorder with its iteration
count (the recorder opens no log for fewer than two), logs — from the
very ``_grid_key`` result each load/store indexes with — the flat
offsets of every reference paired with the outer iteration values (the
strip start for a collapsed strip-mined loop), one row per iteration for
each shared scalar the body names, and closes it.  Loops the lowering
proof cannot show conflict-free stay on the instrumented
``_parallel_do``, so conflict order and the per-loop cap are always the
tree's: LOCK/UNLOCK or a shared scalar write in the body, and a
parallel level below the outermost.  With a recorder or without, a
nest that writes hands over to its scalar text when — checked at loop
entry — two of its array names are bound to storage of one ``ndarray``.

Every vector form carries one exactness obligation — the vector
evaluation must be bit-equal to the scalar loop: plain or affine
loop-variable subscripts, intrinsics marked ``exact`` in
:data:`repro.fortran.intrinsics.INTRINSICS` only, reads of written
arrays restricted to the writing iteration's element.  Anything that
cannot be proven keeps the scalar text *per loop* (recurrences are
rejected, never approximated).  Signed-zero and NaN treatment of the
MIN/MAX lowerings follows the same table (``min``/``max`` are exact
elementwise).
"""

from __future__ import annotations

import math
import re
from itertools import chain
from typing import Optional

import numpy as np

from repro.cedar import nodes as C
from repro.cedar.library import CEDAR_LIBRARY
from repro.errors import InterpreterBudgetError, InterpreterError
from repro.execmodel.interp import (_DECL_STMTS, _SYNC_STMTS,
                                    Interpreter, _ReturnSignal,
                                    cyclic_deal)
from repro.execmodel.values import FArray, Scope
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import INTRINSICS

#: bump when the emitter changes: keys every cached ``jit-source``
#: artifact so stale module text can never be served to a newer runtime
JIT_VERSION = 5

#: statements that do nothing when executed (sync statements are
#: functional no-ops without a shadow recorder)
NOOP_STMTS = (F.ContinueStmt,) + _DECL_STMTS + _SYNC_STMTS

#: loop-nest levels the lowerer can walk through
LOOPS = (F.DoLoop, C.ParallelDo)

#: the statement kinds the scalar text writes (every other kind sends
#: its list to the tree)
WRITTEN = (F.Assign, C.ParallelDo, F.DoLoop, F.IfBlock, F.LogicalIf,
           F.CallStmt, F.ReturnStmt) + NOOP_STMTS

#: integers up to this magnitude survive a round trip through a double
_EXACT = 2 ** 53


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


class _Declined(Exception):
    """Internal: the list holds a statement the scalar text does not
    cover; it runs whole on the tree."""


#: binary operators Python spells itself, and the scalar ones whose
#: Fortran semantics need a :class:`Runtime` helper (``.and.``/``.or.``
#: evaluate both operands, like the tree walk: Fortran does not promise
#: short-circuiting)
_PY_OPS = {"+": "+", "-": "-", "*": "*", "**": "**", ".lt.": "<",
           ".le.": "<=", ".eq.": "==", ".ne.": "!=", ".gt.": ">",
           ".ge.": ">="}
_HELPER_OPS = {"/": "DIV", ".and.": "AND", ".or.": "OR", ".eqv.": "EQV",
               ".neqv.": "NEQV"}


def _fmt_literal(v) -> str:
    if isinstance(v, float) and not math.isfinite(v):
        return f"float({str(v)!r})"
    text = repr(v)
    # a sign must not bind looser than the operator beside it (``**``)
    return f"({text})" if text.startswith("-") else text


def _store_text(c: str, name: str, val: str, coerce: bool, dest: str,
                ind: str) -> list[str]:
    """Source of the tree's store of ``val`` (a local or literal) into
    scalar ``name`` — ``Interpreter._assign``'s coercion ladder, with
    the symbol-table fact pre-resolved into ``coerce`` — through the
    holding scope ``c`` resolved at entry (its dict is ``c``'s
    ``_d`` twin).  ``dest`` gets the value a fresh read would see.
    Both texts store scalars only through this."""
    d, n = "_d" + c[2:], repr(name)
    lines = [f"_o = {d}.get({n})",
             "if isinstance(_o, FA):",
             f"    {dest} = BOXW(_o, {n}, {val})",
             "else:",
             "    if SH.recording:",
             f"        SH.record_scalar({c}, {n}, 'w')",
             "    if isinstance(_o, INTS) and not isinstance(_o, BOOLS):",
             f"        {d}[{n}] = {dest} = TR({val})",
             f"    elif isinstance({val}, NDA):",
             f"        ERR({f'array value assigned to scalar {name!r}'!r})"]
    if coerce:
        lines += [f"    elif not isinstance({val}, BOOLS):",
                  f"        {d}[{n}] = {dest} = TR({val})"]
    lines += ["    else:", f"        {d}[{n}] = {dest} = {val}"]
    return [ind + line for line in lines]


def _hold_text(holders: dict) -> list[str]:
    """A function's opening lines: the holding scope ``_c<k>`` of each
    scalar name it touches, and that scope's dict ``_d<k>``."""
    return [line for name, c in holders.items()
            for line in (f"{c} = HOLD(s, {name!r})",
                         f"_d{c[2:]} = {c}.vars")]


class _NoRecorder:
    """What the access helpers consult when no race detector rides
    along: never recording, and deaf to LOCK/UNLOCK."""

    recording = False

    def acquire(self, name: str) -> None:
        pass

    release = acquire


class Runtime:
    """What emitted modules cannot embed, one instance per statement list
    (the ``rt`` handed to the module's ``make()``): names resolved at
    entry, the accesses the text does not write itself, bounds-checked
    grid loads and stores, the Fortran division/logical helpers, the
    numpy intrinsic table, the step budget, and the interpreter's own
    handlers for what the text hands over — nested statement lists,
    ``ParallelDo``, CALL statements, names only the tree can resolve.

    The scalar text makes the same accesses with and without a
    :class:`~repro.execmodel.shadow.ShadowRecorder`: ``shadow`` is the
    interpreter's recorder or a :class:`_NoRecorder`, and the text and
    these helpers make the tree handler's ``record_*`` calls, in the
    tree's order, while it is ``recording``."""

    #: the vectorizable intrinsics, as emitted code indexes them
    np_funcs = {name: info.np_fn for name, info in INTRINSICS.items()
                if info.exact}

    Return = _ReturnSignal
    truth = staticmethod(Interpreter._truth)

    def __init__(self, compiler, stmts: list, unit: str):
        self.compiler = compiler
        self.shadow = compiler.shadow or _NoRecorder()
        self.stmts = stmts
        self.unit = unit
        budget = compiler.interp.step_budget
        #: what the interpreter's step count may reach
        self.budget = math.inf if budget is None else budget

    def tally(self, vector: int, scalar: int) -> None:
        self.compiler.vectorized_loops += vector
        self.compiler.scalar_stmts += scalar

    # -- names resolved at entry ---------------------------------------
    #
    # A statement function looks each name up once, when it starts: no
    # statement of a list binds a name in a nearer scope than the one
    # holding it, and an unbound name is created in the root scope
    # (``Scope.set``), so the holder found at entry is the holder of
    # every later access.  Only the value is read per access.

    #: what the emitted store ladder and reads test values against
    FArray = FArray
    ints = (int, np.integer)
    bools = (bool, np.bool_)
    ndarray = np.ndarray

    @staticmethod
    def hold(scope: Scope, name: str) -> Scope:
        """The scope holding ``name``, or the root, which an unbound
        name is created in."""
        return scope.lookup_scope(name) or scope._root()

    def read(self, holder: Scope, name: str):
        """The tree's ``_eval_var`` through the holder resolved at entry;
        the text reads a plain value itself and comes here for the rest
        — no value, a COMMON box or whole array, a recorder logging."""
        v = holder.vars.get(name)
        if v is None:
            raise InterpreterError(f"undefined variable {name!r}")
        sh = self.shadow
        if isinstance(v, FArray):
            d = v.data
            if sh.recording:
                sh.record_array(v, name, "r",
                                idx=() if d.ndim == 0 else None)
            if d.ndim == 0:          # COMMON scalar box
                return d.item()
            return d
        if sh.recording:
            sh.record_scalar(holder, name, "r")
        return v

    def box_store(self, arr: FArray, name: str, value):
        """A scalar store to a name bound to an ``FArray`` (a COMMON
        box); returns the value as a fresh read would see it."""
        d = arr.data
        if self.shadow.recording:
            self.shadow.record_array(arr, name, "w",
                                     idx=() if d.ndim == 0 else None)
        d[...] = value
        return d.item() if d.ndim == 0 else d

    @staticmethod
    def trunc(v) -> int:
        """``int(np.trunc(v))``, the tree's integer store, as plain
        ``int(v)`` where the two agree: on floats, and on integers a
        double holds exactly."""
        c = v.__class__
        if c is float or c is np.float64 or (
                (c is int or c is np.int64) and -_EXACT <= v <= _EXACT):
            return int(v)
        return int(np.trunc(v))

    @staticmethod
    def array(scope: Scope, name: str, rank: int) -> tuple:
        """``(arr, data, lower bounds…, extents…)`` of the array bound
        to ``name`` when it has ``rank`` dimensions; else ``None`` in
        the first two places and the text takes :meth:`ref`/:meth:`store`
        (a call, or the tree's error)."""
        sc = scope.lookup_scope(name)
        v = sc.vars[name] if sc is not None else None
        if isinstance(v, FArray) and v.data.ndim == rank:
            return (v, v.data) + tuple(v.lowers) + v.data.shape
        return (None, None) + (0,) * (2 * rank)

    @staticmethod
    def oob(arr: FArray, dim: int, i: int):
        lo, n = arr.lowers[dim], arr.data.shape[dim]
        raise InterpreterError(
            f"subscript {i} out of bounds in dimension {dim + 1} "
            f"[{lo}, {lo + n - 1}]")

    def over_budget(self, line):
        """``exec_body``'s budget trip, for a statement written inline."""
        raise InterpreterBudgetError(
            f"statement budget of {self.compiler.interp.step_budget} "
            f"exceeded in {self.unit} (livelock?)", line=line)

    @staticmethod
    def sset(scope: Scope, name: str, value) -> None:
        scope.set(name, value)

    # -- per-access lookups: sections, and names :meth:`array` refused -
    #
    # Subscripts arrive as evaluated: ``FArray`` and ``record_array``
    # apply the tree's ``int()`` themselves.

    def ref(self, scope: Scope, name: str, idx: tuple = None,
            specs: list = None):
        """``name(idx)`` as the tree's ``_ref_or_call`` reads it: an
        element (``idx``) or section (``specs``) of the array bound to
        the name, else a call.  The emitter sends the tree every section
        of a name a call could resolve, so here that is an error."""
        sc = scope.lookup_scope(name)
        v = sc.vars[name] if sc is not None else None
        if not isinstance(v, FArray):
            return self.call(scope, name, idx)
        if self.shadow.recording:
            self.shadow.record_array(v, name, "r", idx=idx, specs=specs)
        return v.get(idx) if specs is None else v.slice_of(specs)

    def store(self, scope: Scope, name: str, value, idx: tuple = None,
              specs: list = None) -> None:
        """An element (``idx``) or section (``specs``) store."""
        arr = scope.get(name)
        if not isinstance(arr, FArray):
            raise InterpreterError(f"{name!r} is not an array")
        if self.shadow.recording:
            self.shadow.record_array(arr, name, "w", idx=idx, specs=specs)
        if specs is None:
            arr.set(idx, value)
        else:
            arr.slice_of(specs)[...] = value

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
        if len(parts) != arr.data.ndim:
            raise InterpreterError(
                f"rank mismatch: {len(parts)} subscripts for rank "
                f"{arr.data.ndim} array")
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

    def vload(self, scope: Scope, name: str, parts: tuple,
              cx=None, it=None):
        """Load a grid of elements; recorder-aware text passes the open
        loop ``cx`` (None when the recorder opened no log) and the
        lanes' iteration labels ``it``."""
        arr = scope.get(name)
        if not isinstance(arr, FArray):
            raise InterpreterError(f"{name!r} is not an array")
        key = self._grid_key(arr, parts)
        if cx is not None:
            self._log(cx, "r", arr, name, key, it)
        return arr.data[key]

    def vstore(self, scope: Scope, name: str, parts: tuple,
               value, cx=None, it=None) -> None:
        arr = scope.get(name)
        if not isinstance(arr, FArray):
            raise InterpreterError(f"{name!r} is not an array")
        key = self._grid_key(arr, parts)
        if cx is not None:
            self._log(cx, "w", arr, name, key, it)
        arr.data[key] = value

    # -- bulk shadow recording (recorder-aware text only) --------------

    def _log(self, cx, kind: str, arr: FArray, name: str, key: tuple,
             it) -> None:
        """One bulk row block for a grid access: the C-order offsets of
        the elements ``key`` indexes, paired with the lanes' iteration
        labels."""
        off = key[0]
        for j, n in zip(key[1:], arr.data.shape[1:]):
            off = off * n + j
        self.shadow.record_block(cx, kind, arr, name, off, it)

    def log_scalars(self, cx, scope: Scope, names: tuple, it) -> None:
        """A read per iteration of each shared scalar the loop names —
        a superset of what a guarded body evaluates, which only adds
        reads of cells a bulk-recorded loop never writes.  Nothing
        when the recorder opened no log (``cx`` None)."""
        if cx is None:
            return
        for name in names:
            sc = scope.lookup_scope(name)
            if sc is None:
                continue
            v = sc.vars[name]
            if isinstance(v, FArray):
                if v.data.ndim:
                    continue
                sc = v                       # COMMON scalar box
            self.shadow.record_block(cx, "r", sc, name, 0, it)

    @staticmethod
    def aliased(scope: Scope, names: tuple) -> bool:
        """Whether two of the array names are bound to storage of one
        ``ndarray`` (argument association, a reshaped dummy's view): the
        lowering proof compares references by name, so such a loop runs
        its scalar text."""
        seen = set()
        for name in names:
            sc = scope.lookup_scope(name)
            v = sc.vars[name] if sc is not None else None
            if isinstance(v, FArray):
                d = v.data
                while isinstance(d.base, np.ndarray):
                    d = d.base
                if id(d) in seen:
                    return True
                seen.add(id(d))
        return False

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

    @staticmethod
    def red_rows(value, shape: tuple):
        """A grid of contributed terms as one row per outer iteration,
        each row in sequential nest order."""
        a = np.asarray(value)
        if a.shape != shape:
            a = np.broadcast_to(a, shape)
        return a.reshape(shape[0], -1)

    def shares(self, n: int):
        """The worker shares ``_parallel_do`` walks for ``n`` iterations,
        exactly as the interpreter's deal hands them out."""
        interp = self.compiler.interp
        return interp.deal(n, max(1, min(interp.processors, n or 1)))

    def partition(self, n: int) -> bool:
        """Whether the interpreter's deal hands each of a DOALL's ``n``
        iterations to exactly one worker — what running the loop as one
        whole grid assumes.  A deal that drops or repeats a position
        must run exactly that, so the loop then takes its scalar text
        through ``_parallel_do``."""
        interp = self.compiler.interp
        if interp.deal is cyclic_deal:
            return True
        p = max(1, min(interp.processors, n or 1))
        verdicts = self.compiler.partitions
        ok = verdicts.get((n, p))
        if ok is None:
            ok = verdicts[n, p] = sorted(chain.from_iterable(
                interp.deal(n, p))) == list(range(n))
        return ok


def _scalar_locals(node: C.ParallelDo) -> Optional[dict]:
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
    names = set(_scalar_locals(pdo) or ())
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


class _LoopLowerer:
    """Analysis + Python/NumPy source emission for one loop nest.

    ``rec`` selects the recorder-aware text (module docstring)."""

    def __init__(self, interp: Interpreter, loop: F.Stmt, unit: str,
                 rec: bool = False):
        self.interp = interp
        self.unit = unit
        self.symtab = interp.tables.get(unit)
        if self.symtab is None:
            raise _Ineligible("no symbol table")
        self.loop = loop
        self.rec = rec
        self.levels: list[F.Stmt] = []
        self.axes: list[str] = []            # loop vars, outer -> inner
        self.private_axes: set[int] = set()  # declared in a PDO's locals
        self.writes: dict[str, tuple] = {}   # array -> per-dim axis mask
        self.red_vars: set[str] = set()
        self.reductions: dict[int, tuple] = {}  # id(stmt) -> lowering
        self.body: list[F.Stmt] = []
        #: level -> block size, for each level that is a collapsed
        #: strip-mine (the tree deals and labels strips, not lanes)
        self.strips: dict[int, int] = {}
        # partial-sum DOALL: partial -> preamble literal, the postamble
        # as (target, op, partial) combines, and its lock names
        self.partials: dict[str, float] = {}
        self.combines: list[tuple[str, str, str]] = []
        self.locks: list[str] = []
        self._folds: list[str] = []          # per-iteration fold lines
        self._arrays: set[str] = set()       # array names referenced
        #: scalar name -> the local holding its scope (resolved at entry)
        self._holders: dict[str, str] = {}
        #: source name of the iteration labels of the lanes being
        #: emitted while a bulk-recorded loop is open, else None
        self._it: Optional[str] = None
        #: load text -> the local its first use filled, within the
        #: current straight-line block (:meth:`_ex_ref`)
        self._loaded: dict[str, str] = {}
        self._uniq = 0
        self._collect_nest(loop)
        #: recorder-aware text of a nest with a parallel level: lowered
        #: only if it may log in bulk
        self.bulk = rec and any(isinstance(lv, C.ParallelDo)
                                for lv in self.levels)
        if self.bulk:
            self._check_bulk_structure()
        self._collect_reductions(loop)
        if self.partials:
            self._check_partial_sums()
        if self.bulk and self.red_vars - set(self.partials):
            raise _Ineligible("shared scalar written in a checked loop")
        self._collect_writes()

    # -- structure -----------------------------------------------------

    @staticmethod
    def _plain_level(s: F.Stmt) -> bool:
        if isinstance(s, C.ParallelDo):
            return (s.order == "doall" and not s.preamble
                    and not s.postamble and not s.locals_)
        return isinstance(s, F.DoLoop)

    def _user_callable(self, name: str) -> bool:
        """Whether a call to ``name`` resolves to a program unit or a
        Cedar library routine before any intrinsic of that name (the
        order of ``Interpreter._func_call``)."""
        return name in self.interp.units or name in CEDAR_LIBRARY

    def _match_partial_sums(self, node: C.ParallelDo) -> set:
        """Recognize ``reduction_xform``'s scalar output on the
        outermost DOALL and fill ``partials``/``combines``/``locks``;
        returns the locals that are not partials."""
        decls = _scalar_locals(node)
        if node.order != "doall" or not decls:
            raise _Ineligible("ineligible nest level")
        for st in node.preamble:
            name = st.target.name if isinstance(st, F.Assign) \
                and isinstance(st.target, F.Var) else None
            # real-typed partials only: an integer one (declared, or by
            # the implicit rule the tree applies to names its symbol
            # table does not hold) truncates on every store
            if name not in decls or name in self.partials \
                    or not isinstance(st.value, F.RealLit) \
                    or decls[name] not in ("real", "doubleprecision") \
                    or coerces_to_int(self.symtab, name):
                raise _Ineligible("preamble is not a partial's literal")
            self.partials[name] = st.value.value
        post = node.postamble
        if not self.partials or len(post) != 3 * len(self.partials):
            raise _Ineligible("postamble is not one combine per partial")
        for lock, st, unlock in zip(post[0::3], post[1::3], post[2::3]):
            if not (isinstance(lock, C.LockStmt)
                    and isinstance(unlock, C.UnlockStmt)
                    and lock.name == unlock.name
                    and isinstance(st, F.Assign)
                    and isinstance(st.target, F.Var)):
                raise _Ineligible("postamble is not LOCK/combine/UNLOCK")
            v, e = st.target.name, st.value
            if isinstance(e, F.BinOp) and e.op in ("+", "*"):
                op, args = e.op, [e.left, e.right]
            elif isinstance(e, F.FuncCall) and e.name in ("min", "max") \
                    and len(e.args) == 2 \
                    and not self._user_callable(e.name):
                op, args = e.name, e.args
            else:
                raise _Ineligible("unknown combine")
            if not (isinstance(args[0], F.Var) and args[0].name == v
                    and isinstance(args[1], F.Var)
                    and args[1].name in self.partials
                    and all(args[1].name != c[2] for c in self.combines)
                    and v not in decls and v != node.var
                    and not self._is_array_sym(v)):
                raise _Ineligible("combine is not v = v op partial")
            self.combines.append((v, op, args[1].name))
            if lock.name not in self.locks:
                self.locks.append(lock.name)
        return set(decls) - set(self.partials)

    def _collect_nest(self, loop: F.Stmt) -> None:
        node: F.Stmt = loop
        pending: list[tuple[int, set]] = []
        while True:
            if not self._plain_level(node):
                d = _desugar_stripmine(node)
                if d is not None:
                    self.strips[len(self.levels)] = node.step.value
                    node = d
                elif not self.levels and isinstance(node, C.ParallelDo) \
                        and (node.preamble or node.postamble):
                    names = self._match_partial_sums(node)
                    if names:
                        pending.append((0, names))
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
                    pending.append((len(self.axes), set(names)))
            if node.var in self.axes:
                raise _Ineligible("duplicate loop variable")
            self.levels.append(node)
            self.axes.append(node.var)
            body = node.body
            # declaration/CONTINUE no-ops around a single nested loop do
            # not break the nest (shared-termination DO chains end in a
            # labelled CONTINUE the tree walk also ignores)
            inner = [s for s in body if not isinstance(s, NOOP_STMTS)]
            if len(inner) == 1 and isinstance(inner[0], LOOPS):
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

    def _check_partial_sums(self) -> None:
        """The fold replays each partial on its own, after the grid:
        every partial must be a recognized accumulator (so nothing else
        reads or assigns it), and no combine target may also be
        accumulated directly in the body (its stores would interleave
        with the postambles worker by worker)."""
        if not set(self.partials) <= self.red_vars:
            raise _Ineligible("partial is not a recognized accumulator")
        if self.red_vars & {v for v, _, _ in self.combines}:
            raise _Ineligible("combine target accumulated in the body")

    def _check_bulk_structure(self) -> None:
        """Only loops the lowering proof shows conflict-free may log in
        bulk (their row order is not the tree's): one parallel level,
        the outermost, and no critical section.  ``__init__`` adds the
        third condition — no shared scalar accumulated — once the
        reductions are known."""
        if any(isinstance(lv, C.ParallelDo) for lv in self.levels[1:]):
            raise _Ineligible("parallel level below the outermost")
        if any(isinstance(n, (C.LockStmt, C.UnlockStmt))
               for st in self.loop.body for n in st.walk()):
            raise _Ineligible("critical section in a checked loop")

    def _shared_scalars(self) -> tuple:
        """Scalar names the original loop body reads that live outside
        the worker scope (inner DO variables not declared local are
        shared, and the tree records their reads)."""
        loop = self.loop
        private = {loop.var} | set(_scalar_locals(loop) or ())
        return tuple(sorted(
            {n.name for st in loop.body for n in st.walk()
             if isinstance(n, F.Var) and n.name not in private
             and not self._is_array_sym(n.name)}))

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
                # (…, contribution, call name, accumulator comes first)
                if isinstance(a, F.Var) and a.name == var:
                    return ("minmax", var, op, b, v.name, True)
                if isinstance(b, F.Var) and b.name == var:
                    return ("minmax", var, op, a, v.name, False)
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

    def _holder(self, name: str) -> str:
        return self._holders.setdefault(name, f"_c{len(self._holders)}")

    def ex(self, e: F.Expr, ctx: Optional[dict]) -> str:
        """Emit ``e`` as Python source.

        ``ctx`` maps each axis variable to its lane-array name (open grid
        or compressed); ``ctx=None`` is invariant mode: the scalar value
        of an expression no axis reaches, as :class:`_ScalarText` writes
        it but with the loop's proof obligations checked on every name.
        """
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit)):
            return _fmt_literal(e.value)
        if isinstance(e, F.Var):
            name = e.name
            if name in self.red_vars:
                raise _Ineligible("accumulator read outside reduction")
            if any(name == v for v, _, _ in self.combines):
                # worker w+1's iterations would see worker w's combine
                raise _Ineligible("combine target read in the loop")
            if ctx is not None and name in ctx:
                return ctx[name]
            if name in self.axes or name in self.writes:
                raise _Ineligible("loop-carried scalar read")
            if self._is_array_sym(name):
                # a whole-array read would vectorize where the scalar
                # loop raises (array condition / array arithmetic)
                raise _Ineligible("bare array reference")
            return f"RD({self._holder(name)}, {name!r})"
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
            self._arrays.add(name)
            load = (f"VL(s, {name!r}, ({', '.join(parts)},)"
                    f"{self._rec_args()})")
            # a load already made in this block reads its local: the
            # first use fills it where it stands, so the text's order of
            # evaluation is the order ``ex`` is called in
            local = self._loaded.get(load)
            if local is None:
                self._uniq += 1
                local = self._loaded[load] = f"_ld{self._uniq}"
                return f"({local} := {load})"
            return local
        return self._ex_call(name, list(subs), ctx)

    def _rec_args(self) -> str:
        """Trailing ``cx, it`` of a load/store emitted while a
        bulk-recorded loop is open."""
        return "" if self._it is None else f", _cx, {self._it}"

    def _ex_call(self, name: str, args, ctx: Optional[dict]) -> str:
        if name in self.writes or name in self.red_vars:
            raise _Ineligible("call shadows a written name")
        if ctx is not None:
            # a unit or library routine of an intrinsic's name is what
            # the tree walk calls
            if name not in Runtime.np_funcs or self._user_callable(name):
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
        if op in _PY_OPS:
            return f"({l} {_PY_OPS[op]} {r})"
        vec_logical = {".and.": "np.logical_and", ".or.": "np.logical_or",
                       ".eqv.": "np.equal", ".neqv.": "np.not_equal"}
        if ctx is not None and op in vec_logical:
            return f"{vec_logical[op]}({l}, {r})"
        if op in _HELPER_OPS and (ctx is None or op == "/"):
            return f"{_HELPER_OPS[op]}({l}, {r})"
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
        t = st.target
        parts = self._target_parts(t, ctx)   # evaluated first: VS(...)
        rhs = self.ex(st.value, ctx)
        self._arrays.add(t.name)
        out.append(f"{indent}VS(s, {t.name!r}, ({parts}), {rhs}"
                   f"{self._rec_args()})")
        self._loaded.clear()       # a later load sees what this stored

    def _emit_guarded(self, mask_src: str, assigns: list, out: list,
                      indent: str) -> None:
        """Compressed-lane lowering of one guard arm: a block of its
        own — it reuses no load made before it, and its last store ends
        it, so no load made on its lanes is reused after it."""
        self._loaded.clear()
        self._uniq += 1
        u = self._uniq
        out.append(f"{indent}_w{u} = np.nonzero({mask_src})")
        cctx = {}
        for a, v in enumerate(self.axes):
            out.append(f"{indent}_h{u}_{a} = _iv{a}[_w{u}[{a}]]")
            cctx[v] = f"_h{u}_{a}"
        it = self._it
        if it is not None:      # the true lanes' iteration labels
            out.append(f"{indent}_k{u} = {it}.ravel()[_w{u}[0]]")
            self._it = f"_k{u}"
        out.append(f"{indent}if _h{u}_0.size:")
        for st in assigns:
            self._emit_assign(st, cctx, out, indent + "    ")
        self._it = it

    def _emit_reduction(self, st: F.Stmt, out: list,
                        indent: str) -> None:
        info = self.reductions[id(st)]
        kind, var = info[0], info[1]
        if var in self.partials:
            self._emit_partial(info, out, indent)
            return
        ctx = self._grid_ctx()
        k = len(self.axes)
        shape = ", ".join(f"_n{a}" for a in range(k))
        doall0 = isinstance(self.levels[0], C.ParallelDo)
        self._uniq += 1
        u = self._uniq
        coerce = coerces_to_int(self.symtab, var)
        c = self._holder(var)
        out.append(f"{indent}_a{u} = RD({c}, {var!r})")
        if kind == "minmax":
            op, contrib = info[2], info[3]
            acls = self._sym_class(var)
            ccls = self._type_class(contrib)
            if acls is None or ccls != acls:
                raise _Ineligible("min/max reduction type classes differ")
            if self._user_callable(info[4]):
                raise _Ineligible("min/max names a user routine")
            csrc = self.ex(contrib, ctx)
            red = "np.minimum" if op == "min" else "np.maximum"
            out.append(f"{indent}_f{u} = RED({csrc}, ({shape},), False)")
            out.append(f"{indent}_v{u} = {red}(_a{u}, "
                       f"{red}.reduce(_f{u}))")
            out += _store_text(c, var, f"_v{u}", coerce, f"_a{u}", indent)
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
        out.append(f"{indent}    _y = {upd}")
        out += _store_text(c, var, "_y", coerce, f"_a{u}", indent + "    ")

    def _emit_partial(self, info: tuple, out: list, indent: str) -> None:
        """One accumulation into a partial: its contributed terms as one
        row per outer iteration, and the fold line that replays one
        element of them (``_q`` the dealt position, ``_r`` the place in
        the row) with the tree's own scalar arithmetic."""
        kind, var = info[0], info[1]
        ctx = self._grid_ctx()
        k = len(self.axes)
        shape = ", ".join(f"_n{a}" for a in range(k))
        acc = self._acc(var)
        self._uniq += 1
        u = self._uniq

        def rows(j: int, e: F.Expr) -> str:
            out.append(f"{indent}_f{u}_{j} = ROWS({self.ex(e, ctx)}, "
                       f"({shape},))")
            return f"_f{u}_{j}[_q, {0 if k == 1 else '_r'}]"

        if kind == "minmax":
            contrib, fname, acc_first = info[3:]
            # the partial is real; a real contribution keeps it so
            # whichever argument min/max hands back
            if self._type_class(contrib) != "f" \
                    or self._user_callable(fname):
                raise _Ineligible("min/max into a partial is not exact")
            term = rows(0, contrib)
            args = f"{acc}, {term}" if acc_first else f"{term}, {acc}"
            upd = f"CALL(s, {fname!r}, ({args}))"
        elif kind == "spine":
            upd = acc
            for j, (top, te) in enumerate(info[2]):
                upd = f"({upd} {top} {rows(j, te)})"
        else:   # ("right", var, op, expr):  s = e op s
            upd = f"({rows(0, info[3])} {info[2]} {acc})"
        self._folds.append(f"{acc} = {upd}")

    def _acc(self, partial: str) -> str:
        """The emitted function's local holding ``partial``."""
        return f"_p{list(self.partials).index(partial)}"

    def _emit_folds(self, out: list) -> None:
        """Worker by worker, as dealt: preamble value, the worker's
        share of the folds, postamble combines.  Runs once — on the one
        empty share — for a zero-trip loop, like ``_parallel_do``."""
        # a combine target is read once: every later value is what its
        # own store ladder returned, as a fresh read would see it
        cur = {}
        for v, _, _ in self.combines:
            if v not in cur:
                cur[v] = f"_v{len(cur)}"
                out.append(f"{cur[v]} = RD({self._holder(v)}, {v!r})")
        out.append("for _sh in DEAL(_n0):")
        for p, lit in self.partials.items():
            out.append(f"    {self._acc(p)} = {_fmt_literal(lit)}")
        out.append("    if _t:")
        out.append("        for _q in _sh:")
        indent = " " * 12
        if len(self.axes) > 1:
            out.append(f"{indent}for _r in range(_m):")
            indent += "    "
        out.extend(indent + line for line in self._folds)
        for v, op, p in self.combines:
            val = f"({cur[v]} {op} {self._acc(p)})" if op in "+*" \
                else f"CALL(s, {op!r}, ({cur[v]}, {self._acc(p)}))"
            out.append(f"    _y = {val}")
            out += _store_text(self._holder(v), v, "_y",
                               coerces_to_int(self.symtab, v), cur[v],
                               "    ")

    def _emit_stmt(self, st: F.Stmt, out: list, indent: str) -> None:
        if id(st) in self.reductions:
            self._emit_reduction(st, out, indent)
            if self.reductions[id(st)][1] not in self.partials:
                self._loaded.clear()    # the accumulator's stores
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

    def _emit_bounds(self, a: int, out: list, indent: str) -> None:
        lv = self.levels[a]
        out.append(f"{indent}_lo{a} = int({self.ex(lv.start, None)})")
        out.append(f"{indent}_hi{a} = int({self.ex(lv.end, None)})")
        if lv.step is not None:
            out.append(f"{indent}_st{a} = int({self.ex(lv.step, None)})")
            out.append(f"{indent}if _st{a} == 0:")
            out.append(f"{indent}    ERR('zero DO step')")
        else:
            out.append(f"{indent}_st{a} = 1")
        out.append(f"{indent}_n{a} = len(range(_lo{a}, _hi{a} + "
                   f"(1 if _st{a} > 0 else -1), _st{a}))")

    def _trips(self, a: int = 0) -> str:
        """Source of the iteration count the tree runs level ``a``
        with: its lanes, or its strips for a collapsed strip-mine."""
        if a in self.strips:
            return f"-(-_n{a} // {self.strips[a]})"
        return f"_n{a}"

    def _emit_deal_check(self, a: int, i: int, out: list,
                         indent: str) -> None:
        """A DOALL level runs as a grid only under a deal that is a
        partition of its iterations (of its strips, for a collapsed
        strip-mine); nothing has been stored yet, so otherwise the loop
        starts over on its scalar text."""
        if isinstance(self.levels[a], C.ParallelDo):
            out += [f"{indent}if not PART({self._trips(a)}):",
                    f"{indent}    return _s{i}(s)"]

    @property
    def _aliasable(self) -> bool:
        """Whether two of the arrays the nest names could be one
        ``ndarray`` that it writes (argument association)."""
        return bool(self.writes) and len(self._arrays) > 1

    @property
    def hands_over(self) -> bool:
        """Whether ``_v<i>`` can hand the loop to its scalar text
        ``_s<i>``: inside a checked iteration, under aliased array
        names, or under a deal that is not a partition (known after
        :meth:`emit`)."""
        return self.rec or self._aliasable or any(
            isinstance(lv, C.ParallelDo) for lv in self.levels)

    def emit(self, i: int) -> list[str]:
        """Source of ``_v<i>`` (indented for the body of ``make``)."""
        k = len(self.axes)
        # the outermost bounds are evaluated before the loop starts: the
        # tree opens the loop on the recorder after them
        head: list[str] = []
        self._emit_bounds(0, head, "")
        self._emit_deal_check(0, i, head, "")
        out: list[str] = []
        if self.partials:
            out.append("_t = False")
        indent = ""
        for a in range(k):
            if a:
                self._emit_bounds(a, out, indent)
                self._emit_deal_check(a, i, out, indent)
            out.append(f"{indent}if _n{a}:")
            indent += "    "
            self._loaded.clear()      # each nest level is a new block
            out.append(f"{indent}_iv{a} = np.arange(_lo{a}, _lo{a} + "
                       f"_st{a} * _n{a}, _st{a}, dtype=np.int64)")
            shape = ["1"] * k
            shape[a] = "-1"
            out.append(f"{indent}_g{a} = _iv{a}.reshape"
                       f"({', '.join(shape)})")
            if a == 0 and self.bulk:
                # iteration labels of the lanes: the loop variable, or
                # for a collapsed strip-mine the start of the lane's
                # strip — the iteration the tree runs the lane in
                self._it = "_g0"
                if 0 in self.strips:
                    self._it = "_it"
                    out.append(f"{indent}_it = _lo0 + (_g0 - _lo0) // "
                               f"{self.strips[0]} * {self.strips[0]}")
                scalars = self._shared_scalars()
                if scalars:
                    out.append(f"{indent}SCAL(_cx, s, {scalars!r}, "
                               f"{self._it})")
        for st in self.body:
            self._emit_stmt(st, out, indent)
        if self.partials:
            if k > 1:
                out.append(f"{indent}_m = "
                           + " * ".join(f"_n{a}" for a in range(1, k)))
            out.append(f"{indent}_t = True")
        # sequential DO variables keep their scalar-loop final values;
        # DOALL variables live in discarded worker scopes and must not
        # leak (matching _parallel_do/_do_loop semantics exactly)
        for a in range(k - 1, -1, -1):
            if not isinstance(self.levels[a], C.ParallelDo) \
                    and a not in self.private_axes:
                out.append(f"{'    ' * (a + 1)}SSET(s, {self.axes[a]!r}, "
                           f"_lo{a} + _st{a} * (_n{a} - 1))")
        if self.partials:
            self._emit_folds(out)

        fn = [f"def _v{i}(s):"]
        guards = []
        if self.rec:
            # already inside a checked iteration: the enclosing loop's
            # log wants every access in the tree's order
            guards.append("SH.recording")
        if self._aliasable:
            # the proof compares references by name
            guards.append(f"ALIAS(s, {tuple(sorted(self._arrays))!r})")
        if guards:
            fn += [f"    if {' or '.join(guards)}:",
                   f"        return _s{i}(s)"]
        fn += ["    " + line for line in _hold_text(self._holders) + head]
        if not self.bulk:
            return fn + ["    " + line for line in out]
        label = Interpreter._loop_label(self.loop)
        fn += [f"    _cx = OPEN({label!r}, {self._trips()})", "    try:"]
        fn += ["        " + line for line in out]
        fn += ["    finally:", "        CLOSE(_cx)"]
        # what the postambles' LOCK/UNLOCK pairs leave of the lockset
        fn += [f"    UNLOCK({lock!r})" for lock in self.locks]
        return fn


#: emitted text that is evaluated where it is written without reordering
#: anything: a local of the text, or a numeric or logical literal
_ATOM = re.compile(r"_t\d+|\(?-?[0-9][0-9.e+-]*\)?|True|False")
_INT_LITERAL = re.compile(r"\(?-?[0-9]+\)?")


class _ScalarText:
    """Scalar Python source for the statements of one list: what the
    tree handlers do, operation for operation, with statement dispatch,
    operator choice and symbol-table facts resolved now.

    Each function looks up the names it touches once, when it starts
    (:meth:`Runtime.hold`, :meth:`Runtime.array`).  Per access the text
    keeps what can change: the value in the holding scope's dict, the
    ``int()`` of each subscript, the bounds test with the tree's
    message, the recorder's ``record_*`` call while it is ``recording``
    (in the tree's order), and the store coercion ladder
    (:func:`_store_text`).  Values are computed into locals in the
    tree's evaluation order — except that a reference's subscripts are
    all evaluated before any is ``int()``-ed or an unknown function is
    named, which only swaps two errors of a program that has both.
    Elements of a name some DO of the
    statement may rebind, sections, and names :meth:`Runtime.array`
    refuses go through :meth:`Runtime.ref`/:meth:`Runtime.store`.

    Inline: assignment, block and logical IF, DO, LOCK/UNLOCK, RETURN,
    the no-ops, and each DO or IF body the text writes whole
    (:meth:`_whole`), with ``exec_body``'s step count and budget trip
    before each of its statements.  Handed to the interpreter's own
    handlers, by AST node: ``ParallelDo``, CALL statements, every other
    nested body (compiled as a list of its own), and every name only the
    tree can resolve at run time — calls of program units, ``Apply``
    nodes nobody resolved, unknown functions.  Any other statement kind
    (GOTO, computed GOTO, PRINT, READ, WHERE, STOP, assigned GOTO, I/O)
    raises :class:`_Declined`."""

    def __init__(self, interp: Interpreter, stmts: list[F.Stmt],
                 unit: str, rec: bool = False):
        self.interp = interp
        self.units = interp.units
        self.symtab = interp.tables.get(unit)
        self.unit = unit
        self.rec = rec
        self.stmts = stmts
        #: ``make``-level lines naming the AST nodes the text hands over
        self.binds: list[str] = []
        self._at = 0          # index of the statement being emitted

    def function(self, i: int) -> list[str]:
        """Source of ``_s<i>``, the scalar text of statement ``i``."""
        self._at = i
        top = self.stmts[i]
        self._holders: dict[str, str] = {}
        self._arrays: dict[tuple[str, int], int] = {}
        self._n = 0
        #: a DO may rebind its variable, array or not
        self._rebound = {n.var for n in top.walk()
                         if isinstance(n, LOOPS)}
        body: list[str] = []
        self.stmt(top, body, "    ")
        head = [f"def _s{i}(s):"]
        head += ["    " + line for line in _hold_text(self._holders)]
        for (name, rank), k in self._arrays.items():
            names = [f"_a{k}", f"_x{k}"] \
                + [f"_l{k}_{d}" for d in range(rank)] \
                + [f"_n{k}_{d}" for d in range(rank)]
            head.append(f"    {', '.join(names)} = "
                        f"ARR(s, {name!r}, {rank})")
        return head + body

    def node(self, target) -> str:
        """A ``make``-level name bound to ``target``, an AST node or
        nested list of the current statement."""
        path = _path(self.stmts[self._at], target)
        name = f"_k{len(self.binds)}"
        self.binds.append(f"{name} = rt.stmts[{self._at}]{path}")
        return name

    def _new(self) -> str:
        self._n += 1
        return f"_t{self._n}"

    def _holder(self, name: str) -> str:
        return self._holders.setdefault(name, f"_c{len(self._holders)}")

    # -- statements ----------------------------------------------------

    def stmt(self, s: F.Stmt, out: list, ind: str) -> None:
        if isinstance(s, F.Assign):
            self._assign(s, out, ind)
        elif isinstance(s, C.ParallelDo):
            out.append(f"{ind}PDO({self.node(s)}, s, U)")
        elif isinstance(s, F.DoLoop):
            self._do(s, out, ind)
        elif isinstance(s, F.IfBlock):
            self._arms(s.arms, out, ind)
        elif isinstance(s, F.LogicalIf):
            test = self._test(s.cond, out, ind)
            out.append(f"{ind}if {test}:")
            self.stmt(s.stmt, out, ind + "    ")
        elif isinstance(s, (C.LockStmt, C.UnlockStmt)):
            # the race detector tracks critical sections
            held = "LOCK" if isinstance(s, C.LockStmt) else "UNLOCK"
            out.append(f"{ind}{held}({s.name!r})")
        elif isinstance(s, NOOP_STMTS):
            out.append(f"{ind}pass")
        elif isinstance(s, F.CallStmt):
            out.append(f"{ind}CALLS({self.node(s)}, s, U)")
        elif isinstance(s, F.ReturnStmt):
            out.append(f"{ind}raise RET()")
        else:
            raise _Declined(type(s).__name__)

    def _do(self, s: F.DoLoop, out: list, ind: str) -> None:
        u = self._new()[2:]
        out.append(f"{ind}_lo{u} = int({self.ex(s.start, out, ind)})")
        out.append(f"{ind}_hi{u} = int({self.ex(s.end, out, ind)})")
        rng = f"range(_lo{u}, _hi{u} + 1)"
        if s.step is not None:
            out.append(f"{ind}_st{u} = int({self.ex(s.step, out, ind)})")
            out += [f"{ind}if _st{u} == 0:", f"{ind}    ERR('zero DO step')"]
            rng = (f"range(_lo{u}, _hi{u} + (1 if _st{u} > 0 else -1), "
                   f"_st{u})")
        d = "_d" + self._holder(s.var)[2:]
        out += [f"{ind}for _w{u} in {rng}:",
                f"{ind}    {d}[{s.var!r}] = _w{u}"]
        self._body(s.body, out, ind + "    ")

    def _arms(self, arms: list, out: list, ind: str) -> None:
        """IF arms: each later one in the ``else`` of the one before,
        where its condition's statements can go."""
        for k, (cond, body) in enumerate(arms):
            if k:
                out.append(f"{ind}else:")
                ind += "    "
            if cond is None:
                self._body(body, out, ind)
                return
            test = self._test(cond, out, ind)
            out.append(f"{ind}if {test}:")
            self._body(body, out, ind + "    ")
        if not arms:
            out.append(f"{ind}pass")

    def _body(self, body: list, out: list, ind: str) -> None:
        """A DO or IF body: written inline, each statement after
        ``exec_body``'s step count and budget test, or one ``XB``."""
        if not self._whole(body):
            out.append(f"{ind}XB({self.node(body)}, s, U)")
            return
        for st in body:
            out += [f"{ind}IP._steps += 1",
                    f"{ind}if IP._steps > BUD:",
                    f"{ind}    OVER({st.line!r})"]
            self.stmt(st, out, ind)
        if not body:
            out.append(f"{ind}pass")

    def _whole(self, body: list) -> bool:
        """Whether the text writes ``body`` inline: no statement in it,
        at any depth, is of a kind the text declines — so no GOTO can
        land on a label in it — and none of its own statements is a
        loop with a vector form, which keeps a list of its own."""
        for st in body:
            for n in st.walk():
                if isinstance(n, F.Stmt) and not isinstance(n, WRITTEN) \
                        or isinstance(n, F.Assign) and not isinstance(
                            n.target, (F.Var, F.ArrayRef, F.Apply)):
                    return False
        return not any(self._vectorizes(st) for st in body)

    def _vectorizes(self, st: F.Stmt) -> bool:
        if not isinstance(st, LOOPS):
            return False
        try:
            _LoopLowerer(self.interp, st, self.unit, self.rec).emit(0)
        except _Ineligible:
            return False
        return True

    def _assign(self, s: F.Assign, out: list, ind: str) -> None:
        t = s.target
        value = self._atom(self.ex(s.value, out, ind), out, ind)
        if isinstance(t, F.Var):
            out += _store_text(self._holder(t.name), t.name, value,
                               coerces_to_int(self.symtab, t.name),
                               "_r", ind)
        elif isinstance(t, (F.ArrayRef, F.Apply)):
            subs = t.subscripts if isinstance(t, F.ArrayRef) else t.args
            if any(isinstance(x, F.RangeExpr) for x in subs):
                specs = self._specs(subs, out, ind)
                out.append(f"{ind}ST(s, {t.name!r}, {value}, "
                           f"specs={specs})")
            else:
                self._element(t.name, subs, out, ind, value)
        else:
            raise _Declined("assignment target")

    # -- expressions ---------------------------------------------------

    def _atom(self, v: str, out: list, ind: str, local: bool = False
              ) -> str:
        """``v`` as a local (or, unless ``local``, a literal): computed
        here, once."""
        if _ATOM.fullmatch(v) and not (local and v[:2] != "_t"):
            return v
        t = self._new()
        out.append(f"{ind}{t} = {v}")
        return t

    def _seq(self, es, out: list, ind: str) -> list[str]:
        """Operands in the tree's order: a value already written that
        a later operand's statements would overtake is computed first."""
        vals: list[str] = []
        for e in es:
            mark = len(out)
            v = self.ex(e, out, ind)
            if len(out) > mark:
                for j, p in enumerate(vals):
                    if not _ATOM.fullmatch(p):
                        vals[j] = self._new()
                        out.insert(mark, f"{ind}{vals[j]} = {p}")
                        mark += 1
            vals.append(v)
        return vals

    def _test(self, cond: F.Expr, out: list, ind: str) -> str:
        """``Interpreter._truth`` of ``cond``; a bool is its own."""
        t = self._atom(self.ex(cond, out, ind), out, ind, local=True)
        return f"({t} if {t}.__class__ is bool else T({t}))"

    def _specs(self, subs, out: list, ind: str) -> str:
        """``Interpreter._spec`` of each subscript, as a list display."""
        parts = [p for x in subs for p in (
            (x.lo, x.hi, x.stride) if isinstance(x, F.RangeExpr) else (x,))]
        vals = iter(self._seq([p for p in parts if p is not None], out,
                              ind))

        def bound(e):
            return "None" if e is None else next(vals)

        return "[" + ", ".join(
            f"({bound(x.lo)}, {bound(x.hi)}, {bound(x.stride)})"
            if isinstance(x, F.RangeExpr) else f"int({next(vals)})"
            for x in subs) + "]"

    def _element(self, name: str, subs, out: list, ind: str,
                 store: Optional[str] = None) -> Optional[str]:
        """One element of array ``name``: loaded into a new local (whose
        name is returned), or assigned the local ``store``."""
        vals = [v if _INT_LITERAL.fullmatch(v)
                else self._atom(v, out, ind, local=True)
                for v in self._seq(subs, out, ind)]
        idx = "(" + "".join(f"{v}, " for v in vals) + ")"
        t = self._new() if store is None else None
        slow = (f"{t} = REF(s, {name!r}, {idx})" if store is None
                else f"ST(s, {name!r}, {store}, {idx})")
        if name in self._rebound:
            out.append(ind + slow)
            return t
        rank = len(vals)
        k = self._arrays.setdefault((name, rank), len(self._arrays))
        out += [f"{ind}if _x{k} is None:", f"{ind}    {slow}",
                f"{ind}else:"]
        ind += "    "
        for d, v in enumerate(vals):
            out.append(f"{ind}_i{d} = " + (
                v if _INT_LITERAL.fullmatch(v)
                else f"{v} if {v}.__class__ is int else int({v})"))
        ints = "(" + "".join(f"_i{d}, " for d in range(rank)) + ")"
        kind = "r" if store is None else "w"
        out += [f"{ind}if SH.recording:",
                f"{ind}    SH.record_array(_a{k}, {name!r}, {kind!r}, "
                f"idx={ints})"]
        for d in range(rank):
            out += [f"{ind}_j{d} = _i{d} - _l{k}_{d}",
                    f"{ind}if _j{d} < 0 or _j{d} >= _n{k}_{d}:",
                    f"{ind}    OOB(_a{k}, {d}, _i{d})"]
        key = ", ".join(f"_j{d}" for d in range(rank))
        out.append(f"{ind}_x{k}[{key}] = {store}" if store is not None
                   else f"{ind}{t} = _x{k}[{key}]")
        return t

    def ex(self, e: F.Expr, out: list, ind: str) -> str:
        """Source of ``e``'s value; the statements it needs first go to
        ``out``."""
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit, F.StrLit)):
            return _fmt_literal(e.value)
        if isinstance(e, F.Var):
            c = self._holder(e.name)
            t = self._new()
            out += [f"{ind}{t} = _d{c[2:]}.get({e.name!r})",
                    f"{ind}if {t} is None or isinstance({t}, FA) "
                    f"or SH.recording:",
                    f"{ind}    {t} = RD({c}, {e.name!r})"]
            return t
        if isinstance(e, F.BinOp) and e.op in _PY_OPS:
            l, r = self._seq((e.left, e.right), out, ind)
            return f"({l} {_PY_OPS[e.op]} {r})"
        if isinstance(e, F.BinOp) and e.op in _HELPER_OPS:
            l, r = self._seq((e.left, e.right), out, ind)
            return f"{_HELPER_OPS[e.op]}({l}, {r})"
        if isinstance(e, F.UnOp) and e.op in ("-", "+", ".not."):
            x = self.ex(e.operand, out, ind)
            return {"-": f"(-{x})", "+": x, ".not.": f"NOT({x})"}[e.op]
        name = getattr(e, "name", None)
        callable_ = name in CEDAR_LIBRARY or name in INTRINSICS
        if name not in self.units or name in CEDAR_LIBRARY:
            if isinstance(e, F.FuncCall) and callable_:
                args = "".join(f"{a}, "
                               for a in self._seq(e.args, out, ind))
                return f"CALL(s, {name!r}, ({args}))"
            if isinstance(e, F.ArrayRef):
                if not e.is_section():
                    return self._element(name, e.subscripts, out, ind)
                if not callable_:
                    specs = self._specs(e.subscripts, out, ind)
                    return f"REF(s, {name!r}, specs={specs})"
        # what the tree resolves as it runs: a program unit's call, an
        # ``Apply``, an unknown function or operator, a stray section
        return f"EV({self.node(e)}, s, U)"


def _path(root, target) -> Optional[str]:
    """Python source of the attribute/index path from ``root`` to the
    node or list ``target`` below it (found by identity)."""
    if root is target:
        return ""
    if isinstance(root, F.Node):
        for name in F.node_slots(type(root)).child:
            path = _path(getattr(root, name), target)
            if path is not None:
                return f".{name}{path}"
    elif isinstance(root, (list, tuple)):
        for k, item in enumerate(root):
            path = _path(item, target)
            if path is not None:
                return f"[{k}]{path}"
    return None


def emit_module(interp: Interpreter, stmts: list[F.Stmt], unit: str,
                rec: bool = False) -> str:
    """Deterministic module text for one statement list: a ``make(rt)``
    returning one function per statement — the vector form ``_v<i>`` of
    each loop the lowerer proves (with the loop's scalar text beside it
    when the vector form can hand over), the scalar text ``_s<i>`` of
    everything else.  ``rec`` asks for the recorder-aware vector forms
    (module docstring); the scalar text is the same either way.  A list
    holding a statement the scalar text declines gets ``make = None``:
    it runs whole on the tree."""
    scalar = _ScalarText(interp, stmts, unit, rec)
    mode = f"emitter v{JIT_VERSION}{', recorder-aware' if rec else ''}"
    body: list[str] = []
    fns: list[str] = []
    try:
        for i, s in enumerate(stmts):
            lines = None
            if isinstance(s, LOOPS):
                try:
                    lowerer = _LoopLowerer(interp, s, unit, rec)
                    lines = lowerer.emit(i)
                    if lowerer.hands_over:
                        lines = scalar.function(i) + lines
                except _Ineligible:
                    pass
            fns.append(f"_s{i}" if lines is None else f"_v{i}")
            body.append("")
            body.extend("    " + line
                        for line in lines or scalar.function(i))
    except _Declined as why:
        return (f'"""jit-source module: unit {unit!r}, {len(stmts)} '
                f'statements, run on the tree ({why}; {mode})."""\n'
                f'make = None\n')
    vector = sum(name.startswith("_v") for name in fns)
    used = set(re.findall(r"\b[A-Z]+\b", "\n".join(body)))
    head = [
        f'"""jit-source module: unit {unit!r}, {len(stmts)} '
        f'statements, {vector} vectorized loops ({mode})."""',
        "import numpy as np" if vector else "",
        "",
        "",
        "def make(rt):",
    ]
    head += [f"    {name} = rt.{attr}" for name, attr in _HELPERS.items()
             if name in used]
    head += ["    " + line for line in scalar.binds]
    head.append(f"    rt.tally({vector}, {len(stmts) - vector})")
    return "\n".join(head + body
                     + ["", f"    return [{', '.join(fns)}]", ""])


#: the names emitted text calls the :class:`Runtime` by -> its attribute;
#: a module binds the ones its text uses
_HELPERS = {
    "SSET": "sset", "CALL": "call",
    "DIV": "div", "AND": "and_", "OR": "or_", "EQV": "eqv",
    "NEQV": "neqv", "NOT": "not_", "ERR": "error",
    # names resolved at entry, and the scalar store
    "HOLD": "hold", "RD": "read", "BOXW": "box_store", "TR": "trunc",
    "FA": "FArray", "INTS": "ints", "BOOLS": "bools", "NDA": "ndarray",
    "SH": "shadow",
    # scalar text
    "ARR": "array", "OOB": "oob", "REF": "ref", "ST": "store",
    "T": "truth", "LOCK": "shadow.acquire", "UNLOCK": "shadow.release",
    "RET": "Return", "U": "unit", "XB": "compiler.exec_body",
    "IP": "compiler.interp", "BUD": "budget", "OVER": "over_budget",
    # ... and hands to the interpreter's own handlers, by AST node
    "PDO": "compiler.interp._parallel_do",
    "CALLS": "compiler.interp._call_stmt", "EV": "compiler.interp.eval",
    # vector forms
    "VL": "vload", "VS": "vstore", "NP": "np_funcs", "RED": "red_flat",
    "ROWS": "red_rows", "DEAL": "shares", "PART": "partition",
    # recorder-aware vector forms
    "OPEN": "shadow.open_loop",
    "CLOSE": "shadow.close_loop", "SCAL": "log_scalars",
    "ALIAS": "aliased",
}
