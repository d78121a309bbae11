"""The compiled engine's emitter: one Python module text per statement list.

:class:`repro.execmodel.compiled.Compiler` asks :func:`emit_module` for
the text of each statement list it meets.  The module's ``make(rt)``
returns one function per statement, in one of two forms:

- **scalar text** (``_s<i>``, :class:`_ScalarText`) — every statement,
  as the tree handlers' own operation sequence: each name looked up once
  when the statement starts, and per access only what can change (the
  value, each subscript's ``int()``, the bounds test, the recorder's
  calls, the store by declared type); statement dispatch, symbol-table
  facts and each intrinsic or library function it calls resolved at
  emission — and, unrecorded, a closed region keeps its scalars in
  locals, stored back once.  Assignment,
  block and logical IF, DO, LOCK/UNLOCK, RETURN, the no-ops and the
  DO/IF bodies the text writes whole are inline; ``ParallelDo``, CALL
  statements, other nested lists and calls of program units go to the
  interpreter's own handlers by AST node;
- **vector text** (``_v<i>``, :class:`_LoopLowerer`, recorder-aware
  only) — the race detector's bulk logger: a DOALL whose whole-grid
  NumPy evaluation is provably bit-equal to the scalar loop (so no
  ``**`` over lanes: NumPy's array power is not), with the
  loop's scalar text beside it to hand over to.  Only its lanes are its
  own: every subexpression the loop variable does not reach, and the
  function's lookups, are scalar text;

and, unrecorded, **worker text** (``_p<k>``) — one share of a parallel
loop whose preamble, body and postamble the scalar text writes whole:
``_parallel_do`` deals the iterations (a DOACROSS's in one share, in
order) and builds each worker scope, and
the worker function looks its names up once in that scope, then runs
the preamble, each iteration of its share and the postamble.

A list holding a statement kind the scalar text does not cover — GOTO,
computed GOTO, PRINT, READ, WHERE, STOP, other I/O — is not emitted at
all (``make = None``): it runs whole on the tree walk, which is total
and is the reference.

With a :class:`~repro.execmodel.shadow.ShadowRecorder` attached the
text is recorder-aware (:func:`emit_module` with ``rec=True``).  The
scalar text makes the same accesses either way.  Unrecorded, it runs
only against the ``Runtime``'s stand-in recorder, which never records,
so it tests no recorder at all, and it runs DOALL shares as worker
text; recorder-aware, each statement starts with one flag per name it
reads — whether some active loop would log that read, which it does
not for storage no iteration of the loop can write — so a skipped read
costs no call, it makes no recorder call at all for the index and
private scalars of the innermost DOALL around the list, which no log
keeps, and every DOALL outside a vector form runs the instrumented
``_parallel_do`` list by list.

The vector text exists only where it pays: logging a checked DOALL's
accesses in bulk instead of one call per access.  Every other loop —
every unrecorded one, and a sequential nest under a recorder — runs its
scalar text.  A vector form takes only the shapes the race-checked runs
of the restructurer's output reach: one DOALL level whose body holds no
loop, guard, call, LOCK/UNLOCK or shared scalar write (the lowering
proof shows it conflict-free, so its row order need not be the tree's),
in one of three forms:

- **plain** — array assignments, lowered to one set of NumPy operations
  over the iteration vector ``_g0``;
- **strip-mine** — the restructurer's strip-mined PARALLEL DO,
  recognized and collapsed back to its elementwise form first;
- **partial-sum** — the shape the restructurer's reduction pass emits
  (loop-local real partials, a preamble assigning each a literal, sums
  ``s = s ± e …`` into them, a postamble of ``LOCK; v = v + partial;
  UNLOCK`` triples): the terms are evaluated vectorized, then every
  worker share of the interpreter's ``deal`` is folded sequentially
  from the preamble value — same left-spine operator order as the tree
  walk — and combined into ``v`` through the scalar store.  A
  zero-trip loop still runs preamble + postamble once.

A vector form first tests ``recording``: inside a checked iteration of
an enclosing loop the statement runs its scalar text, which logs access
by access.  Otherwise it opens the loop on the recorder as
``_parallel_do`` does — with its iteration count (the recorder opens no
log for fewer than two) and the storage keys the loop cannot write (it
keeps no read of them) — and labels the log's lanes with their
iterations (the strip start for a collapsed strip-mined loop) once.
Its lanes are a range: every lane subscript is the loop variable plus
an invariant integer, so the array of each lane-accessed name is
resolved once per execution (:meth:`Runtime.lanes`), every access is
bounds-checked on its two lane ends before the form's first store
(:meth:`Runtime.in_bounds`; if one fails, the loop runs its scalar
text, which raises the tree's error at the tree's iteration), an access
indexes with a basic slice (a
load returns a view only of an array no store of the form writes), and
the log keeps it as one block row — first flat offset, offset step —
expanded when the loop closes; each shared scalar the body names gets
one such row, read by every lane.  Then it closes the loop.  Before it
opens the loop it evaluates the bounds (invariant) and adds to the
interpreter's step count what the tree's ``exec_body`` counts for the
loop — its body per iteration; a loop that could pass the step budget
runs its scalar text instead, which stops at the tree's statement.  A
loop that writes hands over to its scalar text when — checked at loop
entry — two of its array names are bound to storage of one
``ndarray``.  A grid stores every lane once, so the
DOALL takes its vector text only under a deal that hands each iteration
to exactly one worker (:meth:`Runtime.partition`, checked at loop entry
before anything is stored); under a deal that drops or repeats a
position the loop runs its scalar text — ``_parallel_do``, exactly as
dealt — like the tree.

A vector form loads each distinct grid once per straight-line block: a
repeat of a reference reads the local its first load filled, until the
next store of any kind.

Every vector form carries one exactness obligation — the vector
evaluation must be bit-equal to the scalar loop: plain or affine
loop-variable subscripts with INTEGER offsets, the arithmetic and
relational operators only, reads of written arrays restricted to the
writing iteration's element.  The lowerer proves it in a pre-pass over
the loop before it writes anything; a loop it cannot prove keeps the
scalar text (recurrences are rejected, never approximated).
"""

from __future__ import annotations

import ast
import math
import re
from itertools import chain
from typing import Optional

import numpy as np

from repro.cedar import nodes as C
from repro.cedar.library import CEDAR_LIBRARY
from repro.errors import InterpreterBudgetError, InterpreterError
from repro.execmodel.interp import (NOOP_STMTS, Interpreter, _ReturnSignal,
                                    cyclic_deal, declared_classes,
                                    store_class, stored_value)
from repro.execmodel.loop_shapes import desugar_stripmine, scalar_locals
from repro.execmodel.values import FArray, Scope
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import INTRINSICS
from repro.fortran.symtab import type_of

#: bump when the emitter changes: keys every cached ``jit-source``
#: artifact, of both modes, so stale module text can never be served to
#: a newer runtime
JIT_VERSION = 14


#: the loop statements
LOOPS = (F.DoLoop, C.ParallelDo)

#: the statement kinds the scalar text writes (every other kind sends
#: its list to the tree)
WRITTEN = (F.Assign, C.ParallelDo, F.DoLoop, F.IfBlock, F.LogicalIf,
           F.CallStmt, F.ReturnStmt) + NOOP_STMTS

def _promotable(symtab, name: str, privates: frozenset) -> bool:
    """Whether a closed region may keep scalar ``name`` in a local: no
    binding of it can be an ``FArray``.  An array of the unit or of a
    DOALL's private declarations is one; a COMMON name lives in a box,
    and a dummy argument may be bound to its actual's box or array."""
    if name in privates:
        return False
    sym = symtab.lookup(name) if symtab is not None else None
    return sym is None or not (sym.is_array or sym.is_dummy
                               or sym.common_block is not None)


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


def _stored_text(cls: str, name: str, val: str, used: set) -> str:
    """Source of what a store of ``val`` (a local or literal) into a name
    of store class ``cls`` keeps (:func:`stored_value`): worked out now
    for a literal; else the kind of value the class keeps as it is is
    tested inline, and any other goes through the rule.  The helpers it
    names go to ``used``."""
    if val[0] != "_":
        return _fmt_literal(stored_value(cls, name, ast.literal_eval(val)))
    rule = f"SV({cls!r}, {name!r}, {val})"
    if cls == "i":
        used.add("SV")
        return f"{val} if {val}.__class__ is int else {rule}"
    if cls == "r":
        used.update(("SV", "DBL"))
        return (f"{val} if {val}.__class__ is DBL or {val}.__class__ is "
                f"float else {rule}")
    used.update(("SV", "NDA"))
    return f"{rule} if isinstance({val}, NDA) else {val}"


def _store_text(c: str, name: str, val: str, cls: str, dest: str,
                ind: str, rec: bool, used: set) -> list[str]:
    """Source of the tree's store of ``val`` (a local or literal) into
    scalar ``name`` — ``Interpreter._assign``: a COMMON box takes it as
    its dtype does, any other binding keeps what the declared-type rule
    of store class ``cls`` makes of it (:func:`_stored_text`) — through
    the holding scope ``c`` resolved at entry (its dict is ``c``'s
    ``_d`` twin).  ``dest`` gets the value a fresh read would see; the
    recorder-aware text (``rec``) also makes the recorder's call.  Every
    store of a name a closed region does not keep in a local goes
    through this."""
    d, n = "_d" + c[2:], repr(name)
    used.update(("FA", "BOXW"))
    lines = [f"_o = {d}.get({n})",
             "if isinstance(_o, FA):",
             f"    {dest} = BOXW(_o, {n}, {val})",
             "else:"]
    if rec:
        used.add("SH")
        lines += ["    if SH.recording:",
                  f"        SH.record_scalar({c}, {n}, 'w')"]
    lines.append(f"    {d}[{n}] = {dest} = "
                 f"{_stored_text(cls, name, val, used)}")
    return [ind + line for line in lines]


class _NoRecorder:
    """What the access helpers consult when no race detector rides
    along: never recording, and deaf to LOCK/UNLOCK."""

    recording = False

    def acquire(self, name: str) -> None:
        pass

    release = acquire


class _Lanes:
    """One vector-form execution's view of a lane-accessed array
    (:meth:`Runtime.lanes`): the ``FArray``, or None when the name is
    bound to no array; the open log, once the form opens it; the lanes
    ``r`` and their last value; whether a load may return a view of the
    storage."""

    __slots__ = ("arr", "name", "cx", "r", "last", "view")

    def __init__(self, arr, name: str, r: range, view: bool):
        self.arr, self.name, self.cx, self.r = arr, name, None, r
        self.last = r[-1] if r else r.start
        self.view = view


class Runtime:
    """What emitted modules cannot embed, one instance per statement list
    (the ``rt`` handed to the module's ``make()``): names resolved at
    entry, the accesses the text does not write itself, bounds-checked
    grid loads and stores, the Fortran division/logical helpers, the
    step budget, and the interpreter's own
    handlers for what the text hands over — nested statement lists,
    ``ParallelDo``, CALL statements, names only the tree can resolve.

    The scalar text makes the same accesses with and without a
    :class:`~repro.execmodel.shadow.ShadowRecorder`: ``shadow`` is the
    interpreter's recorder or a :class:`_NoRecorder`, and the text and
    these helpers make the tree handler's ``record_*`` calls, in the
    tree's order, while it is ``recording``."""

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

    #: what the emitted stores and reads test values against
    FArray = FArray
    float64 = np.float64
    ndarray = np.ndarray
    #: the declared-type store rule, for what a store's text leaves to it
    stored = staticmethod(stored_value)

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

    # -- library and intrinsic calls ------------------------------------

    @staticmethod
    def function(name: str, scalar: bool):
        """What the text calls ``name`` by, bound once when the module is
        made: a Cedar library routine (which wins over an intrinsic of
        the name), or an intrinsic — its scalar form where the emitter
        proved every argument scalar, else the tree's dispatch, the
        NumPy form once an argument is an ``ndarray``."""
        if name in CEDAR_LIBRARY:
            return CEDAR_LIBRARY[name].fn
        info = INTRINSICS[name]
        fn = info.fn
        if scalar:
            return fn

        def call(*vals):
            for v in vals:
                if isinstance(v, np.ndarray):
                    if info.np_fn is None:
                        raise InterpreterError(
                            f"intrinsic {name!r} not vectorized")
                    return info.np_fn(*vals)
            return fn(*vals)
        return call

    @classmethod
    def call(cls, scope: Scope, name: str, vals: tuple):
        """``name(vals)`` for a name the text could not bind: a name
        :meth:`ref` finds bound to no array."""
        if name in CEDAR_LIBRARY or name in INTRINSICS:
            return cls.function(name, False)(*vals)
        raise InterpreterError(f"unknown function {name!r}")

    # -- grid loads/stores (bounds-checked like FArray.get/set) --------
    #
    # A vector form's lanes are a range: the loop's iterations ``r``,
    # each lane subscript the axis plus an invariant offset.  So each
    # lane subscript is monotonic, its extremes are its ends, and one
    # reference's elements are one strided run of the array's storage.

    def open_grid(self, i: int, scope: Scope, label: str, trips: int,
                  r: range, strip: Optional[int]):
        """Count and open the vector form of statement ``i`` on the
        recorder as ``_parallel_do`` opens its loop — ``trips``
        iterations, the read-only keys of the loop as bound in
        ``scope`` (:meth:`Interpreter._read_only`) for two or more — and
        label its lanes ``r`` with the iteration each runs in: the
        lane's own, or the start of its strip of ``strip`` lanes."""
        sh = self.shadow
        cx = sh.open_loop(label, trips, self.compiler.interp._read_only(
            self.stmts[i], scope) if trips > 1 else ())
        if cx is not None:
            lanes = np.arange(r.start, r.stop, r.step, dtype=np.int64)
            if strip is not None:
                lanes = r.start + (lanes - r.start) // strip * strip
            sh.grid(cx, lanes)
        return cx

    @staticmethod
    def lanes(scope: Scope, name: str, r: range, view: bool) -> "_Lanes":
        """The array bound to ``name`` as one vector-form execution
        indexes it over the lanes ``r``, resolved once."""
        sc = scope.lookup_scope(name)
        v = sc.vars[name] if sc is not None else None
        if isinstance(v, FArray):
            return _Lanes(v, name, r, view and v.data.flags.c_contiguous)
        return _Lanes(None, name, r, False)

    @staticmethod
    def in_bounds(*accesses) -> bool:
        """Whether each grid access ``(h, subs, lanes)`` of a vector form
        finds an array of its rank and, on every lane, an element — as
        ``FArray.get`` would: each lane subscript's two ends and each
        invariant one inside its dimension.  The form asks before its
        first store, so a loop any access of which fails runs its scalar
        text, which raises the tree's error at the tree's iteration."""
        for h, subs, lanes in accesses:
            arr = h.arr
            if arr is None or len(subs) != arr.data.ndim:
                return False
            for dim, sub in enumerate(subs):
                lo = arr.lowers[dim]
                n = arr.data.shape[dim]
                if dim in lanes:
                    if not (0 <= h.r.start + sub - lo < n
                            and 0 <= h.last + sub - lo < n):
                        return False
                elif not 0 <= int(sub) - lo < n:
                    return False
        return True

    def _lane_key(self, h: "_Lanes", subs: tuple, lanes: tuple,
                  kind: str) -> tuple:
        """The index of a grid access — ``subs`` the invariant subscript
        of each dimension, or for the dimensions in ``lanes`` the lane
        offset — in bounds (:meth:`in_bounds`), logged on the open loop
        as one block row."""
        arr = h.arr
        shape = arr.data.shape
        r = h.r
        step = r.step
        key = []
        start = stride = 0
        for dim, sub in enumerate(subs):
            lo = arr.lowers[dim]
            n = shape[dim]
            if dim in lanes:
                j = r.start + sub - lo
                stop = h.last + sub - lo + (1 if step > 0 else -1)
                key.append(slice(j, stop if stop >= 0 else None, step))
                start, stride = start * n + j, stride * n + step
            else:
                j = int(sub) - lo
                key.append(j)
                start, stride = start * n + j, stride * n
        if h.cx is not None:
            self.shadow.record_block(h.cx, kind, arr, h.name, start, stride)
        if len(lanes) > 1:
            # several lane dimensions advance together: a diagonal,
            # which only an index array selects
            key = [np.arange(k.start, k.start + step * len(r), step)
                   if isinstance(k, slice) else k for k in key]
        return tuple(key)

    def vload(self, h: "_Lanes", subs: tuple, lanes: tuple):
        """The lanes' elements of a grid reference: a view of storage
        no store of the vector form reaches, when it is contiguous, else
        a copy — what a gather would give."""
        v = h.arr.data[self._lane_key(h, subs, lanes, "r")]
        if h.view and lanes == (len(subs) - 1,) and h.r.step == 1:
            return v
        return v.copy()

    def vstore(self, h: "_Lanes", subs: tuple, lanes: tuple,
               value) -> None:
        h.arr.data[self._lane_key(h, subs, lanes, "w")] = value

    # -- bulk shadow recording -----------------------------------------

    def log_scalars(self, cx, scope: Scope, names: tuple) -> None:
        """A read per lane of each shared scalar the loop names,
        labelled with the lane's iteration — cells a bulk-recorded loop
        never writes, so a row the tree would not log changes no
        verdict.  Nothing when the recorder opened no log (``cx``
        None)."""
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
            self.shadow.record_block(cx, "r", sc, name, 0, 0)

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

    # -- partial-sum support --------------------------------------------

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


class _LoopLowerer:
    """The recorder-aware vector form of one DOALL, which logs it in bulk
    (module docstring): one level — a plain DOALL, a collapsed strip-mine
    or a partial-sum DOALL — whose body is array assignments and sums
    into its partials.

    The constructor is the proof: it walks the loop and raises
    :class:`_Ineligible` where the grid could differ from the scalar
    loop, so whether it raises is the whole decision.  :meth:`emit` then
    writes the lanes through a :class:`_ScalarText`, which writes every
    subexpression the loop variable does not reach — the bounds,
    invariant subscripts and offsets, invariant operands — and the
    function's lookups."""

    def __init__(self, interp: Interpreter, loop: F.Stmt, unit: str):
        self.symtab = interp.tables.get(unit)
        if self.symtab is None:
            raise _Ineligible("no symbol table")
        self.loop = loop
        self.writes: dict[str, tuple] = {}   # array -> per-dim mask
        self.red_vars: set[str] = set()
        #: id(accumulation) -> its sum's ``(op, term)`` spine
        self.reductions: dict[int, list] = {}
        #: block size of a collapsed strip-mine (the tree deals and
        #: labels strips, not lanes)
        self.strip: Optional[int] = None
        # partial-sum DOALL: partial -> preamble literal, the postamble
        # as (target, partial) combines ``v = v + partial``, and its
        # lock names
        self.partials: dict[str, float] = {}
        self.combines: list[tuple[str, str]] = []
        self.locks: list[str] = []
        #: the array names the loop references
        self.arrays: set[str] = set()
        self._collect_level(loop)
        self._collect_reductions(loop)
        # the fold replays each partial on its own, after the grid: so
        # nothing else may read or assign one
        if not set(self.partials) <= self.red_vars:
            raise _Ineligible("partial is not a recognized accumulator")
        self._collect_writes()
        self._prove()

    @property
    def shape(self) -> str:
        """The vector form's shape: ``strip-mine``, ``partial-sum`` or
        ``plain``."""
        if self.strip is not None:
            return "strip-mine"
        return "partial-sum" if self.partials else "plain"

    # -- structure -----------------------------------------------------
    #
    # Only loops the lowering proof shows conflict-free may log in bulk
    # (their row order is not the tree's): a DOALL whose body holds only
    # array assignments and sums into its partials — no loop, guard,
    # LOCK/UNLOCK or shared scalar write, which :meth:`_collect_writes`
    # refuses — and no call, which :meth:`_prove` refuses.

    def _collect_level(self, loop: F.Stmt) -> None:
        if not isinstance(loop, C.ParallelDo) or loop.order != "doall":
            raise _Ineligible("not a DOALL")
        #: the level the grid runs: the DOALL, or the elementwise DOALL
        #: a collapsed strip-mine was made from
        self.level = loop
        d = desugar_stripmine(loop)
        if d is not None:
            self.strip = loop.step.value
            self.level = d
        elif loop.preamble or loop.postamble:
            self._match_partial_sums(loop)
        elif loop.locals_:
            raise _Ineligible("private locals")
        self.var = self.level.var
        self.body = self.level.body
        if all(isinstance(s, NOOP_STMTS) for s in self.body):
            raise _Ineligible("empty body")

    def _match_partial_sums(self, node: C.ParallelDo) -> None:
        """Recognize ``reduction_xform``'s scalar output and fill
        ``partials``/``combines``/``locks``: its locals are exactly the
        partials."""
        decls = scalar_locals(node)
        if not decls:
            raise _Ineligible("partials are not scalar locals")
        for st in node.preamble:
            name = st.target.name if isinstance(st, F.Assign) \
                and isinstance(st.target, F.Var) else None
            # real-typed partials only: an integer one truncates on
            # every store
            if name not in decls or name in self.partials \
                    or not isinstance(st.value, F.RealLit) \
                    or decls[name] not in ("real", "doubleprecision"):
                raise _Ineligible("preamble is not a partial's literal")
            self.partials[name] = st.value.value
        post = node.postamble
        if set(decls) != set(self.partials) \
                or len(post) != 3 * len(self.partials):
            raise _Ineligible("postamble is not one combine per partial")
        for lock, st, unlock in zip(post[0::3], post[1::3], post[2::3]):
            if not (isinstance(lock, C.LockStmt)
                    and isinstance(unlock, C.UnlockStmt)
                    and lock.name == unlock.name
                    and isinstance(st, F.Assign)
                    and isinstance(st.target, F.Var)):
                raise _Ineligible("postamble is not LOCK/combine/UNLOCK")
            v, e = st.target.name, st.value
            if not (isinstance(e, F.BinOp) and e.op == "+"
                    and isinstance(e.left, F.Var) and e.left.name == v
                    and isinstance(e.right, F.Var)
                    and e.right.name in self.partials
                    and all(e.right.name != p for _, p in self.combines)
                    and v not in decls and v != node.var
                    and not self._is_array_sym(v)):
                raise _Ineligible("combine is not v = v + partial")
            self.combines.append((v, e.right.name))
            if lock.name not in self.locks:
                self.locks.append(lock.name)

    def _collect_reductions(self, loop: F.Stmt) -> None:
        """The sums into the partials: a bulk-logged loop writes no
        shared scalar."""
        from repro.analysis.reductions import find_reductions

        for red in find_reductions(loop):
            if red.kind != "scalar" or red.op != "+" \
                    or red.var not in self.partials or len(red.stmts) != 1:
                continue   # interleaved accumulations: order not ours
            [st] = red.stmts
            terms = self._sum_spine(st, red.var) \
                if any(st is b for b in self.body) else None
            if terms is not None:
                self.reductions[id(st)] = terms
                self.red_vars.add(red.var)

    def _shared_scalars(self) -> tuple:
        """Scalar names the original loop body reads that live outside
        the worker scope."""
        loop = self.loop
        private = {loop.var} | set(scalar_locals(loop) or ())
        return tuple(sorted(
            {n.name for st in loop.body for n in st.walk()
             if isinstance(n, F.Var) and n.name not in private
             and not self._is_array_sym(n.name)}))

    @staticmethod
    def _sum_spine(st: F.Stmt, var: str) -> Optional[list]:
        """The ``(op, term)`` list of ``var = ((var ± e1) ± e2) ...``,
        the left spine the tree walk folds left to right and the fold
        replays in the same association; else None."""
        if not isinstance(st, F.Assign) \
                or not isinstance(st.target, F.Var) \
                or st.target.name != var:
            return None
        terms: list[tuple] = []
        node: F.Expr = st.value
        while isinstance(node, F.BinOp) and node.op in ("+", "-"):
            terms.append((node.op, node.right))
            node = node.left
        if terms and isinstance(node, F.Var) and node.name == var:
            return terms[::-1]
        return None

    def _collect_writes(self) -> None:
        for st in self.body:
            if id(st) in self.reductions or isinstance(st, NOOP_STMTS):
                continue
            t = st.target if isinstance(st, F.Assign) else None
            if not isinstance(t, (F.ArrayRef, F.Apply)):
                raise _Ineligible(f"not an array assignment: "
                                  f"{type(st).__name__}")
            mask = self._axis_mask(self._subscripts(t))
            if all(e is None for e in mask):
                raise _Ineligible("write misses the loop axis")
            prev = self.writes.get(t.name)
            if prev is not None and prev != mask:
                raise _Ineligible("two write shapes for one array")
            self.writes[t.name] = mask

    @staticmethod
    def _subscripts(ref) -> list:
        return ref.subscripts if isinstance(ref, F.ArrayRef) else ref.args

    def _uses_axis(self, e: F.Expr) -> bool:
        return any(isinstance(n, F.Var) and n.name == self.var
                   for n in e.walk())

    def _split_affine(self, sub: F.Expr) -> Optional[tuple]:
        """``sub`` as ``axis``, ``axis ± c`` or ``c + axis`` with an
        integer invariant offset: (op, offset|None)."""
        if isinstance(sub, F.Var) and sub.name == self.var:
            return ("+", None)
        if isinstance(sub, F.BinOp) and sub.op in ("+", "-"):
            l, r = sub.left, sub.right
            l_ax = isinstance(l, F.Var) and l.name == self.var
            r_ax = isinstance(r, F.Var) and r.name == self.var
            cand = None
            if l_ax and not r_ax and not self._uses_axis(r):
                cand = (sub.op, r)
            elif sub.op == "+" and r_ax and not l_ax \
                    and not self._uses_axis(l):
                cand = ("+", l)
            if cand is not None and self._integer(cand[1]):
                return cand
        return None

    def _integer(self, e: F.Expr) -> bool:
        """Whether invariant ``e`` is an INTEGER expression: literals,
        INTEGER names and elements (:func:`type_of`), and their
        arithmetic."""
        if isinstance(e, F.IntLit):
            return True
        if isinstance(e, F.Var):
            return type_of(self.symtab, e.name) == "integer"
        if isinstance(e, (F.ArrayRef, F.Apply)):
            return self._is_array_sym(e.name) \
                and type_of(self.symtab, e.name) == "integer"
        if isinstance(e, F.BinOp):
            return e.op in ("+", "-", "*", "/", "**") \
                and self._integer(e.left) and self._integer(e.right)
        if isinstance(e, F.UnOp):
            return e.op in ("-", "+") and self._integer(e.operand)
        return False

    def _axis_mask(self, subs) -> tuple:
        """Per-dim subscript classification: None for invariant
        subscripts, ``(op, offset-key)`` for affine ones.  The offset key
        (a structural repr) makes masks comparable, so the
        read-equals-write proof covers offsets too — a stencil read
        ``u(j+1)`` against a write ``u(j)`` is a mask mismatch, i.e. a
        rejected recurrence."""
        mask = []
        for sub in subs:
            if isinstance(sub, F.RangeExpr):
                raise _Ineligible("section subscript")
            aff = self._split_affine(sub)
            if aff is not None:
                op, off = aff
                mask.append((op, "" if off is None else repr(off)))
            elif self._uses_axis(sub):
                raise _Ineligible("loop var inside subscript arithmetic")
            else:
                mask.append(None)
        return tuple(mask)

    def _is_array_sym(self, name: str) -> bool:
        sym = self.symtab.lookup(name)
        return sym is not None and sym.is_array

    # -- the proof: a pre-pass over every expression the form writes ----
    #
    # The vector evaluation must be bit-equal to the scalar loop: reads
    # of written arrays only at the writing iteration's element, the
    # arithmetic and relational operators only, and nothing the scalar
    # text would hand to the tree.

    def _prove(self) -> None:
        lv = self.level
        for bound in (lv.start, lv.end, lv.step):
            if bound is not None:
                self._invariant(bound)
        for st in self.body:
            if id(st) in self.reductions:
                for _, term in self.reductions[id(st)]:
                    self._lane(term)
            elif isinstance(st, F.Assign):
                self._reference(st.target)
                self._lane(st.value)

    def _lane(self, e: F.Expr) -> None:
        """``e`` evaluated over the grid's lanes."""
        if not self._uses_axis(e):
            self._invariant(e)
        elif isinstance(e, (F.ArrayRef, F.Apply)) \
                and self._is_array_sym(e.name):
            mask = self._axis_mask(self._subscripts(e))
            if e.name in self.writes and mask != self.writes[e.name]:
                raise _Ineligible("read crosses written iterations")
            self._reference(e)
        elif isinstance(e, F.BinOp) and e.op == "**":
            # NumPy's array power is not bit-equal to the scalar ``**``
            raise _Ineligible("'**' over lanes")
        elif isinstance(e, F.BinOp) and (e.op in _PY_OPS or e.op == "/"):
            self._lane(e.left)
            self._lane(e.right)
        elif isinstance(e, F.UnOp) and e.op in ("-", "+"):
            self._lane(e.operand)
        elif not isinstance(e, F.Var):       # else the loop variable
            raise _Ineligible(f"cannot emit {type(e).__name__}")

    def _reference(self, ref) -> None:
        """An array reference the loop variable reaches: its invariant
        subscripts and affine offsets are scalar text."""
        self.arrays.add(ref.name)
        subs = self._subscripts(ref)
        for sub, entry in zip(subs, self._axis_mask(subs)):
            if entry is None:
                self._invariant(sub)
            else:
                off = self._split_affine(sub)[1]
                if off is not None:
                    self._invariant(off)

    def _invariant(self, e: F.Expr) -> None:
        """``e``, which must not depend on the iteration, as the scalar
        text writes it: literals, the arithmetic and relational
        operators, reads of scalars the loop neither indexes by nor
        assigns, and elements of arrays it does not write."""
        for n in e.walk():
            # a partial is read only by the fold, and a combine target
            # not at all (worker w+1's iterations would see worker w's
            # combine); the loop variable and written names vary by
            # iteration; a whole-array read would vectorize where the
            # scalar loop raises
            if isinstance(n, F.Var):
                if n.name in self.red_vars or n.name == self.var \
                        or n.name in self.writes \
                        or any(n.name == v for v, _ in self.combines) \
                        or self._is_array_sym(n.name):
                    raise _Ineligible(f"{n.name!r} read as an invariant")
            elif isinstance(n, F.ArrayRef) and self._is_array_sym(n.name):
                if n.name in self.writes:
                    raise _Ineligible("written array read at an "
                                      "invariant element")
                self.arrays.add(n.name)
            elif not (isinstance(n, (F.IntLit, F.RealLit, F.LogicalLit))
                      or isinstance(n, F.BinOp)
                      and (n.op in _PY_OPS or n.op == "/")
                      or isinstance(n, F.UnOp) and n.op in ("-", "+")):
                # a call, another operator, a section, or what the
                # scalar text hands to the tree (an ``Apply``)
                raise _Ineligible(f"cannot emit {type(n).__name__}")

    # -- lane emission -------------------------------------------------

    def emit(self, text: "_ScalarText", i: int) -> list[str]:
        """Source of ``_v<i>``, written by ``text``'s function writer,
        which hands the loop to its scalar text ``_s<i>`` inside a
        checked iteration, under aliased array names, or under a deal
        that is not a partition."""
        self._text = text
        # already inside a checked iteration, the enclosing loop's log
        # wants every access in the tree's order
        guards = ["SH.recording"]
        if self.writes and len(self.arrays) > 1:
            # the proof compares references by name
            text.used.add("ALIAS")
            guards.append(f"ALIAS(s, {tuple(sorted(self.arrays))!r})")
        head = [f"def _v{i}(s):", f"    if {' or '.join(guards)}:",
                f"        return _s{i}(s)"]
        return text._function(head, self.loop,
                              lambda out: self._write(i, out))

    def _write(self, i: int, out: list) -> None:
        text = self._text
        # the bounds are evaluated before the loop starts: the tree opens
        # the loop on the recorder after them.  The DOALL runs as a grid
        # only under a deal that is a partition of its iterations (of its
        # strips, for a collapsed strip-mine); nothing has been stored
        # yet, so otherwise the loop starts over on its scalar text.
        _, rng = text._bounds(self.level, out, "    ")
        # the iterations the tree runs: the lanes, or the strips of a
        # collapsed strip-mine
        trips = "_n0" if self.strip is None else f"-(-_n0 // {self.strip})"
        out += [f"    _r0 = {rng}", "    _n0 = len(_r0)",
                f"    if not PART({trips}):", f"        return _s{i}(s)"]
        #: where the bounds check goes once the body is written
        check = len(out)
        text.used.update(("PART", "SH", "OPEN", "CLOSE", "IP", "BUD"))
        # every statement the tree's ``exec_body`` would count — the body
        # per iteration, a partial-sum DOALL's preamble and postamble per
        # share: a loop that could pass the step budget runs its scalar
        # text, which stops where the tree does
        steps = f"{trips} * {len(self.loop.body)}"
        if self.partials:
            text.used.add("DEAL")
            out.append("    _sh0 = DEAL(_n0)")
            ends = len(self.loop.preamble) + len(self.loop.postamble)
            steps += f" + len(_sh0) * {ends}"
        out += [f"    if IP._steps + {steps} > BUD:",
                f"        return _s{i}(s)", f"    IP._steps += {steps}"]
        label = Interpreter._loop_label(self.loop)
        # the log labels each lane with the iteration the tree runs it
        # in: its own, or for a collapsed strip-mine its strip's start
        out += [f"    _cx = OPEN({i}, s, {label!r}, {trips}, _r0, "
                f"{self.strip})", "    try:", "        if _n0:"]
        #: where the lanes' own lines go once the body is written: the
        #: loop variable's values, if the text reads them, and the log
        #: of the arrays it indexes by lane (:meth:`_array`)
        at = len(out)
        self._g0 = False
        self._arrays: dict[str, str] = {}
        #: the invariant parts of the grid accesses, hoisted above the
        #: bounds check, and each access's arguments (:meth:`_parts`)
        self._hoisted: list[str] = []
        self._accesses: list[str] = []
        scalars = self._shared_scalars()
        if scalars:
            text.used.add("SCAL")
            out.append(f"            SCAL(_cx, s, {scalars!r})")
        #: the reference key of each grid loaded in the current
        #: straight-line block -> the local its first use filled
        self._loaded: dict[tuple, str] = {}
        self._folds: list[str] = []          # per-iteration fold lines
        for st in self.body:
            if id(st) in self.reductions:
                self._emit_partial(st.target.name, self.reductions[id(st)],
                                   out, " " * 12)
            elif isinstance(st, F.Assign):
                self._emit_assign(st, out, " " * 12)
        lanes = ["            _g0 = np.arange(_r0.start, _r0.stop, "
                 "_r0.step, dtype=np.int64)"] if self._g0 else []
        if self._arrays:
            lanes.append("            " + "".join(
                f"{local}.cx = " for local in self._arrays.values()) + "_cx")
        out[at:at] = lanes
        if self._accesses:
            # every access in bounds on every lane before the first
            # store — else, or if the hoisted text raises, the scalar
            # text raises where the tree does; a load may be a view of
            # storage no store of the form reaches
            text.used.update(("LANES", "INB"))
            checks = ", ".join(dict.fromkeys(self._accesses))
            out[check:check] = [
                "    if _n0:", "        try:", *self._hoisted,
                *(f"            {local} = LANES(s, {name!r}, _r0, "
                  f"{name not in self.writes})"
                  for name, local in self._arrays.items()),
                f"            _ok = INB({checks})",
                "        except Exception:", "            _ok = False",
                "        if not _ok:", f"            return _s{i}(s)"]
        if self.partials:
            self._emit_folds(out, " " * 8)
        out += ["    finally:", "        CLOSE(_cx)"]
        # what the postambles' LOCK/UNLOCK pairs leave of the lockset
        out += [f"    UNLOCK({lock!r})" for lock in self.locks]
        if self.locks:
            text.used.add("UNLOCK")

    def _array(self, name: str) -> str:
        """The local of the lane view of array ``name``
        (:meth:`Runtime.lanes`), resolved once per execution."""
        return self._arrays.setdefault(name, f"_A{len(self._arrays)}")

    def ex(self, e: F.Expr, out: list, ind: str) -> str:
        """Source of ``e`` over the grid's lanes (the loop variable is
        ``_g0``); a subexpression the loop variable does not reach is the
        scalar text's, its statements first in ``out``."""
        if not self._uses_axis(e):
            return self._text.ex(e, out, ind)
        if isinstance(e, F.Var):
            self._g0 = True
            return "_g0"
        if isinstance(e, (F.ArrayRef, F.Apply)):
            return self._load(e, out, ind)
        if isinstance(e, F.BinOp):
            l, r = self.ex(e.left, out, ind), self.ex(e.right, out, ind)
            if e.op == "/":
                self._text.used.add("DIV")
                return f"DIV({l}, {r})"
            return f"({l} {_PY_OPS[e.op]} {r})"
        x = self.ex(e.operand, out, ind)
        return f"(-{x})" if e.op == "-" else x

    def _parts(self, ref) -> str:
        """The arguments of a grid access of ``ref``: its array, each
        subscript's invariant value, or the lane offset of a dimension
        the loop variable indexes, then those dimensions.  Their scalar
        text is hoisted above the bounds check, which checks the access
        too: a value the loop does not write is the same there."""
        subs = self._subscripts(ref)
        parts, lanes = "", ""
        for dim, (sub, entry) in enumerate(zip(subs,
                                               self._axis_mask(subs))):
            if entry is None:
                parts += f"{self._text.ex(sub, self._hoisted, ' ' * 12)}, "
                continue
            lanes += f"{dim}, "
            op, off = self._split_affine(sub)
            if off is None:
                parts += "0, "
                continue
            off = self._text.ex(off, self._hoisted, " " * 12)
            parts += f"{off}, " if op == "+" else f"-{off}, "
        args = f"{self._array(ref.name)}, ({parts}), ({lanes})"
        self._accesses.append(f"({args})")
        return args

    def _load(self, ref, out: list, ind: str) -> str:
        """A grid load, logged.  A load already made in this block reads
        its local: the first use fills it where it stands, so the text's
        order of evaluation is the order :meth:`ex` is called in."""
        subs = self._subscripts(ref)
        key = (ref.name,) + tuple(
            entry or repr(sub)
            for sub, entry in zip(subs, self._axis_mask(subs)))
        local = self._loaded.get(key)
        if local is None:
            parts = self._parts(ref)
            local = self._loaded[key] = self._text._new()
            self._text.used.add("VL")
            return f"({local} := VL({parts}))"
        return local

    # -- statement lowerings -------------------------------------------

    def _emit_assign(self, st: F.Assign, out: list, ind: str) -> None:
        t = st.target
        parts = self._parts(t)
        rhs = self.ex(st.value, out, ind)
        self._text.used.add("VS")
        out.append(f"{ind}VS({parts}, {rhs})")
        self._loaded.clear()       # a later load sees what this stored

    def _emit_partial(self, var: str, terms: list, out: list,
                      ind: str) -> None:
        """One sum into a partial: each term's value per lane — a term
        the loop variable reaches already is one, an invariant one is
        broadcast — and the fold line that replays one lane (``_q``,
        the dealt position) with the tree's own scalar arithmetic."""
        acc = self._acc(var)
        upd = acc
        for op, term in terms:
            value = self.ex(term, out, ind)
            if not self._uses_axis(term):
                value = f"np.broadcast_to({value}, (_n0,))"
            f = self._text._new()
            out.append(f"{ind}{f} = {value}")
            upd = f"({upd} {op} {f}[_q])"
        self._folds.append(f"{acc} = {upd}")

    def _acc(self, partial: str) -> str:
        """The emitted function's local holding ``partial``."""
        return f"_p{list(self.partials).index(partial)}"

    def _emit_folds(self, out: list, ind: str) -> None:
        """Worker by worker, as dealt: preamble value, the worker's
        share of the folds, postamble combines.  Runs once — on the one
        empty share, which folds nothing — for a zero-trip loop, like
        ``_parallel_do``."""
        text = self._text
        # a combine target is read once: every later value is what its
        # own store returned, as a fresh read would see it
        cur = {}
        for v, _ in self.combines:
            if v not in cur:
                cur[v] = text.ex(F.Var(v), out, ind)
        out.append(f"{ind}for _sh in _sh0:")
        for p, lit in self.partials.items():
            out.append(f"{ind}    {self._acc(p)} = {_fmt_literal(lit)}")
        out.append(f"{ind}    for _q in _sh:")
        out += [f"{ind}        {line}" for line in self._folds]
        for v, p in self.combines:
            out.append(f"{ind}    _y = ({cur[v]} + {self._acc(p)})")
            cls = text.classes.get(v, store_class(self.symtab, v))
            out += _store_text(text._holder(v), v, "_y", cls, cur[v],
                               ind + "    ", True, text.used)


#: emitted text that is evaluated where it is written without reordering
#: anything: a local of the text, or a numeric or logical literal
_ATOM = re.compile(r"_[tu]\d+|\(?-?[0-9][0-9.e+-]*\)?|True|False")
_INT_LITERAL = re.compile(r"\(?-?[0-9]+\)?")


class _ScalarText:
    """Scalar Python source for the statements of one list: what the
    tree handlers do, operation for operation, with statement dispatch,
    operator choice and symbol-table facts resolved now.

    Each function looks up the names it touches once, when it starts
    (:meth:`Runtime.hold`, :meth:`Runtime.array`).  Per access the text
    keeps what can change: the value in the holding scope's dict, the
    ``int()`` of each subscript, the bounds test with the tree's
    message, recorder-aware the recorder's ``record_*`` call while it is
    ``recording`` (in the tree's order; a read's call only where the
    statement's flag for its name, set next to the lookups, says the
    recorder would do anything with it; none at all for the scalars of
    the innermost DOALL's worker scope, :attr:`own`), and the store by
    declared type (:func:`_store_text`).  Values are computed into locals in the
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
    nodes nobody resolved, unknown functions.  Unrecorded, a parallel
    loop whose preamble, body and postamble are all written whole goes to
    ``_parallel_do`` with a worker function (:meth:`_worker`) that runs
    a share inline.  Any other statement kind
    (GOTO, computed GOTO, PRINT, READ, WHERE, STOP, assigned GOTO, I/O)
    raises :class:`_Declined`.

    Unrecorded, a *closed region* — a worker function, or a DO nest
    written inline, whose text makes every access to its scalars itself
    (:meth:`_closed`) — keeps each scalar it names in a local
    (:meth:`_enclose`): loaded once when the region starts, tested for a
    value only where a read may come before the region's first store,
    assigned by the store rule, a DO's counter standing in for its
    variable, and stored back to its holder once when the region ends.
    A COMMON name, a dummy argument and an array name keep their
    per-access text (:func:`_promotable`)."""

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
        #: the lines of each worker function ``_p<k>`` the statements'
        #: DOALLs run their shares on (unrecorded text only)
        self.workers: list[list[str]] = []
        self._at = 0          # index of the statement being emitted
        #: names some DOALL of the unit declares as a private array
        self.privates = interp.private_arrays(unit)
        #: store class of each private scalar of the DOALLs around the
        #: text being written — those around the list, and a worker
        #: function's own
        self.classes = interp.private_classes(unit, stmts)
        #: the scalars of the worker scope of the innermost DOALL around
        #: the list (:meth:`Interpreter.own_privates`): no log keeps an
        #: access to them, so the recorder-aware text makes none of the
        #: recorder's calls for them
        self.own = interp.own_privates(unit, stmts) if rec else frozenset()
        # what :meth:`_function` keeps per function being written
        self._holders, self._arrays, self._flags = {}, {}, {}
        self._reads, self._n, self._rebound = set(), 0, set()
        #: id(body) -> :meth:`_whole`, for the bodies of ``stmts``
        self._wholes: dict[int, bool] = {}
        #: inside a closed region: whether one is being written, each
        #: promoted scalar's local, and the promoted scalars that hold a
        #: value wherever the text being written runs
        self._region, self._locals, self._defined = False, {}, set()
        #: the :data:`_HELPERS` names the emitted text calls
        self.used: set[str] = set()
        #: (function name, arguments proven scalar) -> the ``make``-level
        #: local the text calls it by (:meth:`Runtime.function`)
        self.functions: dict[tuple[str, bool], str] = {}

    def function(self, i: int) -> list[str]:
        """Source of ``_s<i>``, the scalar text of statement ``i``."""
        self._at = i
        top = self.stmts[i]
        return self._function([f"def _s{i}(s):"], top,
                              lambda out: self.stmt(top, out, "    "))

    def _function(self, head: list[str], root: F.Stmt, write) -> list[str]:
        """Source of one function: its opening lines ``head``, the
        lookups of every name touched by the text ``write(out)`` emits —
        the holding scope ``_c<k>`` of each scalar and its dict ``_d<k>``,
        each array, each read flag — then that text.  A worker function
        emitted meanwhile keeps lookups of its own."""
        outer = (self._holders, self._arrays, self._flags, self._reads,
                 self._n, self._rebound, self._region, self._locals,
                 self._defined)
        self._region, self._locals, self._defined = False, {}, set()
        self._holders: dict[str, str] = {}
        self._arrays: dict[tuple[str, int], int] = {}
        #: recorder-aware: the flag local of each scalar read inline, and
        #: the arrays an element is read of
        self._flags: dict[str, str] = {}
        self._reads: set[int] = set()
        self._n = 0
        #: a DO or DOALL of ``root`` may rebind its variable, array or not
        self._rebound = {n.var for n in root.walk()
                         if isinstance(n, LOOPS)}
        body: list[str] = []
        write(body)
        head = list(head)
        for name, c in self._holders.items():
            self.used.add("HOLD")
            head += [f"    {c} = HOLD(s, {name!r})",
                     f"    _d{c[2:]} = {c}.vars"]
        if self._arrays:
            self.used.add("ARR")
        if self._flags:
            self.used.update(("SH", "LOGS"))
        if self._reads:
            self.used.update(("SH", "LOGA"))
        for (name, rank), k in self._arrays.items():
            names = [f"_a{k}", f"_x{k}"] \
                + [f"_l{k}_{d}" for d in range(rank)] \
                + [f"_n{k}_{d}" for d in range(rank)]
            head.append(f"    {', '.join(names)} = "
                        f"ARR(s, {name!r}, {rank})")
        head += [f"    {flag} = SH.recording and "
                 f"LOGS({self._holders[name]}, {name!r})"
                 for name, flag in self._flags.items()]
        head += [f"    _ra{k} = SH.recording and LOGA(_a{k})"
                 for k in sorted(self._reads)]
        (self._holders, self._arrays, self._flags, self._reads, self._n,
         self._rebound, self._region, self._locals, self._defined) = outer
        return head + body

    def node(self, target) -> str:
        """A ``make``-level name bound to ``target``, an AST node or
        nested list of the current statement."""
        assert not self._region, "a closed region hands a node over"
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
            worker = self._worker(s)
            self.used.update(("PDO", "U"))
            out.append(f"{ind}PDO({self.node(s)}, s, U"
                       + (f", {worker})" if worker else ")"))
        elif isinstance(s, F.DoLoop):
            self._do(s, out, ind)
        elif isinstance(s, F.IfBlock):
            self._arms(s.arms, out, ind)
        elif isinstance(s, F.LogicalIf):
            test = self._test(s.cond, out, ind)
            out.append(f"{ind}if {test}:")
            defined = set(self._defined)
            self.stmt(s.stmt, out, ind + "    ")
            self._defined = defined
        elif isinstance(s, (C.LockStmt, C.UnlockStmt)):
            # the race detector tracks critical sections
            held = "LOCK" if isinstance(s, C.LockStmt) else "UNLOCK"
            self.used.add(held)
            out.append(f"{ind}{held}({s.name!r})")
        elif isinstance(s, NOOP_STMTS):
            out.append(f"{ind}pass")
        elif isinstance(s, F.CallStmt):
            self.used.update(("CALLS", "U"))
            out.append(f"{ind}CALLS({self.node(s)}, s, U)")
        elif isinstance(s, F.ReturnStmt):
            assert not self._region, "a closed region returns"
            self.used.add("RET")
            out.append(f"{ind}raise RET()")
        else:
            raise _Declined(type(s).__name__)

    def _do(self, s: F.DoLoop, out: list, ind: str) -> None:
        if self._region or not self._closed([s]):
            self._loop(s, out, ind)
            return
        self._enclose([s], set(), out, ind,
                      lambda out: self._loop(s, out, ind))

    def _loop(self, s: F.DoLoop, out: list, ind: str) -> None:
        u, rng = self._bounds(s, out, ind)
        self._iterate(s.var, rng, f"_w{u}", out, ind,
                      lambda ind: self._body(s.body, out, ind))

    def _bounds(self, s, out: list, ind: str) -> tuple[str, str]:
        """The tree's evaluation of the bounds of DO or DOALL ``s`` into
        locals ``_lo<u>``, ``_hi<u>``, ``_st<u>``: ``(u, the source of
        the range of its iterations)``."""
        u = self._new()[2:]
        out.append(f"{ind}_lo{u} = int({self.ex(s.start, out, ind)})")
        out.append(f"{ind}_hi{u} = int({self.ex(s.end, out, ind)})")
        if s.step is None:
            return u, f"range(_lo{u}, _hi{u} + 1)"
        out.append(f"{ind}_st{u} = int({self.ex(s.step, out, ind)})")
        out += [f"{ind}if _st{u} == 0:", f"{ind}    ERR('zero DO step')"]
        self.used.add("ERR")
        return u, f"range(_lo{u}, _hi{u} + (1 if _st{u} > 0 else -1), _st{u})"

    def _iterate(self, var: str, items: str, counter: str, out: list,
                 ind: str, body) -> None:
        """``for`` each of ``items``, the loop variable ``var`` bound to
        it, the text ``body(ind)`` writes: ``counter`` stores each item
        into ``var``'s holder, or a promoted variable's local is the
        counter itself.  A loop may run no iteration, so what its body
        gives a value is not known after it."""
        local = self._locals.get(var)
        if local is not None:
            out.append(f"{ind}for {local} in {items}:")
        else:
            d = "_d" + self._holder(var)[2:]
            out += [f"{ind}for {counter} in {items}:",
                    f"{ind}    {d}[{var!r}] = {counter}"]
        defined = set(self._defined)
        self._defined.add(var)
        body(ind + "    ")
        self._defined = defined

    def _arms(self, arms: list, out: list, ind: str) -> None:
        """IF arms: each later one in the ``else`` of the one before,
        where its condition's statements can go.  After them a promoted
        scalar holds a value if it does at the end of every path."""
        ends = []
        for k, (cond, body) in enumerate(arms):
            if k:
                out.append(f"{ind}else:")
                ind += "    "
            if cond is None:
                self._body(body, out, ind)
                break
            test = self._test(cond, out, ind)
            out.append(f"{ind}if {test}:")
            before = set(self._defined)
            self._body(body, out, ind + "    ")
            ends.append(self._defined)
            self._defined = before
        else:
            if not arms:
                out.append(f"{ind}pass")
        ends.append(self._defined)
        self._defined = set.intersection(*ends)

    def _worker(self, s: C.ParallelDo) -> Optional[str]:
        """The worker function ``_p<k>(s, mine)`` that runs one share of
        parallel loop ``s`` (a DOACROSS has one, every iteration in
        order) — preamble, each iteration of ``mine``, postamble —
        when the unrecorded text writes all three whole; else None, and
        ``_parallel_do`` runs each statement list of the share.  Its
        names are looked up once per share in the worker scope ``s``,
        which declares the privates before the share starts — so when
        the function is a closed region, they and the loop variable hold
        a value from its start."""
        parts = (s.preamble, s.body, s.postamble)
        if self.rec or not all(self._whole(part) for part in parts):
            return None
        k = len(self.workers)
        self.workers.append([])      # its name, before a nested DOALL's
        outer = self.classes
        self.classes = {**outer, **declared_classes(s)}

        def share(out: list) -> None:
            self._inline(s.preamble, out, "    ")
            self._iterate(s.var, "mine", "_w", out, "    ",
                          lambda ind: self._inline(s.body, out, ind))
            self._inline(s.postamble, out, "    ")

        def write(out: list) -> None:
            if not all(self._closed(part) for part in parts):
                share(out)
                return
            self._enclose([*s.preamble, *s.body, *s.postamble],
                          {s.var}, out, "    ", share, loop_var=s.var)

        self.workers[k] = self._function([f"def _p{k}(s, mine):"], s,
                                         write)
        self.classes = outer
        return f"_p{k}"

    # -- closed regions ------------------------------------------------

    def _closed(self, body: list) -> bool:
        """Whether the unrecorded text of ``body`` makes every access to
        the scalars it names itself: it hands nothing to the interpreter
        — no DOALL, CALL statement, nested list or expression only the
        tree resolves (intrinsic and library calls are values) — and
        holds no RETURN; a body the text writes whole holds no GOTO,
        STOP or I/O either."""
        if self.rec:
            return False
        for st in body:
            for n in st.walk():
                if isinstance(n, (C.ParallelDo, F.CallStmt, F.ReturnStmt)) \
                        or isinstance(n, F.DoLoop) \
                        and not self._whole(n.body) \
                        or isinstance(n, F.IfBlock) and not all(
                            self._whole(arm) for _, arm in n.arms) \
                        or isinstance(n, F.Expr) and self._handed_over(n):
                    return False
        return True

    def _handed_over(self, e: F.Expr) -> bool:
        """Whether :meth:`ex` hands ``e`` to the interpreter (``EV``):
        what the tree resolves as it runs — a program unit's call, an
        ``Apply``, an unknown function or operator, a call given a
        section, a section of a name a call could resolve.  A range is
        its section's, read by the section's specs."""
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit, F.StrLit,
                          F.Var, F.RangeExpr)):
            return False
        if isinstance(e, F.BinOp):
            return e.op not in _PY_OPS and e.op not in _HELPER_OPS
        if isinstance(e, F.UnOp):
            return e.op not in ("-", "+", ".not.")
        name = getattr(e, "name", None)
        if name in self.units and name not in CEDAR_LIBRARY:
            return True
        callable_ = name in CEDAR_LIBRARY or name in INTRINSICS
        if isinstance(e, F.FuncCall):
            return not callable_ or any(isinstance(a, F.RangeExpr)
                                        for a in e.args)
        if isinstance(e, F.ArrayRef):
            return e.is_section() and callable_
        return True

    def _scalar(self, e: F.Expr) -> bool:
        """Whether ``e``'s value is never an ``ndarray``: literals, names
        no binding of which is an array (:func:`_promotable`; a scalar
        store refuses an array value), elements of array names, and the
        operators and intrinsics the text writes, over such operands."""
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit, F.StrLit)):
            return True
        if isinstance(e, F.Var):
            return _promotable(self.symtab, e.name, self.privates)
        if self._handed_over(e):
            return False
        if isinstance(e, F.BinOp):
            return self._scalar(e.left) and self._scalar(e.right)
        if isinstance(e, F.UnOp):
            return self._scalar(e.operand)
        if isinstance(e, F.FuncCall):
            # a library routine may return an array
            return e.name not in CEDAR_LIBRARY \
                and all(self._scalar(a) for a in e.args)
        # an element: a name bound to no array is no function here
        return isinstance(e, F.ArrayRef) and not e.is_section() \
            and e.name not in CEDAR_LIBRARY and e.name not in INTRINSICS

    def _enclose(self, stmts: list, known, out: list, ind: str, write,
                 loop_var: Optional[str] = None) -> None:
        """The closed region ``stmts`` (and the loop variable
        ``loop_var`` a worker's ``for`` binds): the text ``write(out)``
        emits, on a local of each scalar it names that
        :func:`_promotable` allows — loaded before it, and stored back
        after it if the region may assign it.  The ``known`` names and
        the private scalars around it, which their worker scopes
        declare, hold a value when it starts; any other may be unbound
        (``None``)."""
        names: dict[str, None] = {}
        assigned = {loop_var}
        for st in stmts:
            for n in st.walk():
                if isinstance(n, F.Var):
                    names[n.name] = None
                elif isinstance(n, F.DoLoop):
                    names[n.var] = None
                    assigned.add(n.var)
                elif isinstance(n, F.Assign) \
                        and isinstance(n.target, F.Var):
                    assigned.add(n.target.name)
        if loop_var is not None:
            names[loop_var] = None
        locals_ = {name: "_u" + self._holder(name)[2:] for name in names
                   if _promotable(self.symtab, name, self.privates)}
        if locals_:
            out.append(f"{ind}# closed region")
        out += [f"{ind}{local} = _d{local[2:]}.get({name!r})"
                for name, local in locals_.items()]
        known = known | self.classes.keys()
        self._region, self._locals = True, locals_
        self._defined = set(known)
        write(out)
        for name, local in locals_.items():
            if name not in assigned:
                continue
            store = f"_d{local[2:]}[{name!r}] = {local}"
            out += [f"{ind}{store}"] if name in known else [
                f"{ind}if {local} is not None:", f"{ind}    {store}"]
        self._region, self._locals, self._defined = False, {}, set()

    def _body(self, body: list, out: list, ind: str) -> None:
        """A DO or IF body: written inline, or one ``XB``."""
        if not self._whole(body):
            self.used.update(("XB", "U"))
            out.append(f"{ind}XB({self.node(body)}, s, U)")
            return
        self._inline(body, out, ind)
        if not body:
            out.append(f"{ind}pass")

    def _inline(self, body: list, out: list, ind: str) -> None:
        """``body``'s statements, each after ``exec_body``'s step count
        and budget test."""
        if body:
            self.used.update(("IP", "BUD", "OVER"))
        for st in body:
            out += [f"{ind}IP._steps += 1",
                    f"{ind}if IP._steps > BUD:",
                    f"{ind}    OVER({st.line!r})"]
            self.stmt(st, out, ind)

    def _whole(self, body: list) -> bool:
        """Whether the text writes ``body`` inline: no statement in it,
        at any depth, is of a kind the text declines — so no GOTO can
        land on a label in it — and none of its own statements is a
        loop with a vector form, which keeps a list of its own.  Asked
        again of a body the list holds, it answers from ``_wholes``."""
        whole = self._wholes.get(id(body))
        if whole is None:
            whole = self._wholes[id(body)] = not any(
                isinstance(n, F.Stmt) and not isinstance(n, WRITTEN)
                or isinstance(n, F.Assign) and not isinstance(
                    n.target, (F.Var, F.ArrayRef, F.Apply))
                for st in body for n in st.walk()) \
                and not any(self._vectorizes(st) for st in body)
        return whole

    def _vectorizes(self, st: F.Stmt) -> Optional[_LoopLowerer]:
        """The lowerer of ``st``'s vector form, when the recorder-aware
        text gives it one: its proof is the decision."""
        if self.rec and isinstance(st, C.ParallelDo):
            try:
                return _LoopLowerer(self.interp, st, self.unit)
            except _Ineligible:
                pass
        return None

    def _assign(self, s: F.Assign, out: list, ind: str) -> None:
        t = s.target
        value = self._atom(self.ex(s.value, out, ind), out, ind)
        if isinstance(t, F.Var):
            cls = self.classes.get(t.name, store_class(self.symtab, t.name))
            local = self._locals.get(t.name)
            if local is not None:
                out.append(f"{ind}{local} = "
                           f"{_stored_text(cls, t.name, value, self.used)}")
                self._defined.add(t.name)
            else:
                out += _store_text(self._holder(t.name), t.name, value,
                                   cls, "_r", ind,
                                   self.rec and t.name not in self.own,
                                   self.used)
        elif isinstance(t, (F.ArrayRef, F.Apply)):
            subs = t.subscripts if isinstance(t, F.ArrayRef) else t.args
            if any(isinstance(x, F.RangeExpr) for x in subs):
                specs = self._specs(subs, out, ind)
                self.used.add("ST")
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
        if _ATOM.fullmatch(v) and not (local and v[0] != "_"):
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
        self.used.add("T")
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
        self.used.add("REF" if store is None else "ST")
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
        if self.rec:
            kind = "r" if store is None else "w"
            test = "SH.recording"
            self.used.add("SH")
            if store is None:
                self._reads.add(k)
                test = f"_ra{k}"
            out += [f"{ind}if {test}:",
                    f"{ind}    SH.record_array(_a{k}, {name!r}, {kind!r}, "
                    f"idx={ints})"]
        self.used.add("OOB")
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
            local = self._locals.get(e.name)
            if local is not None:
                if e.name not in self._defined:
                    msg = f"undefined variable {e.name!r}"
                    self.used.add("ERR")
                    out += [f"{ind}if {local} is None:",
                            f"{ind}    ERR({msg!r})"]
                    self._defined.add(e.name)
                return local
            c = self._holder(e.name)
            t = self._new()
            self.used.update(("FA", "RD"))
            test = f"{t} is None or isinstance({t}, FA)"
            if self.rec and e.name not in self.own:
                test += " or " + self._flags.setdefault(e.name,
                                                        f"_rs{c[2:]}")
            out += [f"{ind}{t} = _d{c[2:]}.get({e.name!r})",
                    f"{ind}if {test}:",
                    f"{ind}    {t} = RD({c}, {e.name!r})"]
            return t
        if isinstance(e, F.BinOp) and e.op in _PY_OPS:
            l, r = self._seq((e.left, e.right), out, ind)
            return f"({l} {_PY_OPS[e.op]} {r})"
        if isinstance(e, F.BinOp) and e.op in _HELPER_OPS:
            l, r = self._seq((e.left, e.right), out, ind)
            self.used.add(_HELPER_OPS[e.op])
            return f"{_HELPER_OPS[e.op]}({l}, {r})"
        if isinstance(e, F.UnOp) and e.op in ("-", "+", ".not."):
            x = self.ex(e.operand, out, ind)
            if e.op == ".not.":
                self.used.add("NOT")
            return {"-": f"(-{x})", "+": x, ".not.": f"NOT({x})"}[e.op]
        if self._handed_over(e):
            self.used.update(("EV", "U"))
            return f"EV({self.node(e)}, s, U)"
        if isinstance(e, F.FuncCall):
            args = ", ".join(self._seq(e.args, out, ind))
            key = (e.name, all(self._scalar(a) for a in e.args))
            fn = self.functions.setdefault(key, f"_f{len(self.functions)}")
            return f"{fn}({args})"
        if not e.is_section():
            return self._element(e.name, e.subscripts, out, ind)
        specs = self._specs(e.subscripts, out, ind)
        self.used.add("REF")
        return f"REF(s, {e.name!r}, specs={specs})"


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
    returning one function per statement — the scalar text ``_s<i>`` of
    each, and in the recorder-aware text (``rec``, module docstring) the
    vector form ``_v<i>`` of each DOALL the lowerer proves, with the
    loop's scalar text beside it to hand over to.  A list
    holding a statement the scalar text declines gets ``make = None``:
    it runs whole on the tree."""
    scalar = _ScalarText(interp, stmts, unit, rec)
    mode = f"emitter v{JIT_VERSION}{', recorder-aware' if rec else ''}"
    body: list[str] = []
    fns: list[str] = []
    try:
        for i, s in enumerate(stmts):
            lines = scalar.function(i)
            lowerer = scalar._vectorizes(s)
            if lowerer is not None:
                lines += lowerer.emit(scalar, i)
            fns.append(f"_s{i}" if lowerer is None else f"_v{i}")
            body.append("")
            body.extend("    " + line for line in lines)
        for worker in scalar.workers:
            body.append("")
            body.extend("    " + line for line in worker)
    except _Declined as why:
        return (f'"""jit-source module: unit {unit!r}, {len(stmts)} '
                f'statements, run on the tree ({why}; {mode})."""\n'
                f'make = None\n')
    vector = sum(name.startswith("_v") for name in fns)
    head = [
        f'"""jit-source module: unit {unit!r}, {len(stmts)} '
        f'statements, {vector} vectorized loops ({mode})."""',
        "import numpy as np" if vector else "",
        "",
        "",
        "def make(rt):",
    ]
    head += [f"    {name} = rt.{attr}" for name, attr in _HELPERS.items()
             if name in scalar.used]
    head += ["    " + line for line in scalar.binds]
    head += [f"    {local} = rt.function({name!r}, {proven})"
             for (name, proven), local in scalar.functions.items()]
    head.append(f"    rt.tally({vector}, {len(stmts) - vector})")
    return "\n".join(head + body
                     + ["", f"    return [{', '.join(fns)}]", ""])


#: the names emitted text calls the :class:`Runtime` by -> its attribute;
#: a module binds the ones its text uses, which the emitter records as
#: it writes them (``used``)
_HELPERS = {
    "DIV": "div", "AND": "and_", "OR": "or_", "EQV": "eqv",
    "NEQV": "neqv", "NOT": "not_", "ERR": "error",
    # names resolved at entry, and the scalar store
    "HOLD": "hold", "RD": "read", "BOXW": "box_store", "SV": "stored",
    "FA": "FArray", "DBL": "float64", "NDA": "ndarray",
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
    "VL": "vload", "VS": "vstore", "DEAL": "shares", "PART": "partition",
    "OPEN": "open_grid", "LANES": "lanes", "INB": "in_bounds",
    "CLOSE": "shadow.close_loop", "SCAL": "log_scalars",
    "ALIAS": "aliased",
    # recorder-aware scalar text
    "LOGS": "shadow.logs_scalar_read", "LOGA": "shadow.logs_array_read",
}
