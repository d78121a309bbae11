"""Functional interpreter for Fortran 77 and Cedar Fortran ASTs.

The interpreter exists to *verify transformations*: running the original
and the restructured program on the same inputs must give the same
results.  Parallel loops are executed worker-by-worker — each simulated
processor gets its own loop-local scope, runs the preamble, executes its
share of the iterations (whatever the interpreter's ``deal`` hands it;
by default :func:`cyclic_deal`), then the postamble — so privatization,
scalar expansion, reduction partials and last-value code are all checked
for real.

Limitations (documented, enforced): GOTO works only between statements of
the same statement list; no I/O beyond ``print``/``read`` item queues;
character data is not modelled.
"""

from __future__ import annotations

import math
from typing import (TYPE_CHECKING, Any, Callable, Mapping, Optional,
                    Sequence)

import numpy as np

from repro.cedar import nodes as C
from repro.cedar.library import CEDAR_LIBRARY
from repro.errors import InterpreterBudgetError, InterpreterError
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import INTRINSICS
from repro.fortran.symtab import SymbolTable, build_symbol_table, type_of
from repro.execmodel.values import DTYPES, FArray, Scope

if TYPE_CHECKING:  # pragma: no cover
    from repro.execmodel.shadow import ShadowRecorder


class _GotoSignal(Exception):
    def __init__(self, label: int):
        self.label = label


class _ReturnSignal(Exception):
    pass


class _StopSignal(Exception):
    def __init__(self, message: Optional[str]):
        self.message = message


#: the execution engines: the reference tree walk and the one fast tier
ENGINES = ("tree", "compiled")


#: integers up to this magnitude survive a round trip through a double
_EXACT = 2 ** 53

#: store class of each Fortran type (:func:`store_class`)
_STORE_CLASSES = {"integer": "i", "real": "r", "doubleprecision": "r"}


def store_class(symtab: Optional[SymbolTable], name: str) -> str:
    """How a scalar store to ``name`` converts its value, by the type the
    unit declares it with — or, for a name its table does not hold,
    Fortran's implicit i-n rule: ``"i"`` INTEGER, ``"r"`` REAL or DOUBLE
    PRECISION, ``""`` any other type.  Symbol-table facts are static, so
    the compiled engine resolves this once, when it emits the store."""
    return _STORE_CLASSES.get(type_of(symtab, name), "")


def truncate(v) -> int:
    """``int(np.trunc(v))``, an INTEGER store, as plain ``int(v)`` where
    the two agree: on floats, and on integers a double holds exactly."""
    c = v.__class__
    if c is float or c is np.float64 or (
            (c is int or c is np.int64) and -_EXACT <= v <= _EXACT):
        return int(v)
    return int(np.trunc(v))


def stored_value(cls: str, name: str, value: Any) -> Any:
    """The value a scalar store of ``value`` into a name of store class
    ``cls`` (:func:`store_class`) keeps: an INTEGER truncates
    (``int(np.trunc(v))``), a REAL or DOUBLE PRECISION name turns an
    integer into a float, a logical value and any other type's store
    keep the value as it is.  An array value is an error."""
    if isinstance(value, np.ndarray):
        raise InterpreterError(f"array value assigned to scalar {name!r}")
    if not cls or isinstance(value, (bool, np.bool_)):
        return value
    if cls == "i":
        return truncate(value)
    if isinstance(value, (int, np.integer)):
        return float(value)
    return value


def declared_classes(node: C.ParallelDo) -> dict[str, str]:
    """Name -> store class of each private scalar DOALL ``node``
    declares in its ``locals_``: the type a store into it obeys in the
    loop's worker scopes."""
    return {ent.name: _STORE_CLASSES.get(d.type.base, "")
            for d in node.locals_ if isinstance(d, F.TypeDecl)
            for ent in d.entities if not ent.dims}


def cyclic_deal(n: int, p: int) -> list[range]:
    """The default iteration→worker deal of a DOALL: of ``n`` iterations
    on ``p`` workers, worker ``w`` takes positions ``w, w+P, …`` — the
    order a healthy machine's self-scheduled chunk queue produces."""
    return [range(w, n, p) for w in range(p)]


class Interpreter:
    """Executes program units of one source file."""

    #: default global statement budget per :meth:`call` — generous enough
    #: for every workload at validation sizes, small enough to stop a
    #: livelocked program (e.g. a GOTO cycle) in bounded time
    STEP_BUDGET = 50_000_000

    def __init__(self, sf: F.SourceFile, processors: int = 4,
                 inputs: list[float] | None = None,
                 shadow: "ShadowRecorder | None" = None,
                 step_budget: int | None = STEP_BUDGET,
                 engine: str = "tree",
                 deal: Callable[[int, int], Sequence[Sequence[int]]]
                 | None = None):
        """``shadow`` is an optional
        :class:`repro.execmodel.shadow.ShadowRecorder`; when given, every
        shared-storage access inside parallel DOALL loops is logged and
        cross-iteration conflicts are collected on ``shadow.conflicts``.

        ``step_budget`` caps the total statements one :meth:`call` may
        execute (``None`` disables the guard); exhausting it raises
        :class:`repro.errors.InterpreterBudgetError` carrying the source
        line of the statement that tripped the budget.

        ``engine`` selects ``"tree"`` (the reference tree-walk) or
        ``"compiled"`` (:mod:`repro.execmodel.compiled` — each
        statement list emitted once as a cached Python module: scalar
        text for every statement, and the tree walk itself for a list
        holding a statement kind the emitter declines; bit-identical to
        the tree walk, several times faster).
        Both engines host a shadow recorder: the compiled engine's
        access helpers then make the tree handlers' ``record_*`` calls,
        and only then does it give a DOALL vector text — one level the
        lowerer proves conflict-free logs the index sets it touches in
        bulk, unless it is already inside a checked iteration, in which
        case it records access by access like the tree.  The bare constructor's
        default is the reference walk, the side tests compare against;
        the harnesses thread their own default
        (:data:`repro.validate.differential.DEFAULT_ENGINE`) explicitly.

        ``deal(n, p)`` decides which worker runs which iteration of every
        DOALL: it returns ``p`` sequences of positions in ``range(n)``,
        worker ``w`` executing its sequence in order (default
        :func:`cyclic_deal`).  Both engines read it, so they stay
        bit-identical under any deal; DOACROSS loops stay ordered.  The
        result is taken as given — a deal that drops or repeats a
        position runs exactly that (the compiled engine runs a DOALL as
        one grid only under a partition), which is what the oracles'
        negative controls rely on."""
        if engine not in ENGINES:
            raise InterpreterError(f"unknown engine {engine!r}")
        self.sf = sf
        self.units = {u.name: u for u in sf.units}
        self.tables: dict[str, SymbolTable] = {
            u.name: build_symbol_table(u) for u in sf.units}
        self.processors = processors
        self.outputs: list[list[Any]] = []
        self.inputs = list(inputs or [])
        self.commons: dict[str, dict[str, Any]] = {}
        self.shadow = shadow
        self.step_budget = step_budget
        self._steps = 0
        self.engine = engine
        self.deal = deal or cyclic_deal
        #: id(ParallelDo) -> (node, names it reads only, names it may
        #: write), or (node, None, None) for an opaque one
        #: (:meth:`_read_only`); the node pins its id
        self._summaries: dict[int, tuple] = {}
        #: id(ParallelDo) -> (scope, its chain's dicts and sizes, the
        #: bindings looked up, read-only keys): the last
        #: :meth:`_read_only` set of each loop site
        self._read_sets: dict[int, tuple] = {}
        #: unit -> :meth:`_private_facts`
        self._privates: dict[str, tuple] = {}
        self._compiler = None
        if self.engine == "compiled":
            from repro.execmodel.compiled import Compiler

            self._compiler = Compiler(self)
            # instance attribute shadows the method: every recursive
            # self.exec_body — unit bodies, loop bodies, _invoke —
            # routes through the compiler
            self.exec_body = self._compiler.exec_body

    # ------------------------------------------------------------------

    def call(self, name: str, *args: Any) -> dict[str, Any]:
        """Call a subroutine/program with Python values.

        Arrays pass as numpy arrays (modified in place); scalars by value
        with their final values returned.  Returns the final values of all
        dummy arguments (and, for functions, the key ``__result__``).
        """
        unit = self.units.get(name)
        if unit is None:
            raise InterpreterError(f"no unit named {name!r}")
        if len(args) != len(unit.args):
            raise InterpreterError(
                f"{name} expects {len(unit.args)} args, got {len(args)}")
        self._steps = 0
        scope = self._unit_scope(unit)
        for dummy, actual in zip(unit.args, args):
            if isinstance(actual, np.ndarray):
                sym = self.tables[name].lookup(dummy)
                lowers = tuple(
                    self._const_lower(b.lower) for b in sym.dims) \
                    if sym and sym.is_array else (1,) * actual.ndim
                scope.declare(dummy, FArray(actual, lowers))
            else:
                scope.declare(dummy, actual)
        from repro.telemetry import span

        with span("execute", entry=name, engine=self.engine):
            try:
                self.exec_body(unit.body, scope, name)
            except _ReturnSignal:
                pass
            except _StopSignal:
                pass
        out = {d: self._export(scope.vars.get(d)) for d in unit.args}
        if isinstance(unit, F.Function):
            out["__result__"] = self._export(scope.vars.get(name))
        return out

    @staticmethod
    def _export(v: Any) -> Any:
        if isinstance(v, FArray):
            return v.data
        return v

    def _const_lower(self, e: F.Expr) -> int:
        from repro.analysis.expr import const_value

        v = const_value(e)
        return int(v) if v is not None else 1

    # ------------------------------------------------------------------

    def _unit_scope(self, unit: F.ProgramUnit) -> Scope:
        scope = Scope()
        st = self.tables[unit.name]
        # PARAMETER constants
        params: dict[str, int | float] = {}
        for sym in st.symbols.values():
            if sym.is_parameter and sym.param_value is not None:
                params[sym.name] = self._eval_const(sym.param_value, params)
                scope.declare(sym.name, params[sym.name])
        # declared arrays (locals): allocate when bounds are constant
        for sym in st.symbols.values():
            if sym.is_array and not sym.is_dummy:
                bounds = []
                ok = True
                for b in sym.dims:
                    lo = self._try_const(b.lower, params)
                    hi = self._try_const(b.upper, params) \
                        if b.upper is not None else None
                    if lo is None or hi is None:
                        ok = False
                        break
                    bounds.append((int(lo), int(hi)))
                if ok:
                    arr = FArray.zeros(sym.type, bounds)
                    scope.declare(sym.name, arr)
        # COMMON storage shared across units; scalars live in 0-d boxes so
        # every unit mutates the same cell
        for block, names in st.common_blocks.items():
            store = self.commons.setdefault(block, {})
            for n in names:
                if n in store:
                    scope.declare(n, store[n])
                elif n in scope.vars:  # array allocated above
                    store[n] = scope.vars[n]
                else:
                    sym = st.lookup(n)
                    ftype = sym.type if sym else "real"
                    box = FArray(np.zeros((), dtype=DTYPES.get(
                        ftype, np.float64)), ())
                    store[n] = box
                    scope.declare(n, box)
        # DATA statements
        for spec in unit.specs:
            if isinstance(spec, F.DataStmt):
                for tgt, val in zip(spec.names, spec.values):
                    v = self._eval_const(val, params)
                    if isinstance(tgt, F.Var):
                        scope.declare(tgt.name, v)
        return scope

    def _try_const(self, e: Optional[F.Expr], params) -> Optional[float]:
        if e is None:
            return None
        from repro.analysis.expr import const_value

        v = const_value(e)
        if v is not None:
            return v
        if isinstance(e, F.Var) and e.name in params:
            return params[e.name]
        from repro.analysis.expr import linearize

        le = linearize(e, {k: int(v) for k, v in params.items()
                           if isinstance(v, (int,))})
        if le is not None and le.is_constant:
            return le.const
        return None

    def _eval_const(self, e: F.Expr, params) -> Any:
        v = self._try_const(e, params)
        if v is None:
            raise InterpreterError("non-constant initializer")
        return v

    # ------------------------------------------------------------------
    # statement execution

    def exec_body(self, stmts: list[F.Stmt], scope: Scope,
                  unit_name: str) -> None:
        labels = {s.label: i for i, s in enumerate(stmts)
                  if s.label is not None}
        # hot loop: hoist everything invariant out of the trip
        exec_stmt = self.exec_stmt
        budget = self.step_budget
        pc, n = 0, len(stmts)
        while pc < n:
            self._steps += 1
            if budget is not None and self._steps > budget:
                raise InterpreterBudgetError(
                    f"statement budget of {budget} exceeded in "
                    f"{unit_name} (livelock?)",
                    line=getattr(stmts[pc], "line", None))
            try:
                exec_stmt(stmts[pc], scope, unit_name)
            except _GotoSignal as g:
                if g.label in labels:
                    pc = labels[g.label]
                    continue
                raise
            pc += 1

    def exec_stmt(self, s: F.Stmt, scope: Scope, unit: str) -> None:
        # memoized type dispatch: the first statement of each concrete
        # class walks the subclass-aware chain (ParallelDo before DoLoop
        # — it *is* a DoLoop); every later one is a single dict hit
        handler = _STMT_HANDLERS.get(type(s))
        if handler is None:
            handler = _resolve_handler(type(s), _STMT_CHAIN)
            if handler is None:
                raise InterpreterError(
                    f"cannot execute {type(s).__name__}")
            _STMT_HANDLERS[type(s)] = handler
        handler(self, s, scope, unit)

    # -- statement handlers (bound via _STMT_CHAIN) -------------------------

    def _exec_assign(self, s: F.Assign, scope: Scope, unit: str) -> None:
        self._assign(s.target, self.eval(s.value, scope, unit), scope, unit)

    def _exec_if_block(self, s: F.IfBlock, scope: Scope, unit: str) -> None:
        for cond, body in s.arms:
            if cond is None or self._truth(self.eval(cond, scope, unit)):
                self.exec_body(body, scope, unit)
                return

    def _exec_logical_if(self, s: F.LogicalIf, scope: Scope,
                         unit: str) -> None:
        if self._truth(self.eval(s.cond, scope, unit)):
            self.exec_stmt(s.stmt, scope, unit)

    def _exec_goto(self, s: F.Goto, scope: Scope, unit: str) -> None:
        raise _GotoSignal(s.target)

    def _exec_computed_goto(self, s: F.ComputedGoto, scope: Scope,
                            unit: str) -> None:
        k = int(self.eval(s.index, scope, unit))
        if 1 <= k <= len(s.targets):
            raise _GotoSignal(s.targets[k - 1])

    def _exec_return(self, s: F.ReturnStmt, scope: Scope, unit: str) -> None:
        raise _ReturnSignal()

    def _exec_stop(self, s: F.StopStmt, scope: Scope, unit: str) -> None:
        raise _StopSignal(s.message)

    def _exec_print(self, s: F.PrintStmt, scope: Scope, unit: str) -> None:
        self.outputs.append([self._scalarize(self.eval(i, scope, unit))
                             for i in s.items])

    def _exec_read(self, s: F.ReadStmt, scope: Scope, unit: str) -> None:
        for item in s.items:
            if not self.inputs:
                raise InterpreterError("input queue exhausted")
            self._assign(item, self.inputs.pop(0), scope, unit)

    def _exec_sync(self, s: F.Stmt, scope: Scope, unit: str) -> None:
        # synchronization: functional no-ops under simulation, but the
        # race detector tracks critical sections so lock-protected
        # accesses are not reported as conflicts
        if self.shadow is not None:
            if isinstance(s, C.LockStmt):
                self.shadow.acquire(s.name)
            elif isinstance(s, C.UnlockStmt):
                self.shadow.release(s.name)

    def _exec_noop(self, s: F.Stmt, scope: Scope, unit: str) -> None:
        return  # declarations/CONTINUE in executable position

    # -- loops -------------------------------------------------------------

    def _loop_range(self, s, scope: Scope, unit: str) -> range:
        lo = int(self.eval(s.start, scope, unit))
        hi = int(self.eval(s.end, scope, unit))
        step = int(self.eval(s.step, scope, unit)) if s.step is not None else 1
        if step == 0:
            raise InterpreterError("zero DO step")
        return range(lo, hi + (1 if step > 0 else -1), step)

    def _do_loop(self, s: F.DoLoop, scope: Scope, unit: str) -> None:
        r = self._loop_range(s, scope, unit)
        # resolve the index cell once: scope.set per iteration walks the
        # scope chain; the containing scope cannot change mid-loop
        var = s.var
        sc = scope.lookup_scope(var)
        if sc is None:
            sc = scope._root()
        cell = sc.vars
        body = s.body
        exec_body = self.exec_body
        for v in r:
            cell[var] = v
            exec_body(body, scope, unit)

    def _parallel_do(self, s: C.ParallelDo, scope: Scope, unit: str,
                     worker: Callable[[Scope, list], None] | None = None
                     ) -> None:
        """Run a parallel loop worker by worker, each share as dealt in a
        worker scope of its own — a DOACROSS as one share holding every
        iteration in order, with no log.  Without a recorder,
        ``worker(wscope, mine)`` — the compiled engine's text of a loop
        it writes whole — runs a share's preamble, iterations and
        postamble in place of one ``exec_body`` per statement list."""
        iters = list(self._loop_range(s, scope, unit))
        classes = declared_classes(s)
        shadow = self.shadow
        ctx = None
        if s.order == "doacross":
            # ordered loop: one share holding every iteration in order;
            # cascade sync is a no-op sequentially.  Not race-checked:
            # carried dependences are covered by the await/advance
            # synchronization by construction.
            shares = (range(len(iters)),)
        else:
            if shadow is not None:
                # only an execution of two or more iterations opens a log
                ctx = shadow.open_loop(self._loop_label(s), len(iters),
                                       self._read_only(s, scope)
                                       if len(iters) > 1 else frozenset())
            shares = self.deal(len(iters),
                               max(1, min(self.processors, len(iters) or 1)))
        try:
            for share in shares:
                mine = [iters[i] for i in share]
                if not mine and not s.preamble and not s.postamble:
                    continue
                wscope = self._worker_scope(s, scope, unit, classes)
                if worker is not None and shadow is None:
                    worker(wscope, mine)
                    continue
                if ctx is not None:
                    shadow.begin_worker(ctx, wscope)
                    shadow.suspend(ctx)
                try:
                    self.exec_body(s.preamble, wscope, unit)
                finally:
                    if ctx is not None:
                        shadow.resume(ctx)
                for v in mine:
                    if ctx is not None:
                        shadow.begin_iteration(ctx, v)
                    wscope.set(s.var, v)
                    self.exec_body(s.body, wscope, unit)
                if ctx is not None:
                    shadow.suspend(ctx)
                try:
                    self.exec_body(s.postamble, wscope, unit)
                finally:
                    if ctx is not None:
                        shadow.resume(ctx)
        finally:
            if ctx is not None:
                shadow.close_loop(ctx)

    def _read_only(self, s: C.ParallelDo, scope: Scope) -> frozenset:
        """The storage keys no iteration of ``s`` can write, as bound in
        its enclosing ``scope`` now (:meth:`_read_keys`), memoised per
        loop site: the last set worked out for ``s`` is the answer again
        while ``scope`` is the scope it was worked out in and every name
        it looked up is bound as it was then — no scope of the chain has
        gained a name (a scope never loses one), so each name has the
        same holder, and each holder binds it to the same array, or
        still to no array."""
        memo = self._read_sets.get(id(s))
        if memo is not None and memo[0] is scope and _unmoved(*memo[1:3]):
            return memo[3]
        keys, bound = self._read_keys(s, scope)
        chain = []
        sc: Optional[Scope] = scope
        while sc is not None:
            chain.append((sc.vars, len(sc.vars)))
            sc = sc.parent
        self._read_sets[id(s)] = (scope, chain, bound, keys)
        return keys

    def _read_keys(self, s: C.ParallelDo, scope: Scope) -> tuple:
        """``(keys, bindings)``: the storage keys of the names ``s``
        references minus the keys of the names it may write, as bound in
        ``scope`` now (an array's ``id`` of its data, so a written alias
        keeps the other name's reads; a scalar's ``(id(holding scope),
        name)``) — empty for an opaque loop, one that can write storage
        its syntax does not name — and each name found as ``(holder's
        dict, name, its array's data or None)``."""
        entry = self._summaries.get(id(s))
        if entry is None:
            entry = self._summaries[id(s)] = (s, *self._summarize(s))
        _, reads, writes = entry
        if reads is None:
            return frozenset(), ()
        keys, bound = set(), []
        for name in reads:
            sc = scope.lookup_scope(name)
            if sc is not None:
                v = sc.vars[name]
                if isinstance(v, FArray):
                    keys.add(id(v.data))
                    bound.append((sc.vars, name, v.data))
                else:
                    keys.add((id(sc), name))
                    bound.append((sc.vars, name, None))
        for name in writes:
            sc = scope.lookup_scope(name)
            if sc is not None:
                v = sc.vars[name]
                if isinstance(v, FArray):
                    keys.discard(id(v.data))
                    bound.append((sc.vars, name, v.data))
                else:
                    bound.append((sc.vars, name, None))
        return frozenset(keys), bound

    def _summarize(self, s: C.ParallelDo):
        """``(names only read, names it may write)`` of a loop — its
        assignment targets, WHERE bodies included, and DO variables, at
        any depth — or ``(None, None)`` when it is opaque: it calls a
        routine other than a sync one, calls a program unit in an
        expression, holds an ``Apply`` or a statement outside
        :data:`_NAMED_WRITES` (I/O, READ, …).  A Cedar library function
        in an expression only reads its arguments: the kernels write
        nothing (the CALL form, ``ces_linrec``, stays opaque)."""
        refs: set[str] = set()
        writes: set[str] = set()
        for n in s.walk():
            if isinstance(n, F.Stmt):
                if isinstance(n, F.CallStmt):
                    if n.name not in _SYNC_CALLS:
                        return None, None
                elif not isinstance(n, _NAMED_WRITES):
                    return None, None
                elif isinstance(n, F.Assign):
                    writes.add(n.target.name)
                elif isinstance(n, F.DoLoop):
                    writes.add(n.var)
            elif isinstance(n, F.Apply) or isinstance(
                    n, (F.FuncCall, F.ArrayRef)) and n.name in self.units:
                return None, None
            elif isinstance(n, (F.Var, F.ArrayRef, F.FuncCall)):
                refs.add(n.name)
        return tuple(refs - writes), tuple(writes)

    def private_arrays(self, unit: str) -> frozenset:
        """Names some DOALL of ``unit`` declares as a private array: in
        its worker scopes (:meth:`_worker_scope`) such a name is bound to
        an ``FArray``."""
        return self._private_facts(unit)[0]

    def private_classes(self, unit: str, stmts: list) -> Mapping[str, str]:
        """Name -> store class of each private scalar that the DOALLs of
        ``unit`` around the statement list ``stmts`` declare, the
        innermost declaration winning: the class a store into it obeys
        wherever ``stmts`` runs (:attr:`Scope.classes`)."""
        return self._private_facts(unit)[1].get(id(stmts), ({},))[0]

    def own_privates(self, unit: str, stmts: list) -> frozenset:
        """The scalars the innermost DOALL of ``unit`` around the
        statement list ``stmts`` holds in its worker scopes — its
        variable and its private scalars — or nothing outside every
        DOALL.  Such a scope sits under the worker scope of every loop
        of the unit around it, so no access to them is ever logged."""
        return self._private_facts(unit)[1].get(id(stmts),
                                                ({}, frozenset()))[1]

    def _private_facts(self, unit: str) -> tuple:
        """``(private arrays, id(list) -> (private scalar classes, own
        privates))`` of ``unit``, from one walk of its statement
        lists."""
        facts = self._privates.get(unit)
        if facts is not None:
            return facts
        arrays: set[str] = set()
        around: dict[int, tuple] = {}

        def visit(stmts: list, classes: dict, own: frozenset) -> None:
            around[id(stmts)] = (classes, own)
            for st in stmts:
                inner, mine = classes, own
                if isinstance(st, C.ParallelDo):
                    declared = declared_classes(st)
                    inner = {**classes, **declared}
                    mine = frozenset((st.var, *declared))
                    arrays.update(ent.name for d in st.locals_
                                  if isinstance(d, F.TypeDecl)
                                  for ent in d.entities if ent.dims)
                for name in F.node_slots(type(st)).child:
                    part = getattr(st, name)
                    if isinstance(part, list) and part \
                            and isinstance(part[0], F.Stmt):
                        visit(part, inner, mine)
                    elif isinstance(st, F.IfBlock) and name == "arms":
                        for _, body in part:
                            visit(body, inner, mine)

        u = self.units.get(unit)
        if u is not None:
            visit(u.body, {}, frozenset())
        facts = self._privates[unit] = (frozenset(arrays), around)
        return facts

    @staticmethod
    def _loop_label(s: C.ParallelDo) -> str:
        where = f" @ line {s.line}" if s.line is not None else ""
        return f"{s.keyword} do {s.var}{where}"

    def _worker_scope(self, s: C.ParallelDo, scope: Scope, unit: str,
                      classes: Mapping[str, str]) -> Scope:
        """A fresh scope of one share of ``s``: its loop variable and
        ``locals_`` declared, the private scalars' store ``classes``
        (:func:`declared_classes`) attached."""
        w = Scope(parent=scope)
        w.declare(s.var, 0)
        for decl in s.locals_:
            if isinstance(decl, F.TypeDecl):
                for ent in decl.entities:
                    if ent.dims:
                        bounds = []
                        for d in ent.dims:
                            lo = (int(self.eval(d.lower, scope, unit))
                                  if d.lower is not None else 1)
                            if d.upper is None:
                                raise InterpreterError(
                                    f"assumed-size loop-local {ent.name!r}")
                            hi = int(self.eval(d.upper, scope, unit))
                            bounds.append((lo, hi))
                        w.declare(ent.name,
                                  FArray.zeros(decl.type.base, bounds))
                    else:
                        zero = 0 if decl.type.base == "integer" else 0.0
                        w.declare(ent.name, zero)
        if classes:
            w.classes = classes
        return w

    def _where(self, s: C.WhereStmt, scope: Scope, unit: str) -> None:
        mask = np.asarray(self.eval(s.mask, scope, unit), dtype=bool)
        for body, invert in ((s.body, False), (s.elsewhere, True)):
            m = ~mask if invert else mask
            for st in body:
                if not isinstance(st, F.Assign):
                    raise InterpreterError("WHERE bodies hold assignments only")
                target_view = self._lvalue_view(st.target, scope, unit)
                value = self.eval(st.value, scope, unit)
                value = np.broadcast_to(np.asarray(value), target_view.shape)
                target_view[m] = value[m]

    # -- calls --------------------------------------------------------------

    def _call_stmt(self, s: F.CallStmt, scope: Scope, unit: str) -> None:
        if s.name in CEDAR_LIBRARY:
            self._library_call(s, scope, unit)
            return
        if s.name in _SYNC_CALLS:
            return
        callee = self.units.get(s.name)
        if callee is None:
            raise InterpreterError(f"call to unknown routine {s.name!r}")
        self._invoke(callee, s.args, scope, unit)

    def _invoke(self, callee: F.ProgramUnit, actuals: list[F.Expr],
                scope: Scope, unit: str) -> Any:
        cscope = self._unit_scope(callee)
        copy_back: list[tuple[str, F.Expr]] = []
        # array dummies take their shape once every scalar dummy is
        # bound: ``x(n)`` may come before ``n``
        arrays: list[tuple[str, FArray, Any]] = []
        for dummy, actual in zip(callee.args, actuals):
            dsym = self.tables[callee.name].lookup(dummy)
            subs = actual.subscripts if isinstance(actual, F.ArrayRef) \
                else getattr(actual, "args", ())
            if isinstance(actual, F.Var) and scope.has(actual.name):
                v = scope.get(actual.name)
                cscope.declare(dummy, v)
                if not isinstance(v, FArray):
                    copy_back.append((dummy, actual))
                elif dsym is not None and dsym.is_array:
                    arrays.append((dummy, v, dsym))
            elif isinstance(actual, (F.ArrayRef, F.Apply)) and \
                    not any(isinstance(x, F.RangeExpr) for x in subs):
                sc = scope.lookup_scope(actual.name)
                arr = sc.vars[actual.name] if sc is not None else None
                if isinstance(arr, FArray) and dsym is not None \
                        and dsym.is_array:
                    # sequence association: the dummy is the caller's
                    # storage from the element on, so stores reach it
                    idx = tuple(self.eval(x, scope, unit) for x in subs)
                    seq = FArray(self._sequence(arr, idx), (1,))
                    cscope.declare(dummy, seq)
                    arrays.append((dummy, seq, dsym))
                else:
                    cscope.declare(dummy, self.eval(actual, scope, unit))
                    copy_back.append((dummy, actual))
            else:
                cscope.declare(dummy, self.eval(actual, scope, unit))
        stores: list[tuple[np.ndarray, np.ndarray]] = []
        for dummy, v, dsym in arrays:
            cscope.declare(dummy, self._reshape_for_dummy(v, dsym, cscope,
                                                          stores))
        try:
            self.exec_body(callee.body, cscope, callee.name)
        except _ReturnSignal:
            pass
        finally:
            for flat, data in stores:
                data[...] = flat.reshape(data.shape, order="F")
        for dummy, actual in copy_back:
            self._assign(actual, cscope.get(dummy), scope, unit)
        if isinstance(callee, F.Function):
            return cscope.vars.get(callee.name)
        return None

    @staticmethod
    def _sequence(arr: FArray, idx: tuple) -> np.ndarray:
        """``arr``'s storage from element ``idx`` on, in column-major
        order, as a 1-D view: to its end when the data is laid out that
        way (one dimension, or Fortran-ordered), else to the end of the
        element's column."""
        j = arr._offset(idx)
        flat = arr.data.reshape(-1, order="F")
        if np.may_share_memory(flat, arr.data):
            return flat[np.ravel_multi_index(j, arr.data.shape, order="F"):]
        return arr.data[(slice(j[0], None),) + j[1:]]

    def _reshape_for_dummy(self, v: FArray, dsym, cscope: Scope,
                           stores: list) -> FArray:
        """Handle rank/extent differences (sequence association): the
        dummy views the actual's storage in column-major order.  Where
        the actual's data cannot be viewed that way, the dummy gets a
        copy and ``(copy, data)`` goes on ``stores`` for the caller to
        write back after the call."""
        dims = []
        ok = True
        for b in dsym.dims:
            lo = self._const_lower(b.lower)
            if b.upper is None:
                ok = False
                break
            from repro.analysis.expr import const_value

            hi = const_value(b.upper)
            if hi is None:
                hi_v = cscope.vars.get(getattr(b.upper, "name", None))
                hi = int(hi_v) if hi_v is not None else None
            if hi is None:
                ok = False
                break
            dims.append((lo, int(hi)))
        if not ok:
            return v  # assumed-size or symbolic: share storage as-is
        want_shape = tuple(hi - lo + 1 for lo, hi in dims)
        if want_shape == v.data.shape:
            return FArray(v.data, tuple(lo for lo, _ in dims))
        size = int(np.prod(want_shape))
        if size > v.data.size:
            raise InterpreterError("actual array smaller than dummy")
        flat = v.data.reshape(-1, order="F")
        if not np.may_share_memory(flat, v.data):
            # not laid out column-major: the dummy works on a copy in
            # that order, stored back into the actual after the call
            stores.append((flat, v.data))
        return FArray(flat[:size].reshape(want_shape, order="F"),
                      tuple(lo for lo, _ in dims))

    def _library_call(self, s: F.CallStmt, scope: Scope, unit: str) -> None:
        if s.name == "ces_linrec":
            x_view = self._lvalue_view(s.args[0], scope, unit)
            b = np.asarray(self.eval(s.args[1], scope, unit), dtype=float)
            c = np.asarray(self.eval(s.args[2], scope, unit), dtype=float)
            # seed with the element before the section (x(lo-1)) when the
            # recurrence starts past the array base; else 0
            seed = 0.0
            arr, lo = self._section_base(s.args[0], scope, unit)
            if arr is not None and lo is not None and lo > arr.lowers[0]:
                seed = float(arr.get((lo - 1,)))
            acc = seed
            out = np.empty_like(c)
            for i in range(len(c)):
                acc = acc * b[i] + c[i]
                out[i] = acc
            x_view[...] = out
            return
        raise InterpreterError(f"library routine {s.name!r} not callable "
                               f"as a subroutine")

    def _section_base(self, e: F.Expr, scope: Scope, unit: str):
        if isinstance(e, F.ArrayRef) and len(e.subscripts) == 1 \
                and isinstance(e.subscripts[0], F.RangeExpr):
            arr = scope.get(e.name)
            rng = e.subscripts[0]
            lo = (int(self.eval(rng.lo, scope, unit))
                  if rng.lo is not None else None)
            if isinstance(arr, FArray):
                return arr, lo
        return None, None

    # ------------------------------------------------------------------
    # expressions

    def eval(self, e: F.Expr, scope: Scope, unit: str) -> Any:
        # same memoized type dispatch as exec_stmt — this is the hottest
        # call site in the whole simulator
        handler = _EVAL_HANDLERS.get(type(e))
        if handler is None:
            handler = _resolve_handler(type(e), _EVAL_CHAIN)
            if handler is None:
                raise InterpreterError(
                    f"cannot evaluate {type(e).__name__}")
            _EVAL_HANDLERS[type(e)] = handler
        return handler(self, e, scope, unit)

    def _eval_lit(self, e, scope: Scope, unit: str):
        return e.value

    def _eval_var(self, e: F.Var, scope: Scope, unit: str):
        sc = scope.lookup_scope(e.name)
        v = sc.vars[e.name] if sc is not None else None
        if v is None:
            raise InterpreterError(f"undefined variable {e.name!r}")
        sh = self.shadow
        if isinstance(v, FArray):
            if sh is not None and sh.recording:
                sh.record_array(v, e.name, "r",
                                idx=() if v.data.ndim == 0 else None)
            if v.data.ndim == 0:  # COMMON scalar box
                return v.data.item()
            return v.data
        if sh is not None and sh.recording:
            sh.record_scalar(sc, e.name, "r")
        return v

    def _eval_unop(self, e: F.UnOp, scope: Scope, unit: str):
        v = self.eval(e.operand, scope, unit)
        if e.op == "-":
            return -v
        if e.op == "+":
            return v
        if e.op == ".not.":
            return ~np.asarray(v) if isinstance(v, np.ndarray) else not v
        raise InterpreterError(f"cannot evaluate {type(e).__name__}")

    def _ref_or_call(self, e, scope: Scope, unit: str):
        subs = e.subscripts if isinstance(e, F.ArrayRef) else e.args
        if scope.has(e.name):
            v = scope.get(e.name)
            if isinstance(v, FArray):
                sh = self.shadow
                if any(isinstance(x, F.RangeExpr) for x in subs):
                    specs = [self._spec(x, scope, unit) for x in subs]
                    if sh is not None and sh.recording:
                        sh.record_array(v, e.name, "r", specs=specs)
                    return v.slice_of(specs)
                idx = tuple(int(self.eval(x, scope, unit)) for x in subs)
                if sh is not None and sh.recording:
                    sh.record_array(v, e.name, "r", idx=idx)
                return v.get(idx)
        # not an array: function call
        return self._func_call(
            F.FuncCall(e.name, list(subs),
                       intrinsic=e.name in INTRINSICS), scope, unit)

    def _spec(self, x: F.Expr, scope: Scope, unit: str):
        if isinstance(x, F.RangeExpr):
            lo = self.eval(x.lo, scope, unit) if x.lo is not None else None
            hi = self.eval(x.hi, scope, unit) if x.hi is not None else None
            st = (self.eval(x.stride, scope, unit)
                  if x.stride is not None else None)
            return (lo, hi, st)
        return int(self.eval(x, scope, unit))

    def _func_call(self, e: F.FuncCall, scope: Scope, unit: str):
        routine = CEDAR_LIBRARY.get(e.name)
        if routine is not None:
            args = [self.eval(a, scope, unit) for a in e.args]
            return routine.fn(*args)
        callee = self.units.get(e.name)
        if callee is not None:
            return self._invoke(callee, e.args, scope, unit)
        info = INTRINSICS.get(e.name)  # one lookup, not membership + index
        if info is not None:
            args = [self.eval(a, scope, unit) for a in e.args]
            if any(isinstance(a, np.ndarray) for a in args):
                fn = info.np_fn
                if fn is None:
                    raise InterpreterError(
                        f"intrinsic {e.name!r} not vectorized")
                return fn(*args)
            return info.fn(*args)
        raise InterpreterError(f"unknown function {e.name!r}")

    def _binop(self, e: F.BinOp, scope: Scope, unit: str):
        l = self.eval(e.left, scope, unit)
        r = self.eval(e.right, scope, unit)
        op = e.op
        if op == "+":
            return l + r
        if op == "-":
            return l - r
        if op == "*":
            return l * r
        if op == "/":
            if self._is_int(l) and self._is_int(r):
                return np.trunc(np.divide(l, r)).astype(np.int64) \
                    if isinstance(l, np.ndarray) or isinstance(r, np.ndarray) \
                    else int(l / r)
            return l / r
        if op == "**":
            return l ** r
        if op == ".lt.":
            return l < r
        if op == ".le.":
            return l <= r
        if op == ".eq.":
            return l == r
        if op == ".ne.":
            return l != r
        if op == ".gt.":
            return l > r
        if op == ".ge.":
            return l >= r
        if op == ".and.":
            return np.logical_and(l, r) if self._any_arr(l, r) else (l and r)
        if op == ".or.":
            return np.logical_or(l, r) if self._any_arr(l, r) else (l or r)
        if op == ".eqv.":
            return np.equal(l, r) if self._any_arr(l, r) else (bool(l) == bool(r))
        if op == ".neqv.":
            return np.not_equal(l, r) if self._any_arr(l, r) \
                else (bool(l) != bool(r))
        raise InterpreterError(f"unknown operator {op!r}")

    @staticmethod
    def _any_arr(*vs) -> bool:
        return any(isinstance(v, np.ndarray) for v in vs)

    @staticmethod
    def _is_int(v) -> bool:
        if isinstance(v, (bool, np.bool_)):
            return False
        if isinstance(v, (int, np.integer)):
            return True
        if isinstance(v, np.ndarray):
            return np.issubdtype(v.dtype, np.integer)
        return False

    @staticmethod
    def _truth(v) -> bool:
        if isinstance(v, np.ndarray):
            raise InterpreterError("array condition in scalar IF")
        return bool(v)

    @staticmethod
    def _scalarize(v):
        if isinstance(v, np.ndarray):
            return v.copy()
        return v

    # ------------------------------------------------------------------
    # assignment

    def _lvalue_view(self, target: F.Expr, scope: Scope, unit: str):
        """A writable numpy view of the target (WHERE bodies, library
        calls).  The shadow recorder logs the full section as a write —
        a deliberate over-approximation for masked assignments."""
        sh = self.shadow
        if isinstance(target, F.Var):
            v = scope.get(target.name)
            if isinstance(v, FArray):
                if sh is not None and sh.recording:
                    sh.record_array(v, target.name, "w",
                                    idx=() if v.data.ndim == 0 else None)
                return v.data
            raise InterpreterError("scalar has no view")
        if isinstance(target, (F.ArrayRef, F.Apply)):
            v = scope.get(target.name)
            if not isinstance(v, FArray):
                raise InterpreterError(f"{target.name!r} is not an array")
            subs = (target.subscripts if isinstance(target, F.ArrayRef)
                    else target.args)
            specs = [self._spec(x, scope, unit) for x in subs]
            if sh is not None and sh.recording:
                sh.record_array(v, target.name, "w", specs=specs)
            return v.slice_of(specs)
        raise InterpreterError("invalid assignment target")

    def _record_scalar_write(self, scope: Scope, name: str) -> None:
        sh = self.shadow
        if sh is not None and sh.recording:
            # an undefined name is about to be created in the root scope
            # (Scope.set semantics) — key it there so later reads match
            containing = scope.lookup_scope(name) or scope._root()
            sh.record_scalar(containing, name, "w")

    def _assign(self, target: F.Expr, value: Any, scope: Scope,
                unit: str) -> None:
        sh = self.shadow
        if isinstance(target, F.Var):
            name = target.name
            holder = scope.lookup_scope(name)
            cur = holder.vars[name] if holder is not None else None
            if isinstance(cur, FArray):
                if sh is not None and sh.recording:
                    sh.record_array(cur, name, "w",
                                    idx=() if cur.data.ndim == 0 else None)
                cur.data[...] = value
                return
            self._record_scalar_write(scope, name)
            if holder is None:
                holder = scope._root()    # where Scope.set creates it
            cls = holder.classes.get(name)
            if cls is None:
                cls = store_class(self.tables.get(unit), name)
            holder.vars[name] = stored_value(cls, name, value)
            return
        if isinstance(target, (F.ArrayRef, F.Apply)):
            v = scope.get(target.name)
            if not isinstance(v, FArray):
                raise InterpreterError(f"{target.name!r} is not an array")
            subs = (target.subscripts if isinstance(target, F.ArrayRef)
                    else target.args)
            if any(isinstance(x, F.RangeExpr) for x in subs):
                specs = [self._spec(x, scope, unit) for x in subs]
                if sh is not None and sh.recording:
                    sh.record_array(v, target.name, "w", specs=specs)
                view = v.slice_of(specs)
                view[...] = value
            else:
                idx = tuple(int(self.eval(x, scope, unit)) for x in subs)
                if sh is not None and sh.recording:
                    sh.record_array(v, target.name, "w", idx=idx)
                v.set(idx, value)
            return
        raise InterpreterError("invalid assignment target")


# ---------------------------------------------------------------------------
# dispatch tables
#
# exec_stmt/eval resolve handlers through these subclass-aware chains the
# first time each concrete node class appears, then memoize the result in
# a plain dict (_STMT_HANDLERS/_EVAL_HANDLERS).  The chain order mirrors
# the original isinstance ladders — in particular C.ParallelDo precedes
# F.DoLoop, which it subclasses.


def _unmoved(chain: list, bound: list) -> bool:
    """Whether no dict of a scope chain has gained a name since its
    ``(dict, size)`` pairs ``chain`` were taken, and each ``(holder's
    dict, name, data)`` of ``bound`` still binds the name to an array of
    that data — or, for None, to no array."""
    for d, n in chain:
        if len(d) != n:
            return False
    for d, name, data in bound:
        v = d[name]
        if (v.data is not data if isinstance(v, FArray)
                else data is not None):
            return False
    return True


def _resolve_handler(t: type, chain):
    for cls, handler in chain:
        if issubclass(t, cls):
            return handler
    return None


#: synchronization statements: functional no-ops under simulation (the
#: race detector tracks the lock ones)
_SYNC_STMTS = (C.AwaitStmt, C.AdvanceStmt, C.LockStmt, C.UnlockStmt)
#: routines a CALL names for synchronization: functional no-ops
_SYNC_CALLS = ("await", "advance", "lock", "unlock", "post", "wait")
#: declarations in executable position
_DECL_STMTS = (F.TypeDecl, F.DimensionStmt, F.CommonStmt, F.ParameterStmt,
               F.DataStmt, F.EquivalenceStmt, F.ImplicitStmt,
               F.ExternalStmt, F.IntrinsicStmt, F.SaveStmt, C.GlobalDecl,
               C.ClusterDecl, C.ProcessCommonStmt)

#: statements that do nothing when executed (sync statements are
#: functional no-ops without a shadow recorder)
NOOP_STMTS = (F.ContinueStmt,) + _DECL_STMTS + _SYNC_STMTS

#: statements whose every write of storage is named by an assignment
#: target or a DO variable (a loop holding any other kind is opaque to
#: :meth:`Interpreter._read_only`)
_NAMED_WRITES = (F.Assign, C.ParallelDo, F.DoLoop, F.IfBlock, F.LogicalIf,
                 C.WhereStmt, F.Goto, F.ComputedGoto, F.ContinueStmt,
                 F.ReturnStmt, F.StopStmt) + _SYNC_STMTS + _DECL_STMTS

_STMT_CHAIN = [
    (F.Assign, Interpreter._exec_assign),
    (C.ParallelDo, Interpreter._parallel_do),
    (F.DoLoop, Interpreter._do_loop),
    (F.IfBlock, Interpreter._exec_if_block),
    (F.LogicalIf, Interpreter._exec_logical_if),
    (C.WhereStmt, Interpreter._where),
    (F.Goto, Interpreter._exec_goto),
    (F.ComputedGoto, Interpreter._exec_computed_goto),
    (F.ContinueStmt, Interpreter._exec_noop),
    (F.CallStmt, Interpreter._call_stmt),
    (F.ReturnStmt, Interpreter._exec_return),
    (F.StopStmt, Interpreter._exec_stop),
    (F.PrintStmt, Interpreter._exec_print),
    (F.ReadStmt, Interpreter._exec_read),
    (_SYNC_STMTS, Interpreter._exec_sync),
    (_DECL_STMTS, Interpreter._exec_noop),
]
_STMT_HANDLERS: dict[type, Any] = {}

_EVAL_CHAIN = [
    ((F.IntLit, F.RealLit, F.LogicalLit, F.StrLit), Interpreter._eval_lit),
    (F.Var, Interpreter._eval_var),
    ((F.ArrayRef, F.Apply), Interpreter._ref_or_call),
    (F.FuncCall, Interpreter._func_call),
    (F.BinOp, Interpreter._binop),
    (F.UnOp, Interpreter._eval_unop),
]
_EVAL_HANDLERS: dict[type, Any] = {}
