"""The compiled engine: statement lists lowered once, executed many times.

``Interpreter(engine="compiled")`` routes every ``exec_body`` through
this module.  Like KAP's one translation path emitting one specialised
text per program, each statement list is compiled *once*:

- loop nests the lowerer (:mod:`repro.execmodel.source_jit`) can prove
  bit-identical become whole-grid NumPy source, emitted into one Python
  module per list.  The module text is cached by the engine's SHA-256
  content address (artifact kind ``jit-source`` in
  :mod:`repro.engine.cache`), so warm runs skip analysis and emission,
  and a corrupt stored module quarantines and re-emits like any other
  entry;
- every other statement becomes a Python closure: statement dispatch
  (the ``isinstance`` ladder of ``exec_stmt``) is resolved at compile
  time; intrinsics, Cedar library routines, callee units and
  symbol-table facts (declared types, implicit-rule integers) are looked
  up once and captured; DO-loop index cells are resolved to one dict
  slot before the body runs instead of a scope-chain walk per iteration.

The engine is **numerics-identical** to the tree-walking interpreter:
every closure replicates the exact operation sequence of the
corresponding ``exec_stmt``/``eval`` branch (same numpy calls, same
Python arithmetic, same truncation rules, same evaluation order), and
the lowerer only accepts loops whose vector evaluation is bit-equal to
the scalar loop.  The fallback ladder is total: a loop the lowerer
rejects runs as a closure (a ``ParallelDo`` through the interpreter's
own worker-by-worker ``_parallel_do``), a statement with no closure form
runs through ``exec_stmt``, and a module that fails to compile or load
drops its whole list to closures.

A :class:`~repro.execmodel.shadow.ShadowRecorder` does not turn the
lowerer off.  With one attached, a list's module is the emitter's
recorder-aware text (its own ``jit-source`` entry: the mode is part of
the fingerprint): each lowered loop tests ``recording`` on entry and,
inside a checked iteration of an enclosing loop, hands the statement to
its closure; otherwise a DOALL-headed nest the lowering proof shows
conflict-free opens the loop on the recorder, logs the index sets it
loads and stores in bulk and closes it, and a sequential nest runs as it
does unrecorded.  The closures are built for the recorder: variable
reads, element and section reads, scalar, element and section stores and
``LOCK``/``UNLOCK`` make exactly the ``record_*`` calls of the tree
handlers they replicate, in the same order, and every ``ParallelDo``
left to them runs the interpreter's instrumented ``_parallel_do`` — so
whatever can conflict is logged access by access, in the tree's order.
Whatever is delegated to the interpreter (``_assign``, ``_invoke``,
library calls, WHERE/READ) keeps the tree's own hooks.  Without a
recorder neither the closures nor the module text know one could exist.
A list with no loop in it has nothing to lower and gets closures
directly, with no module.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.cedar import nodes as C
from repro.cedar.library import CEDAR_LIBRARY
from repro.errors import InterpreterBudgetError, InterpreterError
from repro.execmodel.interp import (Interpreter, _GotoSignal,
                                    _ReturnSignal, _StopSignal)
from repro.execmodel.source_jit import (JIT_VERSION, LOOPS, NOOP_STMTS,
                                        Runtime, coerces_to_int,
                                        emit_module)
from repro.execmodel.values import FArray, Scope
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import INTRINSICS

StmtFn = Callable[[Scope], None]
ExprFn = Callable[[Scope], object]

#: binary operators whose Fortran semantics need more than one Python
#: operator — shared with the emitted modules
_BINOP_HELPERS = {"/": Runtime.div, ".and.": Runtime.and_,
                  ".or.": Runtime.or_, ".eqv.": Runtime.eqv,
                  ".neqv.": Runtime.neqv}


def _noop(scope: Scope) -> None:
    return None


class Compiler:
    """Per-interpreter statement-list compiler and executor."""

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.shadow = interp.shadow
        # id(stmts) -> (fns, label map, stmts) — the stmts reference
        # pins the list so its id cannot be recycled
        self._bodies: dict[int, tuple[list[StmtFn], dict, list]] = {}
        #: loop nests running as emitted NumPy source, and statements
        #: lowered to closures instead — for observability and tests
        self.vectorized_loops = 0
        self.fallback_stmts = 0

    # ------------------------------------------------------------------
    # execution

    def exec_body(self, stmts: list[F.Stmt], scope: Scope,
                  unit_name: str) -> None:
        entry = self._bodies.get(id(stmts))
        if entry is None:
            from repro.telemetry import span

            with span("compile", unit=unit_name, stmts=len(stmts)):
                entry = (self._compile_list(stmts, unit_name),
                         {s.label: i for i, s in enumerate(stmts)
                          if s.label is not None},
                         stmts)
            self._bodies[id(stmts)] = entry
        fns, labels, _ = entry
        interp = self.interp
        budget = interp.step_budget

        pc, n = 0, len(fns)
        while pc < n:
            interp._steps += 1
            if budget is not None and interp._steps > budget:
                raise InterpreterBudgetError(
                    f"statement budget of {budget} exceeded in "
                    f"{unit_name} (livelock?)",
                    line=getattr(stmts[pc], "line", None))
            try:
                fns[pc](scope)
            except _GotoSignal as g:
                if g.label in labels:
                    pc = labels[g.label]
                    continue
                raise
            pc += 1

    # ------------------------------------------------------------------
    # statement-list compilation

    def _compile_list(self, stmts: list[F.Stmt], unit: str) -> list[StmtFn]:
        """One function per statement, from the list's cached module
        (the recorder-aware text when a recorder is attached)."""
        if not any(isinstance(s, LOOPS) for s in stmts):
            # no loop, nothing to lower: closures need no module
            self.fallback_stmts += len(stmts)
            return [self._stmt(s, unit) for s in stmts]

        from repro.engine.cache import get_cache
        from repro.telemetry.log import get_logger

        rec = self.shadow is not None
        try:
            text = get_cache().jit_source(
                self._dump(stmts),
                fingerprint=self._fingerprint(stmts, unit, rec),
                emit=lambda: emit_module(self.interp, stmts, unit, rec))
            code = compile(text, f"<jit-source:{unit}>", "exec")
            ns: dict = {}
            exec(code, ns)
            fns = ns["make"](Runtime(self, stmts, unit))
            if len(fns) != len(stmts):
                raise ValueError(
                    f"module yields {len(fns)} fns for {len(stmts)} "
                    f"statements")
        except InterpreterError:
            raise
        except Exception as exc:   # corrupt or stale module text:
            # closures are always able to take the whole list
            get_logger("execmodel.compiled").warning(
                "module_rejected", unit=unit,
                error_type=type(exc).__name__)
            self.fallback_stmts += len(stmts)
            return [self._stmt(s, unit) for s in stmts]
        return fns

    def _fingerprint(self, stmts: list[F.Stmt], unit: str,
                     rec: bool) -> str:
        """Codegen-relevant facts beyond the statement dump: emitter
        version and mode, the symbol facts, and which of the names the
        list calls are program units here (a unit is called before an
        intrinsic of its name, so the same statements lower differently
        in a program that defines one)."""
        st = self.interp.tables.get(unit)
        facts = ""
        if st is not None:
            facts = ";".join(
                f"{n}:{sym.type}:{int(sym.is_array)}"
                for n, sym in sorted(st.symbols.items()))
        units = self.interp.units
        called = sorted({n.name for s in stmts for n in s.walk()
                         if isinstance(n, (F.FuncCall, F.Apply, F.ArrayRef))
                         and n.name in units})
        return (f"jit{JIT_VERSION}{'r' if rec else ''}|{unit}|"
                f"{','.join(called)}|{facts}")

    @staticmethod
    def _dump(stmts: list[F.Stmt]) -> str:
        """Deterministic text form of a statement list (cache address).

        AST nodes are plain dataclasses, so ``repr`` is a stable
        structural rendering (including source-line stamps, which only
        narrows sharing, never falsifies it).
        """
        return "\n".join(repr(s) for s in stmts)

    # ------------------------------------------------------------------
    # closure lowering: statements

    def _stmt(self, s: F.Stmt, unit: str) -> StmtFn:
        interp = self.interp
        if isinstance(s, F.Assign):
            return self._assign(s, unit)
        if isinstance(s, C.ParallelDo):
            return lambda scope: interp._parallel_do(s, scope, unit)
        if isinstance(s, F.DoLoop):
            return self._do_loop(s, unit)
        if isinstance(s, F.IfBlock):
            arms = [(self._expr(c, unit) if c is not None else None, body)
                    for c, body in s.arms]
            exec_body = self.exec_body
            truth = interp._truth

            def fn(scope: Scope) -> None:
                for cond, body in arms:
                    if cond is None or truth(cond(scope)):
                        exec_body(body, scope, unit)
                        return
            return fn
        if isinstance(s, F.LogicalIf):
            cond = self._expr(s.cond, unit)
            sub = self._stmt(s.stmt, unit)
            truth = interp._truth

            def fn(scope: Scope) -> None:
                if truth(cond(scope)):
                    sub(scope)
            return fn
        if isinstance(s, F.Goto):
            target = s.target

            def fn(scope: Scope) -> None:
                raise _GotoSignal(target)
            return fn
        if isinstance(s, F.ComputedGoto):
            index = self._expr(s.index, unit)
            targets = list(s.targets)

            def fn(scope: Scope) -> None:
                k = int(index(scope))
                if 1 <= k <= len(targets):
                    raise _GotoSignal(targets[k - 1])
            return fn
        if self.shadow is not None and isinstance(
                s, (C.LockStmt, C.UnlockStmt)):
            # the race detector tracks critical sections
            held = (self.shadow.acquire if isinstance(s, C.LockStmt)
                    else self.shadow.release)
            lock = s.name
            return lambda scope: held(lock)
        if isinstance(s, NOOP_STMTS):
            return _noop
        if isinstance(s, F.CallStmt):
            return lambda scope: interp._call_stmt(s, scope, unit)
        if isinstance(s, F.ReturnStmt):
            def fn(scope: Scope) -> None:
                raise _ReturnSignal()
            return fn
        if isinstance(s, F.StopStmt):
            message = s.message

            def fn(scope: Scope) -> None:
                raise _StopSignal(message)
            return fn
        if isinstance(s, F.PrintStmt):
            item_fns = [self._expr(i, unit) for i in s.items]
            outputs = interp.outputs
            scalarize = interp._scalarize

            def fn(scope: Scope) -> None:
                outputs.append([scalarize(f(scope)) for f in item_fns])
            return fn
        # WHERE, READ, and anything new: the interpreter's own dispatch
        return lambda scope: interp.exec_stmt(s, scope, unit)

    # -- assignment ----------------------------------------------------

    def _assign(self, s: F.Assign, unit: str) -> StmtFn:
        value = self._expr(s.value, unit)
        target = s.target
        if isinstance(target, F.Var):
            return self._assign_var(target.name, value, unit)
        if isinstance(target, (F.ArrayRef, F.Apply)):
            name = target.name
            subs = (target.subscripts if isinstance(target, F.ArrayRef)
                    else target.args)
            sh = self.shadow
            if any(isinstance(x, F.RangeExpr) for x in subs):
                spec_fns = [self._spec(x, unit) for x in subs]

                def fn(scope: Scope) -> None:
                    v = value(scope)
                    arr = scope.get(name)
                    if not isinstance(arr, FArray):
                        raise InterpreterError(f"{name!r} is not an array")
                    view = arr.slice_of([f(scope) for f in spec_fns])
                    view[...] = v

                def recording(scope: Scope) -> None:
                    v = value(scope)
                    arr = scope.get(name)
                    if not isinstance(arr, FArray):
                        raise InterpreterError(f"{name!r} is not an array")
                    specs = [f(scope) for f in spec_fns]
                    if sh.recording:
                        sh.record_array(arr, name, "w", specs=specs)
                    arr.slice_of(specs)[...] = v
                return fn if sh is None else recording
            sub_fns = [self._expr(x, unit) for x in subs]

            def fn(scope: Scope) -> None:
                v = value(scope)
                arr = scope.get(name)
                if not isinstance(arr, FArray):
                    raise InterpreterError(f"{name!r} is not an array")
                arr.set(tuple(int(f(scope)) for f in sub_fns), v)

            def recording(scope: Scope) -> None:
                v = value(scope)
                arr = scope.get(name)
                if not isinstance(arr, FArray):
                    raise InterpreterError(f"{name!r} is not an array")
                idx = tuple(int(f(scope)) for f in sub_fns)
                if sh.recording:
                    sh.record_array(arr, name, "w", idx=idx)
                arr.set(idx, v)
            return fn if sh is None else recording
        interp = self.interp
        return lambda scope: interp._assign(
            s.target, value(scope), scope, unit)

    def _assign_var(self, name: str, value: ExprFn, unit: str) -> StmtFn:
        coerce_int = coerces_to_int(self.interp.tables.get(unit), name)
        store = Runtime.astore
        sh = self.shadow
        if sh is None:
            return lambda scope: store(scope, name, value(scope), coerce_int)

        def recording(scope: Scope) -> None:
            v = value(scope)
            if sh.recording:
                # an undefined name is created in the root scope
                # (Scope.set semantics) — keyed there, as the tree does
                sc = scope.lookup_scope(name) or scope._root()
                cur = sc.vars.get(name)
                if isinstance(cur, FArray):
                    sh.record_array(cur, name, "w",
                                    idx=() if cur.data.ndim == 0 else None)
                else:
                    sh.record_scalar(sc, name, "w")
            store(scope, name, v, coerce_int)
        return recording

    # -- loops ---------------------------------------------------------

    def _do_loop(self, s: F.DoLoop, unit: str) -> StmtFn:
        var = s.var
        body = s.body
        lo_f = self._expr(s.start, unit)
        hi_f = self._expr(s.end, unit)
        step_f = self._expr(s.step, unit) if s.step is not None else None
        exec_body = self.exec_body

        def fn(scope: Scope) -> None:
            lo = int(lo_f(scope))
            hi = int(hi_f(scope))
            step = int(step_f(scope)) if step_f is not None else 1
            if step == 0:
                raise InterpreterError("zero DO step")
            sc = scope.lookup_scope(var)
            if sc is None:
                sc = scope._root()
            cell = sc.vars
            for v in range(lo, hi + (1 if step > 0 else -1), step):
                cell[var] = v
                exec_body(body, scope, unit)
        return fn

    # ------------------------------------------------------------------
    # expression compilation

    def _expr(self, e: F.Expr, unit: str) -> ExprFn:
        if isinstance(e, (F.IntLit, F.RealLit, F.LogicalLit, F.StrLit)):
            v = e.value
            return lambda scope: v
        if isinstance(e, F.Var):
            name = e.name
            sh = self.shadow

            def fn(scope: Scope):
                sc = scope.lookup_scope(name)
                if sc is None:
                    raise InterpreterError(f"undefined variable {name!r}")
                v = sc.vars[name]
                if isinstance(v, FArray):
                    d = v.data
                    if d.ndim == 0:  # COMMON scalar box
                        return d.item()
                    return d
                return v

            def recording(scope: Scope):
                sc = scope.lookup_scope(name)
                if sc is None:
                    raise InterpreterError(f"undefined variable {name!r}")
                v = sc.vars[name]
                if isinstance(v, FArray):
                    d = v.data
                    if sh.recording:
                        sh.record_array(v, name, "r",
                                        idx=() if d.ndim == 0 else None)
                    if d.ndim == 0:  # COMMON scalar box
                        return d.item()
                    return d
                if sh.recording:
                    sh.record_scalar(sc, name, "r")
                return v
            return fn if sh is None else recording
        if isinstance(e, (F.ArrayRef, F.Apply)):
            return self._ref_or_call(e, unit)
        if isinstance(e, F.FuncCall):
            return self._func_call(e.name, e.args, unit)
        if isinstance(e, F.BinOp):
            return self._binop(e, unit)
        if isinstance(e, F.UnOp):
            operand = self._expr(e.operand, unit)
            if e.op == "-":
                return lambda scope: -operand(scope)
            if e.op == "+":
                return operand
            if e.op == ".not.":
                not_ = Runtime.not_
                return lambda scope: not_(operand(scope))
        node = e
        return lambda scope: (_ for _ in ()).throw(InterpreterError(
            f"cannot evaluate {type(node).__name__}"))

    def _ref_or_call(self, e, unit: str) -> ExprFn:
        name = e.name
        subs = e.subscripts if isinstance(e, F.ArrayRef) else e.args
        call = self._func_call(name, list(subs), unit)
        sh = self.shadow
        if any(isinstance(x, F.RangeExpr) for x in subs):
            spec_fns = [self._spec(x, unit) for x in subs]

            def fn(scope: Scope):
                sc = scope.lookup_scope(name)
                v = sc.vars[name] if sc is not None else None
                if isinstance(v, FArray):
                    return v.slice_of([f(scope) for f in spec_fns])
                return call(scope)

            def recording(scope: Scope):
                sc = scope.lookup_scope(name)
                v = sc.vars[name] if sc is not None else None
                if isinstance(v, FArray):
                    specs = [f(scope) for f in spec_fns]
                    if sh.recording:
                        sh.record_array(v, name, "r", specs=specs)
                    return v.slice_of(specs)
                return call(scope)
            return fn if sh is None else recording
        sub_fns = [self._expr(x, unit) for x in subs]

        def fn(scope: Scope):
            sc = scope.lookup_scope(name)
            v = sc.vars[name] if sc is not None else None
            if isinstance(v, FArray):
                return v.get(tuple(int(f(scope)) for f in sub_fns))
            return call(scope)

        def recording(scope: Scope):
            sc = scope.lookup_scope(name)
            v = sc.vars[name] if sc is not None else None
            if isinstance(v, FArray):
                idx = tuple(int(f(scope)) for f in sub_fns)
                if sh.recording:
                    sh.record_array(v, name, "r", idx=idx)
                return v.get(idx)
            return call(scope)
        return fn if sh is None else recording

    def _spec(self, x: F.Expr, unit: str) -> ExprFn:
        if isinstance(x, F.RangeExpr):
            lo = self._expr(x.lo, unit) if x.lo is not None else None
            hi = self._expr(x.hi, unit) if x.hi is not None else None
            st = self._expr(x.stride, unit) if x.stride is not None else None

            def fn(scope: Scope):
                return (lo(scope) if lo is not None else None,
                        hi(scope) if hi is not None else None,
                        st(scope) if st is not None else None)
            return fn
        sub = self._expr(x, unit)
        return lambda scope: int(sub(scope))

    def _func_call(self, name: str, args: list[F.Expr], unit: str) -> ExprFn:
        interp = self.interp
        if name in CEDAR_LIBRARY:
            routine_fn = CEDAR_LIBRARY[name].fn
            arg_fns = [self._expr(a, unit) for a in args]
            return lambda scope: routine_fn(*[f(scope) for f in arg_fns])
        if name in interp.units:
            callee = interp.units[name]
            args_ast = list(args)
            return lambda scope: interp._invoke(callee, args_ast, scope, unit)
        info = INTRINSICS.get(name)
        if info is not None:
            scalar_fn = info.fn
            np_fn = info.np_fn
            arg_fns = [self._expr(a, unit) for a in args]

            def fn(scope: Scope):
                vals = [f(scope) for f in arg_fns]
                for v in vals:
                    if isinstance(v, np.ndarray):
                        if np_fn is None:
                            raise InterpreterError(
                                f"intrinsic {name!r} not vectorized")
                        return np_fn(*vals)
                return scalar_fn(*vals)
            return fn

        def fn(scope: Scope):
            raise InterpreterError(f"unknown function {name!r}")
        return fn

    def _binop(self, e: F.BinOp, unit: str) -> ExprFn:
        lf = self._expr(e.left, unit)
        rf = self._expr(e.right, unit)
        op = e.op
        if op == "+":
            return lambda scope: lf(scope) + rf(scope)
        if op == "-":
            return lambda scope: lf(scope) - rf(scope)
        if op == "*":
            return lambda scope: lf(scope) * rf(scope)
        if op == "**":
            return lambda scope: lf(scope) ** rf(scope)
        if op == ".lt.":
            return lambda scope: lf(scope) < rf(scope)
        if op == ".le.":
            return lambda scope: lf(scope) <= rf(scope)
        if op == ".eq.":
            return lambda scope: lf(scope) == rf(scope)
        if op == ".ne.":
            return lambda scope: lf(scope) != rf(scope)
        if op == ".gt.":
            return lambda scope: lf(scope) > rf(scope)
        if op == ".ge.":
            return lambda scope: lf(scope) >= rf(scope)
        # like the tree-walk, .and./.or. evaluate BOTH operands (Fortran
        # does not promise short-circuiting; keeping eager evaluation
        # preserves operation order and side-effect parity)
        helper = _BINOP_HELPERS.get(op)
        if helper is not None:
            return lambda scope: helper(lf(scope), rf(scope))

        def fn(scope: Scope):
            raise InterpreterError(f"unknown operator {op!r}")
        return fn
