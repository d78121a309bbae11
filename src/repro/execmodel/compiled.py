"""The compiled engine: statement lists emitted once, executed many times.

``Interpreter(engine="compiled")`` routes every ``exec_body`` through
this module.  Like KAP's one translation path emitting one specialised
text per program, each statement list becomes *one* Python module text
(:func:`repro.execmodel.source_jit.emit_module`) holding a function per
statement: whole-grid NumPy source for the loop nests the lowerer can
prove bit-identical, scalar source over the ``Runtime`` helpers for
every other statement.  The text is cached by the engine's SHA-256
content address (artifact kind ``jit-source`` in
:mod:`repro.engine.cache`), so warm runs skip analysis and emission and
a corrupt stored module quarantines and re-emits like any other entry;
it is ``compile()``d once per process (:func:`_load`), however many
interpreters run the program.

This class keeps what is per list and per run: the label map and
``_GotoSignal`` handling of a statement list, the step budget, and the
choice of who executes the list.  There are two implementations of the
language, not three:

- the module text, for every list the emitter covers — and in it the
  fallback from vector to scalar text is per loop and per entry (inside
  a checked iteration, under aliased array names, under a deal that is
  not a partition);
- the tree walk (``Interpreter.exec_body``), which is total and is the
  reference, for a list holding a statement kind the emitter declines
  (GOTO, computed GOTO, PRINT, READ, WHERE, STOP) and for a list whose
  module text fails to load.  Its nested lists come back here.

The engine is **numerics-identical** to the tree walk: the scalar text
replicates the exact operation sequence of the corresponding
``exec_stmt``/``eval`` branch (same numpy calls, same Python arithmetic,
same truncation rules, same evaluation order), and the lowerer only
accepts loops whose vector evaluation is bit-equal to the scalar loop.

A :class:`~repro.execmodel.shadow.ShadowRecorder` changes no scalar
text: the ``Runtime`` a module is instantiated with holds the recorder
(or a stand-in that never records), and each access helper makes
exactly the ``record_*`` call of the tree handler it stands for, in the
same order; every ``ParallelDo`` outside a vector form runs the
interpreter's instrumented ``_parallel_do``.  The vector forms have a recorder-aware text of their
own (its own ``jit-source`` entry: the mode is part of the fingerprint)
— see :mod:`repro.execmodel.source_jit`.
"""

from __future__ import annotations

from functools import lru_cache

from repro.errors import InterpreterBudgetError, InterpreterError
from repro.execmodel.interp import Interpreter, _GotoSignal
from repro.execmodel.source_jit import JIT_VERSION, Runtime, emit_module
from repro.execmodel.values import Scope
from repro.fortran import ast_nodes as F


@lru_cache(maxsize=512)
def _load(text: str):
    """The ``make`` of one module text (``None`` for a list the emitter
    sent to the tree), compiled once per process: the interpreters a
    sweep builds over one cached program share it.  A text that fails
    to load raises, and is not remembered."""
    ns: dict = {}
    exec(compile(text, "<jit-source>", "exec"), ns)
    return ns["make"]


class Compiler:
    """Per-interpreter statement-list compiler and executor."""

    def __init__(self, interp: Interpreter):
        self.interp = interp
        self.shadow = interp.shadow
        # id(stmts) -> (fns or None for a tree list, label map, stmts) —
        # the stmts reference pins the list so its id cannot be recycled
        self._bodies: dict[int, tuple[list | None, dict, list]] = {}
        #: (n, p) -> whether ``interp.deal(n, p)`` is a partition of
        #: ``range(n)`` (:meth:`Runtime.partition`)
        self.partitions: dict[tuple[int, int], bool] = {}
        #: loop nests running as vector text, statements on scalar text
        #: and whole lists left to the tree — for observability and tests
        self.vectorized_loops = 0
        self.scalar_stmts = 0
        self.tree_lists = 0

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
        if fns is None:
            # the reference walk, which is total (its nested lists come
            # back here through ``interp.exec_body``)
            Interpreter.exec_body(interp, stmts, scope, unit_name)
            return
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

    def _compile_list(self, stmts: list[F.Stmt],
                      unit: str) -> list | None:
        """One function per statement, from the list's cached module
        (recorder-aware vector forms when a recorder is attached); None
        when the list runs on the tree — the emitter declined one of its
        statements, or the module text does not load."""
        from repro.engine.cache import get_cache
        from repro.telemetry.log import get_logger

        rec = self.shadow is not None
        try:
            make = _load(get_cache().jit_source(
                self._dump(stmts),
                fingerprint=self._fingerprint(stmts, unit, rec),
                emit=lambda: emit_module(self.interp, stmts, unit, rec)))
            if make is not None:
                fns = make(Runtime(self, stmts, unit))
                if len(fns) != len(stmts):
                    raise ValueError(
                        f"module yields {len(fns)} fns for {len(stmts)} "
                        f"statements")
                return fns
        except InterpreterError:
            raise
        except Exception as exc:   # corrupt or stale module text
            get_logger("execmodel.compiled").warning(
                "module_rejected", unit=unit,
                error_type=type(exc).__name__)
        self.tree_lists += 1
        return None

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
