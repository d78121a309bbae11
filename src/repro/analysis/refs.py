"""Reference collection: every scalar/array read and write in a loop body.

Dependence testing, privatization, and reduction recognition all start from
the same inventory: which memory locations does each statement touch, under
which enclosing loops, and is the access conditional?  :func:`collect_refs`
builds that inventory for a statement list.

``CALL`` statements are handled through an optional *effects oracle* (the
interprocedural MOD/REF summaries); without one, every argument and every
COMMON variable is conservatively treated as both read and written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.fortran import ast_nodes as F


@dataclass(frozen=True)
class LoopInfo:
    """One enclosing loop: index variable and bound expressions."""
    var: str
    start: F.Expr
    end: F.Expr
    step: Optional[F.Expr]
    loop: F.DoLoop = field(compare=False, hash=False, default=None)

    @staticmethod
    def of(loop: F.DoLoop) -> "LoopInfo":
        return LoopInfo(loop.var, loop.start, loop.end, loop.step, loop)


@dataclass
class Ref:
    """One reference to a variable or array element.

    ``subscripts`` is empty for scalars.  ``loops`` lists enclosing loops
    outermost-first.  ``conditional`` is True when the reference sits under
    an IF inside the innermost loop of interest.  ``in_call`` marks
    references induced by CALL statements (may be both read and write).
    """

    name: str
    subscripts: list[F.Expr]
    is_write: bool
    stmt: F.Stmt
    loops: tuple[LoopInfo, ...]
    conditional: bool = False
    in_call: bool = False

    @property
    def is_scalar(self) -> bool:
        return not self.subscripts

    def depth(self) -> int:
        return len(self.loops)


def subscripts_of(e: F.Expr) -> Optional[list[F.Expr]]:
    """Subscript list of an array reference (resolved or still an
    :class:`Apply`), None for anything else."""
    if isinstance(e, F.ArrayRef):
        return e.subscripts
    return e.args if isinstance(e, F.Apply) else None


#: Effects oracle: call statement → (ref names, mod names) among the actual
#: arguments, or None when the callee is unknown.
EffectsOracle = Callable[[F.CallStmt], Optional[tuple[set[str], set[str]]]]


class RefCollector:
    """Walks statement lists accumulating :class:`Ref` records."""

    def __init__(self, effects: EffectsOracle | None = None):
        self.effects = effects
        self.refs: list[Ref] = []
        self.has_unknown_calls = False
        self.has_goto = False

    # -- public -----------------------------------------------------------

    def collect(self, stmts: list[F.Stmt],
                loops: tuple[LoopInfo, ...] = (),
                conditional: bool = False) -> list[Ref]:
        for s in stmts:
            self._stmt(s, loops, conditional)
        return self.refs

    # -- statements ---------------------------------------------------------

    def _stmt(self, s: F.Stmt, loops: tuple[LoopInfo, ...],
              cond: bool) -> None:
        if isinstance(s, F.Assign):
            self._expr(s.value, loops, cond, s)
            t = s.target
            if isinstance(t, (F.Var, F.ArrayRef, F.Apply)):
                subs = subscripts_of(t) or []
                for sub in subs:
                    self._expr(sub, loops, cond, s)
                self._add(t.name, list(subs), True, s, loops, cond)
            return
        if isinstance(s, F.DoLoop):
            self._expr(s.start, loops, cond, s)
            self._expr(s.end, loops, cond, s)
            if s.step is not None:
                self._expr(s.step, loops, cond, s)
            self._add(s.var, [], True, s, loops, cond)
            inner = loops + (LoopInfo.of(s),)
            for b in s.body:
                self._stmt(b, inner, cond)
            return
        if isinstance(s, F.IfBlock):
            for arm_cond, body in s.arms:
                if arm_cond is not None:
                    self._expr(arm_cond, loops, cond, s)
                for b in body:
                    self._stmt(b, loops, True)
            return
        if isinstance(s, F.LogicalIf):
            self._expr(s.cond, loops, cond, s)
            self._stmt(s.stmt, loops, True)
            return
        if isinstance(s, F.CallStmt):
            self._call(s, loops, cond)
            return
        if isinstance(s, (F.Goto, F.ComputedGoto)):
            self.has_goto = True
            if isinstance(s, F.ComputedGoto):
                self._expr(s.index, loops, cond, s)
            return
        if isinstance(s, F.PrintStmt):
            for item in s.items:
                self._expr(item, loops, cond, s)
            return
        if isinstance(s, F.ReadStmt):
            for item in s.items:
                if isinstance(item, (F.Var, F.ArrayRef, F.Apply)):
                    self._add(item.name, list(subscripts_of(item) or []),
                              True, s, loops, cond)
            return
        # Continue/Return/Stop/declarations: no data references
        return

    def _call(self, s: F.CallStmt, loops: tuple[LoopInfo, ...], cond: bool) -> None:
        summary = self.effects(s) if self.effects else None
        if summary is None:
            self.has_unknown_calls = True
        for a in s.args:
            # expression args are pure reads; variable/array args may be
            # modified by the callee
            if isinstance(a, (F.Var, F.ArrayRef, F.Apply)):
                subs = subscripts_of(a) or []
                for sub in subs:
                    self._expr(sub, loops, cond, s)
                if summary is None or a.name in summary[0]:
                    self._add(a.name, list(subs), False, s, loops, cond,
                              in_call=True)
                if summary is None or a.name in summary[1]:
                    self._add(a.name, list(subs), True, s, loops, cond,
                              in_call=True)
            else:
                self._expr(a, loops, cond, s)

    # -- expressions --------------------------------------------------------

    def _expr(self, e: F.Expr, loops: tuple[LoopInfo, ...],
              cond: bool, stmt: F.Stmt) -> None:
        if isinstance(e, (F.Var, F.ArrayRef, F.Apply)):
            subs = subscripts_of(e) or []
            for sub in subs:
                self._expr(sub, loops, cond, stmt)
            self._add(e.name, list(subs), False, stmt, loops, cond)
            return
        if isinstance(e, F.FuncCall):
            for a in e.args:
                self._expr(a, loops, cond, stmt)
            return
        if isinstance(e, F.BinOp):
            self._expr(e.left, loops, cond, stmt)
            self._expr(e.right, loops, cond, stmt)
            return
        if isinstance(e, F.UnOp):
            self._expr(e.operand, loops, cond, stmt)
            return
        if isinstance(e, F.RangeExpr):
            for part in (e.lo, e.hi, e.stride):
                if part is not None:
                    self._expr(part, loops, cond, stmt)
            return
        # literals: nothing

    def _add(self, name: str, subs: list[F.Expr], is_write: bool,
             stmt: F.Stmt, loops: tuple[LoopInfo, ...], cond: bool,
             in_call: bool = False) -> None:
        self.refs.append(Ref(name, subs, is_write, stmt, loops, cond, in_call))


def collect_refs(stmts: list[F.Stmt],
                 loops: tuple[LoopInfo, ...] = (),
                 effects: EffectsOracle | None = None) -> list[Ref]:
    """Collect all references under ``stmts`` (see :class:`RefCollector`)."""
    return RefCollector(effects).collect(stmts, loops)


def written_names(stmts: list[F.Stmt]) -> set[str]:
    """Names assigned anywhere under ``stmts`` (conservative for calls)."""
    return {r.name for r in collect_refs(stmts) if r.is_write}
