"""Structured data-flow helpers: definite assignment and liveness.

These walkers operate on the *structured* statement subset (assignments,
block/logical IFs, DO loops, calls).  The presence of GOTO makes the result
conservative (``unknown``), which in turn makes privatization and last-value
analyses bail out safely — matching the restructurer's behaviour on
spaghetti code.

Lattice for definite assignment of one variable within one iteration::

    NO < MAYBE < YES

``YES`` = assigned on every path before this point, ``MAYBE`` = on some
path, ``NO`` = on no path.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Optional

from repro.analysis.refs import subscripts_of
from repro.fortran import ast_nodes as F


class Assigned(IntEnum):
    NO = 0
    MAYBE = 1
    YES = 2


@dataclass
class ScalarUsage:
    """Definite-assignment summary of one scalar in a statement region."""

    upward_exposed: bool = False   # read before any sure assignment
    assigned: Assigned = Assigned.NO
    read_anywhere: bool = False
    written_anywhere: bool = False
    in_call: bool = False          # passed to a CALL (unknown effect)
    saw_goto: bool = False

    @property
    def conservative(self) -> bool:
        return self.in_call or self.saw_goto


def _trips_at_least_once(loop: F.DoLoop) -> bool:
    """True when the loop provably executes ≥ 1 iteration.

    Holds for constant bounds with start ≤ end (positive step), and for the
    ubiquitous ``do i = 1, n`` only when n is a literal.
    """
    from repro.analysis.expr import const_value, linearize

    step = 1 if loop.step is None else const_value(loop.step)
    if step is None or step == 0:
        return False
    lo, hi = const_value(loop.start), const_value(loop.end)
    if lo is not None and hi is not None:
        return hi >= lo if step > 0 else hi <= lo
    # symbolic: identical expressions trip exactly once
    llo, lhi = linearize(loop.start), linearize(loop.end)
    if llo is not None and lhi is not None:
        diff = lhi - llo
        if diff.is_constant:
            return diff.const >= 0 if step > 0 else diff.const <= 0
    return False


class RegionUsage:
    """Definite-assignment summaries of *every* scalar in a statement
    region, from one walk (the restructurer asks about each candidate
    name of a nest; the region is walked once, not once per name)."""

    def __init__(self, stmts: list[F.Stmt]):
        self.saw_goto = False
        self._usage: dict[str, ScalarUsage] = {}
        self._region(stmts, (self._usage, None))

    def of(self, name: str) -> ScalarUsage:
        u = self._usage.get(name) or ScalarUsage()
        u.saw_goto = self.saw_goto  # a GOTO anywhere taints every name
        return u

    def observes(self, name: str) -> bool:
        """Would executing the region observe the variable's current
        value?  True only for an *upward-exposed* read (a read reached
        before any sure redefinition) or an opaque call/GOTO — a region
        that redefines the variable before every read does not keep it
        live."""
        u = self._usage.get(name)
        return self.saw_goto or (u is not None
                                 and (u.upward_exposed or u.in_call))

    # A scope is (usage by name, enclosing scope).  A nested region starts
    # each name at the enclosing scope's *current* state, read lazily on
    # first touch: the enclosing state cannot change while the nested
    # region is being walked.

    @staticmethod
    def _get(scope, name: str) -> ScalarUsage:
        usage, outer = scope
        u = usage.get(name)
        if u is None:
            assigned = Assigned.NO
            while outer is not None:
                seen = outer[0].get(name)
                if seen is not None:
                    assigned = seen.assigned
                    break
                outer = outer[1]
            u = usage[name] = ScalarUsage(assigned=assigned)
        return u

    def _reads(self, e: F.Expr, scope) -> None:
        for n in e.walk():
            if isinstance(n, F.Var):
                u = self._get(scope, n.name)
                u.read_anywhere = True
                if u.assigned != Assigned.YES:
                    u.upward_exposed = True

    def _writes(self, name: str, scope) -> None:
        u = self._get(scope, name)
        u.assigned = Assigned.YES
        u.written_anywhere = True

    def _region(self, stmts: list[F.Stmt], scope) -> None:
        for s in stmts:
            self._stmt(s, scope)

    def _nested(self, scope, walk, arg) -> dict[str, ScalarUsage]:
        """Walk a nested region; fold its flags into ``scope`` and return
        its per-name usage for the caller's ``assigned`` merge."""
        inner: dict[str, ScalarUsage] = {}
        walk(arg, (inner, scope))
        for name, iu in inner.items():
            u = self._get(scope, name)
            u.read_anywhere |= iu.read_anywhere
            u.written_anywhere |= iu.written_anywhere
            u.in_call |= iu.in_call
        return inner

    def _stmt(self, s: F.Stmt, scope) -> None:
        if isinstance(s, F.Assign):
            self._reads(s.value, scope)
            t = s.target
            if isinstance(t, F.Var):
                self._writes(t.name, scope)
            else:
                for x in subscripts_of(t) or ():
                    self._reads(x, scope)
        elif isinstance(s, F.DoLoop):
            for e in (s.start, s.end, s.step):
                if e is not None:
                    self._reads(e, scope)
            # loop variable reads inside refer to the (assigned) index
            self._writes(s.var, scope)
            trips = _trips_at_least_once(s)
            for name, iu in self._nested(scope, self._region,
                                         s.body).items():
                u = scope[0][name]
                if u.assigned != Assigned.YES:
                    if iu.upward_exposed:
                        u.upward_exposed = True
                    if not trips and iu.written_anywhere:
                        # body may execute zero times: sure defs degrade
                        u.assigned = Assigned.MAYBE
                if trips:
                    u.assigned = iu.assigned
        elif isinstance(s, F.IfBlock):
            for c, _ in s.arms:
                if c is not None:
                    self._reads(c, scope)
            entry = {}
            arms = []
            for _, body in s.arms:
                arms.append(self._nested(scope, self._region, body))
                for name in arms[-1]:
                    if name not in entry:
                        entry[name] = scope[0][name].assigned
                        # flags were folded in; ``assigned`` is untouched
                        # until every arm has been walked
            falls_through = not s.arms or s.arms[-1][0] is not None
            for name, before in entry.items():
                u = scope[0][name]
                states = [arm[name].assigned if name in arm else before
                          for arm in arms]
                if falls_through:
                    states.append(before)  # no ELSE
                # merge of the control-flow paths: sure only if all agree
                u.assigned = (states[0] if len(set(states)) == 1
                              else Assigned.MAYBE)
                if any(name in arm and arm[name].upward_exposed
                       for arm in arms):
                    u.upward_exposed = True
        elif isinstance(s, F.LogicalIf):
            self._reads(s.cond, scope)
            for name, iu in self._nested(scope, self._stmt, s.stmt).items():
                u = scope[0][name]
                if iu.upward_exposed:
                    u.upward_exposed = True
                if iu.assigned == Assigned.YES and u.assigned != Assigned.YES:
                    u.assigned = Assigned.MAYBE
        elif isinstance(s, F.CallStmt):
            for a in s.args:
                if isinstance(a, F.Var):
                    u = self._get(scope, a.name)
                    u.in_call = u.read_anywhere = u.written_anywhere = True
                else:
                    self._reads(a, scope)
        elif isinstance(s, (F.Goto, F.ComputedGoto)):
            self.saw_goto = True
        elif isinstance(s, F.PrintStmt):
            for item in s.items:
                self._reads(item, scope)
        elif isinstance(s, F.ReadStmt):
            for item in s.items:
                if isinstance(item, F.Var):
                    self._writes(item.name, scope)
        # Continue / Return / Stop / declarations: no effect


def regions_after(stmts: list[F.Stmt],
                  marker: F.Stmt) -> Optional[list[list[F.Stmt]]]:
    """The statement regions control may reach after ``marker`` finishes:
    the rest of its own statement list, then for each enclosing construct
    outwards the loop body (later iterations re-execute it) and the rest
    of that level.  None if ``marker`` is not under ``stmts``."""
    for idx, s in enumerate(stmts):
        if s is marker:
            return [stmts[idx + 1:]]
        if isinstance(s, F.DoLoop):
            sub = regions_after(s.body, marker)
            if sub is not None:
                return sub + [s.body, stmts[idx + 1:]]
        elif isinstance(s, F.IfBlock):
            for _, body in s.arms:
                sub = regions_after(body, marker)
                if sub is not None:
                    return sub + [stmts[idx + 1:]]
    return None
