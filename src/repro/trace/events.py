"""Structured restructurer decision events (the paper's §4.1 hand-log).

Every technique the planner or a transformation pass *tries* produces a
:class:`DecisionEvent`: which loop (identified by index variable and
source line), what was attempted, whether it was accepted, and — the
part the paper's methodology leans on — *why not* when it was rejected.
The restructurer collects them in a :class:`TraceRecorder` and hands the
list over as ``RestructureReport.events``; a pass run on its own emits
into :data:`NULL_SINK`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

#: event actions, in roughly decreasing order of interest
ACTIONS = ("accepted", "rejected", "failed", "applied", "declined", "noted")


@dataclass(frozen=True)
class DecisionEvent:
    """One restructuring decision about one loop nest (or unit).

    ``kind`` distinguishes planner version selection (``"plan"``) from
    transformation-pass bookkeeping (``"pass"``).  ``technique`` is the
    candidate version label (``"xdoall"``, ``"cdoacross"``, ...) or the
    pass name (``"privatize"``, ``"fusion"``, ...).  ``predicted_cycles``
    carries the compile-time cost-model score for planner candidates.
    """

    kind: str                  # "plan" | "pass"
    unit: str                  # program unit name
    technique: str
    action: str                # one of ACTIONS
    loop: str = ""             # e.g. "do i"
    line: Optional[int] = None  # source line of the DO statement
    reason: str = ""
    predicted_cycles: Optional[float] = None

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "unit": self.unit,
            "technique": self.technique,
            "action": self.action,
        }
        if self.loop:
            d["loop"] = self.loop
        if self.line is not None:
            d["line"] = self.line
        if self.reason:
            d["reason"] = self.reason
        if self.predicted_cycles is not None:
            d["predicted_cycles"] = self.predicted_cycles
        return d

    def render(self) -> str:
        return render_decision(self.to_dict())


def render_decision(d: Mapping) -> str:
    """One text line for a ``DecisionEvent.to_dict()``-shaped mapping."""
    loc = f"@{d['line']}" if d.get("line") is not None else ""
    loop = f"{d.get('loop', '')}{loc}" or "<unit>"
    cost = (f" [{d['predicted_cycles']:.0f} cyc]"
            if d.get("predicted_cycles") is not None else "")
    why = f": {d['reason']}" if d.get("reason") else ""
    return (f"{d.get('unit', '?')}:{loop} {d.get('technique', '?')} "
            f"{d.get('action', '?')}{cost}{why}")


class _NullSink:
    """Drops every event (a pass run outside the restructurer)."""

    def emit(self, event: DecisionEvent) -> None:
        pass


#: shared default sink
NULL_SINK = _NullSink()


@dataclass
class TraceRecorder:
    """In-memory event collector."""

    events: list[DecisionEvent] = field(default_factory=list)

    def emit(self, event: DecisionEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
