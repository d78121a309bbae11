"""Human-readable rendering of experiment telemetry.

:class:`TraceReport` renders the per-workload trace dictionaries that the
experiment drivers attach to their tables (``Table.meta["trace"]``): for
each workload, the serial-vs-parallel cycle breakdown by ledger category
and the restructurer's decision log.
"""

from __future__ import annotations

from typing import Mapping

from repro.trace.events import render_decision
from repro.trace.ledger import render_breakdown


class TraceReport:
    """Renders one experiment's trace metadata.

    ``workloads`` maps workload name → dict with any of the keys
    ``speedup``, ``serial_cycles``, ``parallel_cycles``,
    ``serial_breakdown``, ``parallel_breakdown`` (ledger dicts) and
    ``decisions`` (list of ``DecisionEvent.to_dict()`` entries).
    """

    def __init__(self, title: str, workloads: Mapping[str, Mapping]):
        self.title = title
        self.workloads = workloads

    def render(self) -> str:
        lines = [f"{self.title} — cycle attribution",
                 "-" * (len(self.title) + 20)]
        for name, w in self.workloads.items():
            head = name
            if "speedup" in w:
                head += f"  (speedup {w['speedup']:.2f})"
            lines.append(head)
            for label, key in (("serial", "serial_breakdown"),
                               ("restructured", "parallel_breakdown")):
                bd = w.get(key)
                if bd:
                    lines.append(f"  {label}:")
                    lines.extend(render_breakdown(bd, "  "))
            decisions = w.get("decisions") or []
            if decisions:
                lines.append("  decisions:")
                for d in decisions:
                    lines.append("    " + render_decision(d))
            lines.append("")
        return "\n".join(lines).rstrip()
