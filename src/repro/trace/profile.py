"""Profile sessions, their two artifacts, and the terminal renderers.

A :class:`ProfileSession` accumulates one :class:`RunProfile` per
estimator invocation (workload × serial/parallel role): the profiling
ledger (cycles + event counts) and the per-CE loop timeline.  The
experiment harness activates a session around a driver
(``repro.experiments.common.profiled``) and writes it two ways:

- :meth:`ProfileSession.to_profile_doc` — the ``repro-profile/1`` JSON
  document, per-loop spans included (validated by
  ``scripts/validate_experiment_json.py`` against
  ``schemas/profile.schema.json``).  It is the one file
  ``python -m repro.trace`` reads back (:func:`load_runs`);
- :func:`chrome_trace` — a Chrome trace-event ``trace.json`` for
  Perfetto (https://ui.perfetto.dev, "Open trace file"); write-only.

:func:`render_gantt` draws one ASCII chart per parallel loop, one row
per CE — the paper's §4.2.4 evidence in text form: a spread loop whose
rows are mostly ``.`` (idle/wait) behind a long ``>`` (startup) prefix
is a loop not worth running at S/X level.  Glyphs: ``>`` startup,
``|`` preamble/postamble, ``:`` dispatch, ``#`` chunk execute, ``~``
synchronization, ``.`` idle/wait, ``!`` fault.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from repro.trace.ledger import (
    HIERARCHY,
    CycleLedger,
    memory_cycles_from_counters,
    prefetch_hit_rate,
)
from repro.trace.timeline import CONTROL_TRACK, LoopRecord, TimelineRecorder

#: stamped into every profile document; bump on incompatible shape changes
PROFILE_SCHEMA = "repro-profile/1"

#: machine constants a profile document must carry so that validators can
#: recompute memory cycles from counters without importing this package
MACHINE_CONSTANTS = ("lat_cache", "lat_cluster", "lat_global",
                     "lat_global_prefetched", "prefetch_trigger",
                     "page_fault_cost")

#: span categories → their one-character Gantt glyphs
CATEGORY_GLYPHS = {"startup": ">", "preamble": "|", "dispatch": ":",
                   "chunk": "#", "sync": "~", "wait": ".", "idle": ".",
                   "postamble": "|", "fault": "!"}


@dataclass
class RunProfile:
    """One profiled estimate: its ledger and its loop timeline."""

    workload: str
    role: str                    # "serial" | "parallel"
    cfg: object                  # the MachineConfig it was priced on
    total_cycles: float
    ledger: CycleLedger          # a profiling ledger (``counts`` set)
    timeline: TimelineRecorder = field(default_factory=TimelineRecorder)

    def to_dict(self) -> dict:
        machine = {"name": self.cfg.name}
        for k in MACHINE_CONSTANTS:
            machine[k] = getattr(self.cfg, k)
        counts = self.ledger.counter_dict()
        return {
            "workload": self.workload,
            "role": self.role,
            "machine": machine,
            "total_cycles": self.total_cycles,
            "counters": counts,
            "memory_cycles": {
                "ledger": {c: getattr(self.ledger, c)
                           for c in HIERARCHY["memory"] + HIERARCHY["paging"]},
                "from_counters": memory_cycles_from_counters(counts, self.cfg),
            },
            "prefetch_hit_rate": prefetch_hit_rate(counts),
            "loops": [rec.to_dict() for rec in self.timeline],
        }


class ProfileSession:
    """Collects :class:`RunProfile`s for one experiment."""

    def __init__(self, experiment: str):
        self.experiment = experiment
        self.runs: list[RunProfile] = []

    def add(self, workload: str, role: str, cfg, result,
            timeline: TimelineRecorder) -> RunProfile:
        """Register one profiled estimate (a ``PerfResult``).

        Repeated (workload, role) pairs — parameter sweeps like Figure 8's
        cluster counts — get ``#2``, ``#3``, ... suffixes.
        """
        seen = sum(1 for r in self.runs
                   if r.role == role
                   and (r.workload == workload
                        or r.workload.startswith(workload + "#")))
        name = workload if seen == 0 else f"{workload}#{seen + 1}"
        run = RunProfile(workload=name, role=role, cfg=cfg,
                         total_cycles=result.total, ledger=result.ledger,
                         timeline=timeline)
        self.runs.append(run)
        return run

    def to_profile_doc(self, quick: bool | None = None) -> dict:
        doc = {
            "schema": PROFILE_SCHEMA,
            "experiment": self.experiment,
            "runs": [r.to_dict() for r in self.runs],
        }
        if quick is not None:
            doc["quick"] = quick
        return doc


def load_runs(path) -> tuple[str, list[dict]]:
    """A written profile document: its experiment name and its runs,
    each with ``loops`` rebuilt as :class:`LoopRecord`s."""
    with open(path) as fh:
        doc = json.load(fh)
    runs = [{**run, "loops": [LoopRecord.from_dict(lp)
                              for lp in run["loops"]]}
            for run in doc["runs"]]
    return doc.get("experiment", "?"), runs


# -- Chrome trace-event export ---------------------------------------------------
#
# The JSON object form of the Trace Event Format: complete ("ph": "X")
# duration events plus "M" metadata naming processes and threads.  One
# process per profiled run, one thread per CE, the scheduler's control
# track as thread 0.  Cycles map 1:1 onto the format's microseconds.


def _tid(worker: int) -> int:
    # control track → 0, CE k → k+1 (Perfetto sorts tids numerically)
    return 0 if worker == CONTROL_TRACK else worker + 1


def _meta(name: str, pid: int, tid: int | None, value: str) -> dict:
    ev = {"name": name, "ph": "M", "pid": pid, "args": {"name": value}}
    if tid is not None:
        ev["tid"] = tid
    return ev


def _run_events(loops: Iterable[LoopRecord], pid: int) -> list[dict]:
    events: list[dict] = []
    for rec in loops:
        # loop-level envelope on the control track
        events.append({
            "name": f"{rec.label} {rec.level}{rec.order}",
            "cat": "loop", "ph": "X",
            "ts": rec.base, "dur": rec.total,
            "pid": pid, "tid": _tid(CONTROL_TRACK),
            "args": {"workers": rec.workers,
                     "busy_time": rec.busy,
                     "utilization": round(rec.utilization(), 4),
                     "imbalance": round(rec.imbalance(), 4)},
        })
        for s in rec.spans:
            if s.worker == CONTROL_TRACK and s.category == "startup":
                name = "startup"
            else:
                name = s.category if s.count == 1 else \
                    f"{s.category} ×{s.count}"
            ev = {
                "name": name, "cat": s.category, "ph": "X",
                "ts": rec.base + s.start, "dur": s.duration,
                "pid": pid, "tid": _tid(s.worker),
            }
            if not s.busy or s.count != 1:
                ev["args"] = {"busy": s.busy}
                if s.count != 1:
                    ev["args"]["count"] = s.count
            events.append(ev)
    return events


def chrome_trace(session: ProfileSession) -> dict:
    """The full Chrome trace object for a session."""
    events: list[dict] = []
    for pid, run in enumerate(session.runs, start=1):
        label = f"{session.experiment}/{run.workload} [{run.role}]"
        events.append(_meta("process_name", pid, None, label))
        workers = {s.worker for rec in run.timeline for s in rec.spans}
        events.append(_meta("thread_name", pid, _tid(CONTROL_TRACK),
                            "scheduler"))
        for w in sorted(w for w in workers if w != CONTROL_TRACK):
            events.append(_meta("thread_name", pid, _tid(w), f"CE {w}"))
        events.extend(_run_events(run.timeline, pid))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "experiment": session.experiment,
            "time_unit": "1 trace microsecond == 1 machine cycle",
        },
    }


# -- terminal renderers ----------------------------------------------------------


def _bar(rec: LoopRecord, worker: int, width: int) -> str:
    cells = ["."] * width
    scale = width / rec.total if rec.total > 0 else 0.0
    for s in rec.spans:
        if s.worker != worker:
            continue
        glyph = CATEGORY_GLYPHS.get(s.category, "?")
        lo = int(s.start * scale)
        hi = max(int(s.end * scale), lo + 1)
        for c in range(lo, min(hi, width)):
            # busy activity wins over filler when spans round into the
            # same column
            if s.busy or cells[c] == ".":
                cells[c] = glyph
    return "".join(cells)


def render_gantt(loops: Iterable[LoopRecord], width: int = 64) -> str:
    """One ASCII Gantt block per loop record."""
    lines: list[str] = []
    for rec in loops:
        per = rec.worker_busy()
        lines.append(
            f"{rec.label} {rec.level}{rec.order}  "
            f"total {rec.total:,.0f} cyc  busy {rec.busy:,.0f}  "
            f"util {rec.utilization():.2f}  imb {rec.imbalance():.2f}")
        if any(s.worker == CONTROL_TRACK for s in rec.spans):
            lines.append(f"  sched {_bar(rec, CONTROL_TRACK, width)}")
        for w in range(rec.workers):
            pct = 100.0 * per[w] / rec.total if rec.total > 0 else 0.0
            lines.append(f"  CE {w:2d} {_bar(rec, w, width)} "
                         f"{per[w]:>12,.0f} ({pct:5.1f}%)")
        lines.append("")
    return "\n".join(lines).rstrip()


def render_utilization(loops: Iterable[LoopRecord]) -> str:
    """Per-loop utilization/imbalance summary table."""
    recs = list(loops)
    if not recs:
        return "(no parallel loops recorded)"
    header = (f"{'loop':<36} {'lvl':<4} {'CEs':>4} {'total cyc':>14} "
              f"{'util':>6} {'imb':>6}")
    lines = [header, "-" * len(header)]
    for rec in recs:
        label = rec.label if len(rec.label) <= 36 else rec.label[:33] + "..."
        lines.append(
            f"{label:<36} {rec.level + rec.order[:3]:<4} {rec.workers:>4} "
            f"{rec.total:>14,.0f} {rec.utilization():>6.2f} "
            f"{rec.imbalance():>6.2f}")
    total = sum(r.total for r in recs)
    area = sum(r.total * r.workers for r in recs)
    busy = sum(r.busy for r in recs)
    lines.append("-" * len(header))
    lines.append(f"{'all recorded loops':<36} {'':<4} {'':>4} "
                 f"{total:>14,.0f} {busy / area if area else 0.0:>6.2f}")
    return "\n".join(lines)
