"""repro.prof — simulation profiler for the restructuring pipeline.

Layers observability onto the discrete-event machine model:

- :mod:`repro.prof.counters` — hardware-style event counters
  (:class:`HwCounters`) carried on a :class:`ProfLedger`, reconciled
  against the :class:`repro.trace.CycleLedger` cycle categories;
- :mod:`repro.prof.timeline` — per-CE timeline spans
  (:class:`TimelineRecorder`) emitted by the loop scheduler;
- :mod:`repro.prof.session` — per-experiment collection and the
  ``repro-profile/1`` document;
- :mod:`repro.prof.export` — Chrome trace-event / Perfetto export;
- :mod:`repro.prof.report` — ASCII Gantt + utilization reports.

This package must stay importable from ``repro.machine`` — keep it free
of ``repro.execmodel`` / ``repro.experiments`` imports.
"""

from repro.prof.counters import (
    COUNTERS,
    HwCounters,
    ProfLedger,
    memory_cycles_from_counters,
    reconcile,
)
from repro.prof.timeline import (
    CATEGORY_GLYPHS,
    CONTROL_TRACK,
    LoopRecord,
    Span,
    TimelineRecorder,
)

# the machine model charges counters and timelines on every estimate;
# sessions, exports and reports exist only under ``--profile`` and
# ``python -m repro.prof`` — import ``repro.prof.session`` / ``.export`` /
# ``.report`` by name, this package does not re-export them
__all__ = [
    "COUNTERS",
    "HwCounters",
    "ProfLedger",
    "memory_cycles_from_counters",
    "reconcile",
    "CATEGORY_GLYPHS",
    "CONTROL_TRACK",
    "LoopRecord",
    "Span",
    "TimelineRecorder",
]
