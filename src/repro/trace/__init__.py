"""The simulated-cost plane: cycle attribution, decisions, profiles.

The paper's methodology (§4.1) is diagnostic: knowing *where* the cycles
went — startup, dispatch, global-memory traffic, paging — is what
motivated every restructuring technique.  This package keeps that
breakdown instead of throwing it away:

- :mod:`repro.trace.ledger` — :class:`CycleLedger`, the hierarchical
  cycle counter the machine models charge into; under profiling it also
  carries hardware-style event counts that reconcile with its memory
  categories;
- :mod:`repro.trace.events` — :class:`DecisionEvent` records of what the
  restructurer tried per loop nest and why candidates were rejected;
- :mod:`repro.trace.timeline` — per-CE loop spans
  (:class:`TimelineRecorder`) emitted by the loop scheduler;
- :mod:`repro.trace.report` — :class:`TraceReport`, the ``--trace``
  rendering of per-workload breakdowns and decision logs;
- :mod:`repro.trace.profile` — ``--profile`` sessions, the
  ``repro-profile/1`` document, the Perfetto export and the Gantt /
  utilization renderers behind ``python -m repro.trace``.  Only
  ``--profile`` and the CLI load it.

The timeline and profile modules are imported by name; the package
re-exports only what the ledger, decision and report modules define.

This package must stay importable from ``repro.machine`` — keep it free
of ``repro.execmodel`` / ``repro.experiments`` imports.
"""

from repro.trace.events import NULL_SINK, DecisionEvent, TraceRecorder
from repro.trace.ledger import (
    CATEGORIES,
    COUNTERS,
    HIERARCHY,
    NULL_LEDGER,
    CycleLedger,
    NullLedger,
    reconcile,
)
from repro.trace.report import TraceReport

__all__ = [
    "CATEGORIES",
    "COUNTERS",
    "HIERARCHY",
    "NULL_LEDGER",
    "NULL_SINK",
    "CycleLedger",
    "DecisionEvent",
    "NullLedger",
    "TraceRecorder",
    "TraceReport",
    "reconcile",
]
