"""Structured JSONL logging and the crash flight recorder.

One log record is one JSON object on one line::

    {"t": 1754640000.1, "level": "info", "subsystem": "validate",
     "event": "workload_done", "pid": 4242,
     "trace_id": "9f0c...", "span": "4242-17", "cell": 3,
     "fields": {"workload": "TRFD", "ok": true}}

Design rules, in order of importance:

- **Off is free.**  Logging is opt-in (``--log-level LEVEL`` on the
  sweep CLIs); while off, every logger method is a single ``is None``
  check — no allocation, no formatting, no I/O — so instrumented code
  paths behave exactly as uninstrumented ones and sweep JSON payloads
  stay byte-identical either way.
- **Correlated with telemetry.**  While a telemetry session is active
  (:func:`repro.telemetry.spans.configure` binds it here), every record
  carries the session ``trace_id``, the innermost open span id, and the
  current sweep-cell index — the same identifiers the ``repro-metrics/1``
  span log uses, so a log line joins against its span with no guessing.
- **Fork-safe.**  ``--jobs`` workers inherit the configured state; the
  sink is opened in append mode and every record is one ``write()`` of
  one line, so interleaved worker output stays line-atomic on POSIX.
- **Crash-context capture.**  The session owns the *flight recorder*: a
  bounded ring of the most recent records — at any level, including
  ones below the write threshold — and of every completed telemetry
  span.  When a workload crashes or times out — in-process or in a
  ``--jobs`` worker —
  :meth:`repro.faults.harness.FaultReport.from_exception`, the one place
  a fault report is made, dumps :func:`tail` into the report's
  ``detail["flight_recorder"]``, so the report carries the last things
  the process did before failing.  Forked workers inherit the parent's
  ring contents on purpose: the parent-side events leading up to the
  fan-out are the context a worker crash wants to show.  A worker that
  dies outright leaves no tail behind: the parent reports the loss
  (:func:`repro.engine.parallel.lost_cell`) without one, since its own
  ring is not the dead worker's context.

The harnesses write to ``<telemetry dir>/log.jsonl`` when a telemetry
session is active, else to stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import deque
from typing import Optional, TextIO

#: level name -> numeric threshold (records below the configured
#: threshold are ring-buffered but not written)
LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

#: how many events the flight-recorder ring holds by default
DEFAULT_CAPACITY = 64

#: how many trailing events a crash report carries
TAIL_EVENTS = 16


class _LogState:
    """Per-process logging session (shared via fork with workers)."""

    __slots__ = ("levelno", "fh", "owns_fh", "ring")

    def __init__(self, levelno: int, fh: TextIO, owns_fh: bool,
                 flight_capacity: int):
        self.levelno = levelno
        self.fh = fh
        self.owns_fh = owns_fh
        self.ring: deque = deque(maxlen=max(1, int(flight_capacity)))


_STATE: Optional[_LogState] = None

#: the active telemetry session (its ``trace_id``, open-span ``stack``
#: and current ``cell`` stamp every record), or None
_SESSION = None


def enabled() -> bool:
    """True when logging is configured in this process."""
    return _STATE is not None


def configure(level: str = "info", path: str | os.PathLike | None = None,
              flight_capacity: int = DEFAULT_CAPACITY) -> None:
    """Start a logging session at ``level``, writing to ``path``.

    ``path=None`` writes to stderr.  The session carries the flight
    recorder — the two are one feature: when you can log, crashes can
    explain themselves.  Raises :class:`ValueError` on an unknown level
    name.
    """
    global _STATE
    lvl = str(level).lower()
    if lvl not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r} (choose from "
            f"{', '.join(LEVELS)})")
    shutdown()
    if path is not None:
        p = os.fspath(path)
        os.makedirs(os.path.dirname(p) or ".", exist_ok=True)
        _STATE = _LogState(LEVELS[lvl], open(p, "a", buffering=1),
                           True, flight_capacity)
    else:
        _STATE = _LogState(LEVELS[lvl], sys.stderr, False, flight_capacity)


def shutdown() -> None:
    """End the session (close an owned sink, drop the ring)."""
    global _STATE
    st = _STATE
    _STATE = None
    if st is not None and st.owns_fh:
        try:
            st.fh.close()
        except OSError:
            pass


def bind_session(session) -> None:
    """Correlate records with telemetry ``session`` (``None`` unbinds).

    Called by the span layer when a session starts and ends; the object
    is read, never written, for its ``trace_id`` / ``stack`` / ``cell``.
    """
    global _SESSION
    _SESSION = session


# ---------------------------------------------------------------------------
# the flight recorder


def tail(n: int = TAIL_EVENTS) -> list[dict]:
    """The most recent ``n`` ring events, oldest first (empty while
    logging is off)."""
    st = _STATE
    if st is None:
        return []
    events = list(st.ring)
    return events[-n:] if n and n > 0 else events


def record_span(rec: dict) -> None:
    """Ring-buffer a compact summary of completed span ``rec`` — enough
    to see the pipeline's recent shape in a crash tail without
    duplicating the whole span log.  No-op while logging is off."""
    st = _STATE
    if st is None:
        return
    event: dict = {"kind": "span", "name": rec.get("name"),
                   "span": rec.get("id"), "pid": rec.get("pid"),
                   "duration_s": rec.get("duration_s")}
    if rec.get("cell") is not None:
        event["cell"] = rec["cell"]
    if rec.get("error"):
        event["error"] = rec["error"]
    attrs = rec.get("attrs")
    if attrs and "label" in attrs:
        event["label"] = attrs["label"]
    st.ring.append(event)


# ---------------------------------------------------------------------------
# loggers


class Logger:
    """A named, level-filtered emitter of structured records.

    Instances are cheap and process-wide (see :func:`get_logger`); every
    method is a no-op while logging is unconfigured.
    """

    __slots__ = ("subsystem",)

    def __init__(self, subsystem: str):
        self.subsystem = subsystem

    def debug(self, event: str, **fields) -> None:
        if _STATE is not None:
            self._emit("debug", 10, event, fields)

    def info(self, event: str, **fields) -> None:
        if _STATE is not None:
            self._emit("info", 20, event, fields)

    def warning(self, event: str, **fields) -> None:
        if _STATE is not None:
            self._emit("warning", 30, event, fields)

    def error(self, event: str, **fields) -> None:
        if _STATE is not None:
            self._emit("error", 40, event, fields)

    def _emit(self, level: str, levelno: int, event: str,
              fields: dict) -> None:
        st = _STATE
        if st is None:  # raced a shutdown
            return
        rec: dict = {
            "t": time.time(),
            "level": level,
            "subsystem": self.subsystem,
            "event": event,
            "pid": os.getpid(),
        }
        ts = _SESSION
        if ts is not None:
            rec["trace_id"] = ts.trace_id
            if ts.stack:
                rec["span"] = ts.stack[-1]
            if ts.cell is not None:
                rec["cell"] = ts.cell
        if fields:
            rec["fields"] = fields
        st.ring.append(rec)
        if levelno < st.levelno:
            return
        try:
            st.fh.write(json.dumps(rec, sort_keys=True, default=str)
                        + "\n")
        except (OSError, ValueError):
            pass    # a dead sink must never kill a sweep


_LOGGERS: dict[str, Logger] = {}


def get_logger(subsystem: str) -> Logger:
    """The process-wide logger named ``subsystem`` (created on first
    use).  Safe to call at import time: the logger itself holds no
    session state, so it works across configure/shutdown cycles."""
    lg = _LOGGERS.get(subsystem)
    if lg is None:
        lg = _LOGGERS[subsystem] = Logger(subsystem)
    return lg
