"""Hardened-harness toolkit: watchdogs, crash isolation, checkpoints.

Three small pieces the experiment/validation sweeps compose so that one
misbehaving workload — a crash, a livelock, a runaway estimate — degrades
a sweep instead of killing it:

- :func:`watchdog` — a wall-clock guard that turns a hang into a
  :class:`~repro.errors.BudgetExceededError`: SIGALRM on the POSIX main
  thread (interrupts even blocking C calls), a ``threading.Timer`` +
  async-exception fallback everywhere else (worker threads, platforms
  without SIGALRM), so timeouts fire in every calling context;
- :func:`run_isolated` — runs one workload, converting any exception or
  timeout into a structured :class:`FaultReport` so the sweep continues;
- :class:`SweepJournal` — an append-only JSONL checkpoint of completed
  work items, letting an interrupted sweep resume where it stopped.

Everything here is deliberately dependency-free (stdlib only).  The
timer fallback delivers its timeout between Python bytecodes, so it
cannot interrupt a single long-blocking C call the way SIGALRM can —
but a Python-level livelock (the failure mode sweeps actually hit) is
caught on every path.
"""

from __future__ import annotations

import json
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from repro.errors import BudgetExceededError, ReproError
from repro.telemetry.log import get_logger, tail as flight_tail

#: exception classes the harness never swallows — programming errors and
#: interpreter-session control flow must propagate
_NEVER_ISOLATE = (KeyboardInterrupt, SystemExit, MemoryError)

_LOG = get_logger("faults.harness")


@dataclass
class FaultReport:
    """Structured record of one isolated workload failure."""

    label: str                       # work-item name ("TRFD", "cg@config2")
    kind: str                        # "timeout" | "error" | "internal"
    error_type: str                  # exception class name
    message: str
    elapsed_s: float = 0.0
    traceback: str = ""              # trimmed traceback text
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "error_type": self.error_type,
            "message": self.message,
            "elapsed_s": self.elapsed_s,
            "traceback": self.traceback,
            "detail": self.detail,
        }

    @classmethod
    def from_exception(cls, label: str, exc: BaseException,
                       elapsed_s: float = 0.0) -> "FaultReport":
        if isinstance(exc, BudgetExceededError):
            kind = "timeout"
        elif isinstance(exc, ReproError):
            kind = "error"       # a modelled, expected failure mode
        else:
            kind = "internal"    # unexpected: a bug in the harness/models
        tb = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        # keep the tail — the raising frame — and bound the payload
        if len(tb) > 4000:
            tb = "...\n" + tb[-4000:]
        report = cls(label=label, kind=kind,
                     error_type=type(exc).__name__,
                     message=str(exc), elapsed_s=elapsed_s, traceback=tb)
        # when the flight recorder is on (logging enabled), the report
        # carries the last-N-events context of the dying process
        events = flight_tail()
        if events:
            report.detail["flight_recorder"] = events
        return report


def _async_exc_supported() -> bool:
    """Whether the interpreter exposes ``PyThreadState_SetAsyncExc``."""
    try:
        import ctypes

        return hasattr(ctypes, "pythonapi") \
            and hasattr(ctypes.pythonapi, "PyThreadState_SetAsyncExc")
    except Exception:  # pragma: no cover - non-CPython
        return False


_HAS_ASYNC_EXC = _async_exc_supported()


@contextmanager
def _timer_watchdog(seconds: float, deadline_msg: str) -> Iterator[None]:
    """The ``threading.Timer`` fallback guard (any thread, any platform).

    A daemon timer delivers :class:`BudgetExceededError` into the
    *calling* thread via ``PyThreadState_SetAsyncExc``; the exception
    surfaces at the next bytecode boundary.  Disarming is race-free: the
    timer and the exit path share a lock, and a timeout that fires after
    the block already completed is cleared before it can leak into
    unrelated code.  Nested guards each own an independent timer, so an
    inner timeout leaves the outer one armed.
    """
    import ctypes

    tid = threading.get_ident()
    lock = threading.Lock()
    state = {"armed": True, "fired": False}
    # the C API raises a *class* (it instantiates with no args), so the
    # label/budget text rides in a per-guard subclass's __str__ — the
    # error is self-describing wherever it is caught
    exc_cls = type("WatchdogTimeout", (BudgetExceededError,), {
        "__str__": lambda self: (Exception.__str__(self) if self.args
                                 else deadline_msg)})

    def _fire() -> None:
        with lock:
            if not state["armed"]:
                return
            state["fired"] = True
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(tid), ctypes.py_object(exc_cls))

    timer = threading.Timer(seconds, _fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        with lock:
            state["armed"] = False
            if state["fired"]:
                # fired after the block finished but (possibly) before
                # delivery: clear the pending exception (None -> NULL)
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(tid), None)


@contextmanager
def watchdog(seconds: Optional[float],
             label: str = "work item") -> Iterator[None]:
    """Raise :class:`BudgetExceededError` if the block runs too long.

    Uses ``SIGALRM`` on the POSIX main thread (interrupts blocking C
    calls); everywhere else — worker threads, platforms without SIGALRM
    — a ``threading.Timer`` async-exception fallback fires at the next
    bytecode boundary, so the guard is armed in every calling context.
    ``seconds=None`` or ``<= 0`` disables the guard.  Nested watchdogs
    restore the outer alarm on exit.
    """
    if not seconds or seconds <= 0:
        yield
        return
    deadline = f"{label} exceeded its {seconds:g}s wall-clock budget"

    use_alarm = (hasattr(signal, "SIGALRM")
                 and threading.current_thread() is threading.main_thread())
    if not use_alarm:
        if _HAS_ASYNC_EXC:
            with _timer_watchdog(seconds, deadline):
                yield
        else:  # pragma: no cover - non-CPython without SIGALRM
            yield
        return

    def _fire(signum, frame):
        raise BudgetExceededError(deadline)

    try:
        prev_handler = signal.signal(signal.SIGALRM, _fire)
        prev_delay = signal.getitimer(signal.ITIMER_REAL)[0]
    except ValueError:          # raced a main-thread check: fall back
        if _HAS_ASYNC_EXC:
            with _timer_watchdog(seconds, deadline):
                yield
        else:  # pragma: no cover - non-CPython without SIGALRM
            yield
        return
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, prev_handler)
        if prev_delay > 0.0:    # re-arm an enclosing watchdog
            signal.setitimer(signal.ITIMER_REAL, prev_delay)


def run_isolated(fn: Callable[[], Any], label: str,
                 timeout: Optional[float] = None,
                 ) -> tuple[Any, Optional[FaultReport]]:
    """Run ``fn`` under crash isolation and an optional watchdog.

    Returns ``(result, None)`` on success and ``(None, FaultReport)`` on
    any exception or timeout — the caller's sweep loop keeps going either
    way.  ``KeyboardInterrupt``/``SystemExit``/``MemoryError`` always
    propagate.
    """
    t0 = time.monotonic()
    try:
        with watchdog(timeout, label):
            return fn(), None
    except _NEVER_ISOLATE:
        raise
    except BaseException as exc:  # noqa: BLE001 — isolation is the point
        report = FaultReport.from_exception(
            label, exc, elapsed_s=time.monotonic() - t0)
        _LOG.warning("isolated_fault", label=label, kind=report.kind,
                     error_type=report.error_type,
                     message=report.message,
                     elapsed_s=report.elapsed_s)
        return None, report


class SweepJournal:
    """Append-only JSONL checkpoint of a sweep's completed work items.

    Each line is ``{"key": ..., "payload": ...}``; on resume, items whose
    key is already journaled are skipped and their payloads replayed.  A
    corrupt trailing line (killed mid-write) is ignored, so resume is
    always safe.  ``path=None`` disables journaling (every call is a
    cheap no-op and nothing touches the filesystem).
    """

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self._done: dict[str, Any] = {}
        self._needs_newline = False
        if self.path is not None and self.path.exists():
            text = self.path.read_text()
            # a writer killed mid-line leaves no trailing newline; the
            # next record must start on a fresh line or it would be
            # glued onto (and lost with) the torn one
            self._needs_newline = bool(text) and not text.endswith("\n")
            for raw in text.splitlines():
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    entry = json.loads(raw)
                    self._done[entry["key"]] = entry.get("payload")
                except (json.JSONDecodeError, KeyError, TypeError):
                    continue    # torn tail line from an interrupted run

    def __contains__(self, key: str) -> bool:
        return key in self._done

    def payload(self, key: str) -> Any:
        return self._done.get(key)

    @property
    def completed(self) -> list[str]:
        return list(self._done)

    def record(self, key: str, payload: Any = None) -> None:
        """Checkpoint one finished work item (flushed immediately)."""
        self._done[key] = payload
        if self.path is None:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            if self._needs_newline:     # seal a torn tail line first
                fh.write("\n")
                self._needs_newline = False
            fh.write(json.dumps({"key": key, "payload": payload}) + "\n")
            fh.flush()

    def clear(self) -> None:
        self._done.clear()
        if self.path is not None and self.path.exists():
            self.path.unlink()
