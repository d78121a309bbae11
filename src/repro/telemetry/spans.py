"""Span-based structured tracing for the host pipeline.

A *span* is one timed region of host work — ``parse``, ``restructure``,
``compile``, ``execute``, ``estimate``, or a whole sweep ``cell`` — with
a name, wall-clock start/duration, attributes, and a parent link.  Usage::

    with span("restructure", workload="TRFD"):
        ...

Telemetry is opt-in (``--telemetry DIR``); while off, :func:`span`
returns a shared no-op context manager and nothing is allocated, timed,
or written — instrumented code paths behave exactly as uninstrumented
ones.

Context propagation across ``--jobs`` worker processes: the parent
calls :func:`configure` before fanning out, forked workers inherit the
state (same output directory, same trace id, same monotonic epoch) and
a ``register_after_fork`` hook zeroes the inherited span buffer and
metrics so each worker accounts only its own work.  Every process
writes its *own* shard — ``spans-<pid>.jsonl`` (appended per sweep
cell) and ``metrics-<pid>.json`` (atomic snapshot) — and the parent's
:func:`repro.telemetry.export.merge_dir` folds the shards into one
coherent trace keyed by sweep-cell index.

Spans never appear in sweep JSON payloads, so ``--telemetry`` on/off
leaves every harness's ``--json``/``-o`` output byte-identical.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
import uuid
from pathlib import Path
from typing import Optional

from repro.telemetry import log
from repro.telemetry.registry import get_registry


class _TelemetryState:
    """Per-process telemetry session (shared via fork with workers)."""

    __slots__ = ("dir", "trace_id", "epoch", "pid", "spans", "stack",
                 "cell", "seq", "__weakref__")

    def __init__(self, out_dir: Path, trace_id: str, epoch: float):
        self.dir = out_dir
        self.trace_id = trace_id
        self.epoch = epoch
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []      # open span ids (parent linkage)
        self.cell: Optional[int] = None
        self.seq = 0


_STATE: Optional[_TelemetryState] = None


def enabled() -> bool:
    """True when a telemetry session is active in this process."""
    return _STATE is not None


def current_dir() -> Optional[Path]:
    return _STATE.dir if _STATE is not None else None


def _after_fork(_obj=None) -> None:
    """Reset inherited buffers so a worker shard is worker-only."""
    st = _STATE
    if st is None or st.pid == os.getpid():
        return
    st.pid = os.getpid()
    st.spans.clear()
    st.stack.clear()
    st.cell = None
    st.seq = 0
    get_registry().reset()


def configure(out_dir: str | os.PathLike) -> None:
    """Start a telemetry session writing shards into ``out_dir``.

    Creates the directory, stamps a ``meta.json`` (trace id, pid,
    harness argv), binds the session to the structured log for
    correlation, and registers the after-fork reset for ``--jobs``
    workers.  Calling again replaces the session (metrics are zeroed so
    each run's artifact is self-contained).
    """
    global _STATE
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tid = uuid.uuid4().hex[:16]
    _STATE = _TelemetryState(out, tid, time.perf_counter())
    log.bind_session(_STATE)
    get_registry().reset()
    # imported here: multiprocessing costs ~15 ms no telemetry-off run
    # should pay
    from multiprocessing.util import register_after_fork

    register_after_fork(_STATE, _after_fork)
    meta = {"trace_id": tid, "pid": os.getpid(), "argv": list(sys.argv)}
    (out / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def shutdown(flush_shard: bool = True) -> None:
    """End the session (flushing this process's shard by default;
    ``flush_shard=False`` is for callers that just merged the session
    directory and must not drop a fresh shard behind the merge)."""
    global _STATE
    if _STATE is not None and flush_shard:
        flush()
    _STATE = None
    log.bind_session(None)


# ---------------------------------------------------------------------------
# spans


class _NoopSpan:
    """Shared do-nothing context manager for disabled telemetry."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP = _NoopSpan()


class _Span:
    __slots__ = ("name", "attrs", "sid", "t0", "_state")

    def __init__(self, state: _TelemetryState, name: str, attrs: dict):
        self._state = state
        self.name = name
        self.attrs = attrs
        self.sid = ""
        self.t0 = 0.0

    def __enter__(self):
        st = self._state
        st.seq += 1
        self.sid = f"{st.pid}-{st.seq}"
        self.t0 = time.perf_counter()
        st.stack.append(self.sid)
        return self

    def __exit__(self, exc_type, exc, tb):
        st = self._state
        dur = time.perf_counter() - self.t0
        if st.stack and st.stack[-1] == self.sid:
            st.stack.pop()
        rec = {
            "id": self.sid,
            "parent": st.stack[-1] if st.stack else None,
            "name": self.name,
            "pid": st.pid,
            "cell": st.cell,
            "t0": self.t0 - st.epoch,
            "duration_s": dur,
        }
        if self.attrs:
            rec["attrs"] = self.attrs
        if exc_type is not None:
            rec["error"] = exc_type.__name__
        st.spans.append(rec)
        log.record_span(rec)
        return False


def span(name: str, **attrs):
    """Open a span named ``name``; a no-op when telemetry is off."""
    st = _STATE
    if st is None:
        return _NOOP
    return _Span(st, name, attrs)


def _cache_request_totals() -> tuple[float, float]:
    """Current (hits, misses) across every artifact kind — the counters
    :mod:`repro.engine.cache` accounts into the process registry."""
    from repro.engine.cache import ARTIFACT_KINDS

    reg = get_registry()
    hits = misses = 0.0
    for kind in ARTIFACT_KINDS:
        hits += reg.counter("repro_cache_requests_total",
                            kind=kind, result="hit").value
        misses += reg.counter("repro_cache_requests_total",
                              kind=kind, result="miss").value
    return hits, misses


class _CellSpan:
    """The per-sweep-cell root span: sets the cell context and flushes
    this process's shard on exit (so a worker's telemetry is durable the
    moment its result is).

    The cell record additionally carries ``queue_delay_s`` (the
    submit→start gap, when the executor stamped a submission time — both
    sides read the same CLOCK_MONOTONIC, shared across fork) and a
    ``cache`` hit/miss delta, attributing compilation-cache behaviour to
    this specific cell.
    """

    __slots__ = ("_span", "_state", "index", "_submit_t0", "_cache0")

    def __init__(self, state: _TelemetryState, index: int, label: str,
                 submit_t0: Optional[float] = None):
        self._state = state
        self.index = index
        self._submit_t0 = submit_t0
        self._cache0 = (0.0, 0.0)
        self._span = _Span(state, "cell", {"label": label})

    def __enter__(self):
        self._state.cell = self.index
        self._cache0 = _cache_request_totals()
        self._span.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        self._span.__exit__(exc_type, exc, tb)
        st = self._state
        rec = st.spans[-1]
        if self._submit_t0 is not None:
            rec["queue_delay_s"] = max(
                0.0, self._span.t0 - self._submit_t0)
        hits, misses = _cache_request_totals()
        rec["cache"] = {"hits": hits - self._cache0[0],
                        "misses": misses - self._cache0[1]}
        st.cell = None
        flush()
        return False


def cell_span(index: int, label: str,
              submit_t0: Optional[float] = None):
    """Open the root span of sweep cell ``index``; no-op when off.

    ``submit_t0`` is an optional ``time.perf_counter()`` stamp taken
    when the cell was *submitted* to an executor; the recorded span then
    carries the submit→start gap as ``queue_delay_s``.
    """
    st = _STATE
    if st is None:
        return _NOOP
    return _CellSpan(st, index, label, submit_t0)


# ---------------------------------------------------------------------------
# shard I/O


def flush() -> None:
    """Write this process's shard: append buffered spans, snapshot
    metrics atomically.  Safe to call any number of times; a no-op when
    telemetry is off or there is nothing new to say."""
    st = _STATE
    if st is None:
        return
    if st.pid != os.getpid():   # fork not yet observed by the hook
        _after_fork()
    if st.spans:
        lines = "".join(json.dumps(rec, sort_keys=True) + "\n"
                        for rec in st.spans)
        try:
            with open(st.dir / f"spans-{st.pid}.jsonl", "a") as fh:
                fh.write(lines)
            st.spans.clear()
        except OSError:
            pass    # an unwritable telemetry dir must never kill a sweep
    snap = {"pid": st.pid, "trace_id": st.trace_id,
            "metrics": get_registry().snapshot()}
    try:
        fd, tmp = tempfile.mkstemp(dir=st.dir, suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            json.dump(snap, fh, sort_keys=True)
        os.replace(tmp, st.dir / f"metrics-{st.pid}.json")
    except OSError:
        pass
