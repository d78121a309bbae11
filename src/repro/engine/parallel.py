"""The parallel sweep executor: order-preserving multiprocessing fan-out.

Every repro harness iterates a matrix of independent cells (workload ×
configuration × processors; experiment names; workload × fault
scenario).  :func:`parallel_map` fans those cells out over ``--jobs N``
worker processes while keeping the *result order equal to the
submission order*, so a sweep that merges worker results emits JSON
payloads byte-identical to its serial run — determinism is the
contract, parallelism is just scheduling.

Workers compose with the existing hardening in
:mod:`repro.faults.harness`: each cell function is expected to do its
own ``run_isolated``/watchdog internally and return a plain payload
(dicts, lists — JSON-shaped data).  A worker process that *dies* anyway
(segfault, OOM kill) surfaces as a :class:`WorkerCrash` result entry
rather than an exception, so one lost worker degrades the sweep instead
of killing it — the same graceful-degradation contract the fault layer
gives the simulated machine.

Observability: every cell — serial or fanned out — runs inside a
:func:`repro.telemetry.cell_span` keyed by its submission index, so a
``--telemetry DIR`` sweep attributes wall-clock (and any crash) to a
specific cell; workers flush their own telemetry shard as each cell
completes.  :class:`WorkerCrash` entries are stamped with the cell
index, the measured wall-clock duration, and the tail of the worker's
traceback, so crashed cells are attributable in the telemetry report
and in fault payloads.  With telemetry off none of this allocates, and
result payloads are untouched either way.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro import telemetry
from repro.telemetry.log import get_logger, tail as flight_tail

T = TypeVar("T")
R = TypeVar("R")

#: how many trailing traceback lines a crashed cell carries
_TB_TAIL_LINES = 6

_LOG = get_logger("engine.parallel")


@dataclass(frozen=True)
class WorkerCrash:
    """A cell whose worker process died before returning a result.

    ``index`` is the cell's submission index (``-1`` when unknown) and
    ``duration_s`` the wall-clock the cell ran before dying (``0.0``
    when the worker vanished without reporting), so crashes remain
    attributable in telemetry reports and fault payloads.  ``flight``
    is the worker's flight-recorder tail (recent log/span events) when
    logging was enabled — the crash's last-moments context.
    """

    label: str
    message: str
    kind: str = "internal"
    index: int = -1
    duration_s: float = 0.0
    flight: tuple = ()

    def to_fault_dict(self) -> dict:
        """Shape-compatible with ``FaultReport.to_dict()``."""
        detail: dict = {}
        if self.index >= 0:
            detail["cell_index"] = self.index
        if self.flight:
            detail["flight_recorder"] = list(self.flight)
        return {
            "label": self.label,
            "kind": self.kind,
            "error_type": "WorkerCrash",
            "message": self.message,
            "elapsed_s": self.duration_s,
            "traceback": "",
            "detail": detail,
        }


@dataclass(frozen=True)
class _CellFailure:
    """Worker-side record of a cell that raised (picklable, with the
    traceback tail and flight-recorder context the parent folds into
    :class:`WorkerCrash`)."""

    index: int
    label: str
    message: str
    duration_s: float
    flight: tuple = ()


def _tb_tail(exc: BaseException) -> str:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    tail = "".join(lines[-_TB_TAIL_LINES:]).rstrip()
    return tail


def _run_cell(fn: Callable, item, index: int, label: str,
              submit_t0: float | None = None):
    """Execute one cell inside its telemetry span (runs in the worker).

    Exceptions become a :class:`_CellFailure` carrying the traceback
    tail — raising across the process boundary would lose it — plus the
    worker's flight-recorder tail when logging is enabled.
    """
    t0 = time.perf_counter()
    try:
        with telemetry.cell_span(index, label, submit_t0=submit_t0):
            r = fn(item)
        _LOG.debug("cell_done", index=index, label=label,
                   duration_s=time.perf_counter() - t0)
        return r
    except BaseException as exc:  # noqa: BLE001 — cell isolation
        _LOG.error("cell_failed", index=index, label=label,
                   error_type=type(exc).__name__, message=str(exc))
        return _CellFailure(
            index=index, label=label,
            message=f"{type(exc).__name__}: {exc}\n{_tb_tail(exc)}",
            duration_s=time.perf_counter() - t0,
            flight=tuple(flight_tail()))


def _mp_context():
    # fork keeps workers cheap and lets them inherit warm in-memory
    # state; fall back to the platform default where fork is unavailable
    import multiprocessing  # a --jobs 1 sweep never pays for it

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int, *,
                 labels: Sequence[str] | None = None,
                 on_result: Callable[[int, "R | WorkerCrash"], None]
                 | None = None,
                 ) -> list["R | WorkerCrash"]:
    """Apply ``fn`` to every item, ``jobs`` processes wide, in order.

    ``jobs <= 1`` (or a single item) degrades to a plain in-process map
    — the serial and parallel paths share one code path, which is what
    keeps their outputs identical.  ``fn`` and the items must be
    picklable (module-level functions and plain data).  ``labels`` names
    cells in :class:`WorkerCrash` entries; defaults to ``str(item)``.

    ``on_result(index, result)`` fires in the parent process, in
    submission order, as each result becomes available — the hook for
    incremental journaling and progress lines.
    """
    items = list(items)
    if labels is None:
        labels = [str(it) for it in items]
    out: list[R | WorkerCrash] = []
    if jobs <= 1 or len(items) <= 1:
        for i, it in enumerate(items):
            # exceptions propagate on the serial path (isolation is the
            # cell's own job); the cell span still flushes on the way out
            with telemetry.cell_span(i, labels[i],
                                     submit_t0=time.perf_counter()):
                r = fn(it)
            if on_result is not None:
                on_result(i, r)
            out.append(r)
        return out

    import concurrent.futures as cf

    _LOG.info("fan_out", jobs=min(jobs, len(items)), cells=len(items))
    with cf.ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                                mp_context=_mp_context()) as ex:
        # the submit stamp rides into the worker: the cell span records
        # the submit->start gap as its queue delay
        futures = [ex.submit(_run_cell, fn, it, i, labels[i],
                             time.perf_counter())
                   for i, it in enumerate(items)]
        for i, (label, fut) in enumerate(zip(labels, futures)):
            try:
                r: R | WorkerCrash = fut.result()
            except cf.process.BrokenProcessPool:
                # the pool is gone: every not-yet-finished future fails;
                # record each as a crash, preserving positions
                r = WorkerCrash(
                    label=label,
                    message="worker process died before returning "
                            "(broken process pool)",
                    index=i)
            except BaseException as exc:  # noqa: BLE001 — cell isolation
                r = WorkerCrash(
                    label=label,
                    message=f"{type(exc).__name__}: {exc}",
                    index=i)
            if isinstance(r, _CellFailure):
                r = WorkerCrash(label=r.label, message=r.message,
                                index=r.index, duration_s=r.duration_s,
                                flight=r.flight)
            if isinstance(r, WorkerCrash):
                _LOG.warning("worker_crash", index=i, label=label,
                             message=r.message.splitlines()[0]
                             if r.message else "")
            if on_result is not None:
                on_result(i, r)
            out.append(r)
    return out
