"""The parallel sweep executor: order-preserving multiprocessing fan-out.

Every repro harness iterates a matrix of independent cells (workload ×
configuration × processors; experiment names; workload × fault
scenario).  :func:`parallel_map` fans those cells out over ``--jobs N``
worker processes while keeping the *result order equal to the
submission order*, so a sweep that merges worker results emits JSON
payloads byte-identical to its serial run — determinism is the
contract, parallelism is just scheduling.

Isolation is one rule at every job count: each cell runs under
:func:`repro.faults.harness.run_isolated`, so a cell that raises becomes
a :class:`~repro.faults.harness.FaultReport` in its slot, in-process at
``--jobs 1`` exactly as in a worker.  A worker process that *dies*
(segfault, OOM kill) becomes one too, through :func:`lost_cell` — the
helper the server's supervised pool shares — so one lost cell degrades
the sweep instead of killing it.  Reports the executor makes carry the
cell's submission index in ``detail["cell_index"]``.

Observability: every cell runs inside a :func:`repro.telemetry.cell_span`
keyed by its submission index — inside the isolated call, so the span
records the error of a cell that raised — and workers flush their own
telemetry shard as each cell completes.  With telemetry off none of
this allocates, and result payloads are untouched either way.
"""

from __future__ import annotations

import time
from typing import Callable, Sequence, TypeVar

from repro import telemetry
from repro.faults.harness import FaultReport, run_isolated
from repro.telemetry.log import get_logger

T = TypeVar("T")
R = TypeVar("R")

_LOG = get_logger("engine.parallel")


def lost_cell(exc: Exception, label: str, t0: float,
              **detail) -> FaultReport:
    """The report of a cell whose future failed in the parent.

    ``exc`` is what the future raised — ``BrokenProcessPool`` when the
    worker died, anything the worker could not send home — and ``t0``
    the ``time.perf_counter()`` stamp of the submission.  ``detail`` is
    the report's whole detail: the flight-recorder tail
    :meth:`FaultReport.from_exception` captures here is the parent's,
    not the lost worker's, so it is left out.
    """
    report = FaultReport.from_exception(
        label, exc, elapsed_s=time.perf_counter() - t0)
    report.detail = dict(detail)
    _LOG.warning("cell_lost", label=label, error_type=report.error_type,
                 message=report.message)
    return report


def _run_cell(fn: Callable, item, index: int, label: str,
              submit_t0: float):
    """Run one cell isolated, inside its telemetry span; a raise comes
    back as the cell's :class:`FaultReport`."""
    def cell():
        with telemetry.cell_span(index, label, submit_t0=submit_t0):
            return fn(item)

    result, report = run_isolated(cell, label)
    if report is None:
        return result
    report.detail = {"cell_index": index, **report.detail}
    return report


def _mp_context():
    # fork keeps workers cheap and lets them inherit warm in-memory
    # state; fall back to the platform default where fork is unavailable
    import multiprocessing  # a --jobs 1 sweep never pays for it

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else None)


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int, *,
                 labels: Sequence[str] | None = None,
                 on_result: Callable[[int, "R | FaultReport"], None]
                 | None = None,
                 ) -> list["R | FaultReport"]:
    """Apply ``fn`` to every item, ``jobs`` processes wide, in order.

    ``jobs <= 1`` (or a single item) runs the cells in-process, one
    after another, through the same isolated cell call the workers run
    — which is what keeps serial and parallel outputs identical.  ``fn``
    and the items must be picklable (module-level functions and plain
    data).  ``labels`` names cells in their fault reports; defaults to
    ``str(item)``.

    ``on_result(index, result)`` fires in the parent process, in
    submission order, as each result becomes available — the hook for
    incremental journaling and progress lines.
    """
    items = list(items)
    if labels is None:
        labels = [str(it) for it in items]
    out: list[R | FaultReport] = []
    if jobs <= 1 or len(items) <= 1:
        for i, it in enumerate(items):
            r = _run_cell(fn, it, i, labels[i], time.perf_counter())
            if on_result is not None:
                on_result(i, r)
            out.append(r)
        return out

    import concurrent.futures as cf

    _LOG.info("fan_out", jobs=min(jobs, len(items)), cells=len(items))
    with cf.ProcessPoolExecutor(max_workers=min(jobs, len(items)),
                                mp_context=_mp_context()) as ex:
        # each cell's submit stamp rides into the worker: the cell span
        # records the submit->start gap as its queue delay
        submitted = []
        for i, it in enumerate(items):
            t0 = time.perf_counter()
            submitted.append(
                (t0, ex.submit(_run_cell, fn, it, i, labels[i], t0)))
        for i, (t0, fut) in enumerate(submitted):
            try:
                r = fut.result()
            except Exception as exc:  # noqa: BLE001 — a lost cell
                # a broken pool fails every unfinished future; each
                # becomes a report in its own slot.  What run_isolated
                # never isolates (exit, interrupt) propagates, as it
                # does at --jobs 1
                r = lost_cell(exc, labels[i], t0, cell_index=i)
            if on_result is not None:
                on_result(i, r)
            out.append(r)
    return out
