"""Supervised worker pool: crash detection, hard deadlines, respawn.

:class:`WorkerSupervisor` runs requests on the same fork-context
``ProcessPoolExecutor`` the sweep executor (:mod:`repro.engine.parallel`)
uses — one single-process executor per worker *slot*, each running one
request at a time — and adds the two guarantees a *service* needs that
a batch sweep does not:

- **crash containment with respawn** — a worker that dies mid-request
  (segfault, OOM kill, ``os._exit``) breaks its slot's executor; the
  supervisor detects it, reports the loss exactly as the sweep executor
  does (:func:`repro.engine.parallel.lost_cell`: a
  :class:`~repro.faults.harness.FaultReport` of kind ``internal``), and
  rebuilds that slot so the *next* request finds a healthy worker.  A
  slot holds one request, so a death takes no other request with it —
  a crash-looping request cannot spend the retry budgets of the
  requests running beside it;
- **supervisor-side hard deadlines** — the in-worker watchdog
  (:func:`repro.faults.harness.watchdog`) catches Python-level stalls,
  but a worker wedged in a C call or spinning with signals blocked
  never comes back.  ``submit`` bounds the wait from the parent side,
  the wait for a free slot included; on expiry the wedged worker is
  killed outright and its slot rebuilt, so one stuck request cannot
  brown out the service.

A lock serializes slot teardown so concurrent HTTP threads cannot race
a respawn.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Any, Callable, Optional

from repro.errors import BudgetExceededError
from repro.faults.harness import FaultReport
from repro.telemetry.log import get_logger

_LOG = get_logger("server.supervisor")


class WorkerSupervisor:
    """``workers`` crash-supervised worker slots, one request at a time
    each, with parent-side deadlines and automatic respawn."""

    def __init__(self, workers: int = 2, registry=None):
        self.workers = max(1, workers)
        self._lock = threading.Lock()
        #: per slot: its one-process executor, None until first used
        self._pools: list = [None] * self.workers
        self._idle: queue.SimpleQueue[int] = queue.SimpleQueue()
        for slot in range(self.workers):
            self._idle.put(slot)
        self._respawns = None
        if registry is not None:
            self._respawns = registry.counter(
                "repro_server_worker_respawns_total")

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self, slot: int):
        import concurrent.futures as cf

        from repro.engine.parallel import _mp_context

        with self._lock:
            if self._pools[slot] is None:
                self._pools[slot] = cf.ProcessPoolExecutor(
                    max_workers=1, mp_context=_mp_context())
                _LOG.info("pool_started", slot=slot)
            return self._pools[slot]

    def _respawn(self, slot: int, pool, *, kill: bool) -> None:
        """Tear down a broken/wedged slot; its next request rebuilds."""
        with self._lock:
            if self._pools[slot] is not pool:
                return          # shutdown() already replaced it
            self._pools[slot] = None
        if kill:
            # a wedged worker never returns: kill outright before the
            # shutdown join.  _processes is stdlib-private but stable;
            # degrade to a plain shutdown if it ever moves.
            for p in list(getattr(pool, "_processes", {}).values()):
                try:
                    p.kill()
                except Exception:  # pragma: no cover - already dead
                    pass
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken pools may throw
            pass
        if self._respawns is not None:
            self._respawns.inc()
        _LOG.warning("pool_respawned", slot=slot, kill=kill)

    def shutdown(self) -> None:
        with self._lock:
            pools, self._pools = self._pools, [None] * self.workers
        for pool in pools:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    # -- request execution -------------------------------------------------

    def submit(self, fn: Callable[[Any], dict], arg: Any, label: str,
               timeout_s: Optional[float] = None,
               ) -> tuple[Optional[dict], Optional[FaultReport]]:
        """Run ``fn(arg)`` in a worker; returns ``(result, fault)``.

        Exactly one of the pair is non-``None``.  ``fn`` must be a
        picklable module-level function returning a dict.  A worker
        crash or deadline expiry tears the worker's slot down, respawns
        it, and comes back as a :class:`FaultReport` — never an
        exception.
        """
        import concurrent.futures as cf

        from repro.engine.parallel import lost_cell

        t0 = time.perf_counter()
        try:
            slot = self._idle.get(timeout=timeout_s)
        except queue.Empty:
            return None, lost_cell(BudgetExceededError(
                f"{label} exceeded its {timeout_s:g}s supervisor "
                "deadline (no worker came free)"), label, t0)
        try:
            pool = self._ensure_pool(slot)
            try:
                fut = pool.submit(fn, arg)
            except RuntimeError as exc:
                # raced shutdown(); one rebuild attempt, then classify
                _LOG.warning("submit_raced_shutdown", label=label,
                             message=str(exc))
                pool = self._ensure_pool(slot)
                fut = pool.submit(fn, arg)
            left = None if timeout_s is None \
                else max(0.0, timeout_s - (time.perf_counter() - t0))
            try:
                return fut.result(timeout=left), None
            except cf.TimeoutError:
                self._respawn(slot, pool, kill=True)
                lost = BudgetExceededError(
                    f"{label} exceeded its {timeout_s:g}s supervisor "
                    "deadline (worker killed)")
            except cf.process.BrokenProcessPool as exc:
                self._respawn(slot, pool, kill=False)
                lost = exc
            except Exception as exc:  # noqa: BLE001 — classify, don't die
                lost = exc
            return None, lost_cell(lost, label, t0)
        finally:
            self._idle.put(slot)
