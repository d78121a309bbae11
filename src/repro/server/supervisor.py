"""Supervised worker pool: crash detection, hard deadlines, respawn.

:class:`WorkerSupervisor` wraps the same fork-context
``ProcessPoolExecutor`` the sweep executor
(:mod:`repro.engine.parallel`) uses, and adds the two guarantees a
*service* needs that a batch sweep does not:

- **crash containment with respawn** — a worker that dies mid-request
  (segfault, OOM kill, ``os._exit``) breaks the pool; the supervisor
  detects it, converts the loss into a classified fault dict (the
  ``FaultReport.to_dict()`` shape, kind ``internal``), and rebuilds the
  pool so the *next* request finds healthy workers;
- **supervisor-side hard deadlines** — the in-worker watchdog
  (:func:`repro.faults.harness.watchdog`) catches Python-level stalls,
  but a worker wedged in a C call or spinning with signals blocked
  never comes back.  ``submit`` bounds the wait from the parent side;
  on expiry the wedged workers are killed outright and the pool is
  rebuilt, so one stuck request cannot brown out the service.

The supervisor is deliberately single-flight per call (the admission
queue upstream bounds concurrency); a lock serializes pool teardown so
concurrent HTTP threads cannot race a respawn.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.telemetry.log import get_logger

_LOG = get_logger("server.supervisor")


class PoolCrashError(Exception):
    """The worker executing a request died before returning."""


def _crash_fault(label: str, message: str, elapsed_s: float) -> dict:
    # FaultReport.to_dict() shape, so the retry classifier and the
    # envelope treat pool losses like any other harness fault
    return {
        "label": label,
        "kind": "internal",
        "error_type": "PoolCrashError",
        "message": message,
        "elapsed_s": elapsed_s,
        "traceback": "",
        "detail": {},
    }


def _timeout_fault(label: str, timeout_s: float, elapsed_s: float) -> dict:
    return {
        "label": label,
        "kind": "timeout",
        "error_type": "BudgetExceededError",
        "message": f"{label} exceeded its {timeout_s:g}s supervisor "
                   "deadline (worker killed)",
        "elapsed_s": elapsed_s,
        "traceback": "",
        "detail": {},
    }


class WorkerSupervisor:
    """A crash-supervised process pool executing one request at a time
    per slot, with parent-side deadlines and automatic respawn."""

    def __init__(self, workers: int = 2, registry=None):
        self.workers = max(1, workers)
        self._lock = threading.Lock()
        self._pool = None
        self._respawns = None
        if registry is not None:
            self._respawns = registry.counter(
                "repro_server_worker_respawns_total")

    # -- pool lifecycle ----------------------------------------------------

    def _ensure_pool(self):
        import concurrent.futures as cf

        from repro.engine.parallel import _mp_context

        with self._lock:
            if self._pool is None:
                self._pool = cf.ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_mp_context())
                _LOG.info("pool_started", workers=self.workers)
            return self._pool

    def _respawn(self, pool, *, kill: bool) -> None:
        """Tear down a broken/wedged pool; the next submit rebuilds."""
        with self._lock:
            if self._pool is not pool:
                return          # another thread already replaced it
            self._pool = None
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
        _LOG.warning("pool_respawned", kill=kill)

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- request execution -------------------------------------------------

    def submit(self, fn: Callable[[Any], dict], arg: Any, label: str,
               timeout_s: Optional[float] = None,
               ) -> tuple[Optional[dict], Optional[dict]]:
        """Run ``fn(arg)`` in a worker; returns ``(result, fault)``.

        Exactly one of the pair is non-``None``.  ``fn`` must be a
        picklable module-level function returning a dict.  A worker
        crash or deadline expiry tears the pool down, respawns it, and
        comes back as a classified fault dict — never an exception.
        """
        import concurrent.futures as cf

        pool = self._ensure_pool()
        t0 = time.monotonic()
        try:
            fut = pool.submit(fn, arg)
        except RuntimeError as exc:
            # raced shutdown(); one rebuild attempt, then classify
            _LOG.warning("submit_raced_shutdown", label=label,
                         message=str(exc))
            pool = self._ensure_pool()
            fut = pool.submit(fn, arg)
        try:
            return fut.result(timeout=timeout_s), None
        except cf.TimeoutError:
            self._respawn(pool, kill=True)
            elapsed = time.monotonic() - t0
            _LOG.warning("request_deadline_expired", label=label,
                         timeout_s=timeout_s, elapsed_s=elapsed)
            return None, _timeout_fault(label, timeout_s or 0.0, elapsed)
        except cf.process.BrokenProcessPool:
            self._respawn(pool, kill=False)
            elapsed = time.monotonic() - t0
            _LOG.warning("worker_crashed", label=label,
                         elapsed_s=elapsed)
            return None, _crash_fault(
                label, "worker process died before returning "
                       "(broken process pool)", elapsed)
        except Exception as exc:  # noqa: BLE001 — classify, don't die
            elapsed = time.monotonic() - t0
            _LOG.error("submit_failed", label=label,
                       error_type=type(exc).__name__, message=str(exc))
            return None, _crash_fault(
                label, f"{type(exc).__name__}: {exc}", elapsed)
