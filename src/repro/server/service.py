"""The restructurer service: classified outcomes, always.

:class:`RestructurerService` composes the resilience pieces — admission
queue, supervised pool, retry policy, circuit breakers, journal — into
one contract: **every accepted request terminates with a classified
outcome**.  The response envelope (``repro-server/1``) carries exactly
one of five statuses:

==================  =====================================================
``ok``              full-fidelity result
``degraded``        correct result from a degraded path (fault scenario
                    active, serial fallback, memory-only cache)
``shed``            refused under load / past deadline — retry later
``invalid-input``   the request can never succeed; do not retry
``error``           transient faults exhausted the retry budget
==================  =====================================================

Durability: accepted requests journal ``accept:<id>`` before running
and ``done:<id>`` after; a restarted server reports requests that were
in flight when it died as ``lost-on-restart`` in ``/healthz`` instead
of silently forgetting them.

Degradation ladder: the *store* breaker (journal + on-disk cache
store) trips to memory-only operation; the *pool* breaker (worker
crashes, supervisor deadlines) trips to serial in-process execution
guarded by the thread-fallback watchdog.  Both degrade the service —
neither stops it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Optional

from repro.engine.cache import get_cache
from repro.faults.harness import SweepJournal
from repro.obs.log import get_logger
from repro.server.breaker import OPEN, CircuitBreaker
from repro.server.queue import AdmissionQueue, ShedRequest
from repro.server.retry import RetryPolicy
from repro.server.supervisor import WorkerSupervisor
from repro.server.worker import run_request_cell
from repro.telemetry import get_registry

SERVER_SCHEMA = "repro-server/1"

#: extra parent-side slack past the in-worker watchdog, so the watchdog
#: (classified, cheap) fires before the supervisor kill (pool rebuild)
_SUPERVISOR_SLACK_S = 5.0

_LOG = get_logger("server.service")


class _InflightRequest:
    """One leader computation that identical concurrent requests join."""

    __slots__ = ("done", "envelope")

    def __init__(self):
        self.done = threading.Event()
        self.envelope: Optional[dict] = None


class RestructurerService:
    """One engine, served: orchestration behind every endpoint."""

    def __init__(self, *, workers: int = 2,
                 retry: Optional[RetryPolicy] = None,
                 queue_capacity: int = 8, max_wait_s: float = 5.0,
                 default_timeout_s: float = 30.0,
                 journal_path=None, chaos: bool = False,
                 registry=None, clock=time.monotonic):
        self.registry = registry if registry is not None else get_registry()
        self.retry = retry or RetryPolicy()
        self.default_timeout_s = default_timeout_s
        self.chaos = chaos
        self.queue = AdmissionQueue(capacity=queue_capacity,
                                    max_wait_s=max_wait_s, clock=clock,
                                    registry=self.registry)
        self.supervisor = WorkerSupervisor(workers=workers,
                                           registry=self.registry)
        self.store_breaker = CircuitBreaker(
            "store", failure_threshold=3, registry=self.registry)
        self.pool_breaker = CircuitBreaker(
            "pool", failure_threshold=3, registry=self.registry)
        self.journal = SweepJournal(journal_path)
        self.draining = False
        self._id_lock = threading.Lock()
        self._id_n = 0
        self._sleep = time.sleep
        # identical concurrent /restructure bodies coalesce onto one
        # in-flight computation, keyed by the engine cache's content
        # address (see _dedup_key)
        self._inflight_lock = threading.Lock()
        self._inflight: dict[str, _InflightRequest] = {}
        # requests that were in flight when a previous incarnation died
        self.lost_on_restart = self._recover_orphans()
        # disk-store failures anywhere in the cache feed the breaker
        get_cache().disk_error_hook = \
            lambda exc: self.store_breaker.record_failure()

    # -- durability --------------------------------------------------------

    def _recover_orphans(self) -> list[str]:
        orphans = [key[len("accept:"):] for key in self.journal.completed
                   if key.startswith("accept:")
                   and f"done:{key[len('accept:'):]}" not in self.journal]
        for rid in orphans:
            _LOG.warning("request_lost_on_restart", request_id=rid)
            self._journal(f"done:{rid}", {"status": "lost-on-restart"})
        return orphans

    def _journal(self, key: str, payload=None) -> None:
        """Journal through the store breaker: a failing disk pauses
        journaling (degraded) instead of failing requests."""
        if self.journal.path is None:
            self.journal.record(key, payload)   # in-memory bookkeeping
            return
        if not self.store_breaker.allow():
            return
        try:
            self.journal.record(key, payload)
            self.store_breaker.record_success()
        except OSError as exc:
            _LOG.warning("journal_write_failed", key=key,
                         message=str(exc))
            self.store_breaker.record_failure()

    # -- request plumbing --------------------------------------------------

    def _next_id(self) -> str:
        with self._id_lock:
            self._id_n += 1
            return f"req-{os.getpid()}-{self._id_n:05d}"

    def _envelope(self, request_id: str, endpoint: str, status: str,
                  *, attempts: int = 1, degraded=None, reason=None,
                  result=None, fault=None, t0: float = 0.0) -> dict:
        elapsed = time.monotonic() - t0 if t0 else 0.0
        self.registry.counter("repro_server_requests_total",
                              endpoint=endpoint, status=status).inc()
        self.registry.histogram("repro_server_request_seconds",
                                endpoint=endpoint).observe(elapsed)
        _LOG.info("request_done", request_id=request_id,
                  endpoint=endpoint, status=status, attempts=attempts,
                  elapsed_s=elapsed)
        return {
            "schema": SERVER_SCHEMA,
            "request_id": request_id,
            "endpoint": endpoint,
            "status": status,
            "attempts": attempts,
            "retries": max(0, attempts - 1),
            "degraded": sorted(set(degraded or [])),
            "reason": reason,
            "elapsed_s": elapsed,
            "result": result,
            "fault": fault,
        }

    def _chaos_marker(self, request_id: str, chaos_req: dict) -> Optional[str]:
        """Materialize a ``kill_worker: N`` directive as a countdown
        marker file (see :func:`repro.server.worker._apply_chaos`)."""
        kills = int(chaos_req.get("kill_worker") or 0)
        if kills <= 0:
            return None
        import tempfile

        base = self.journal.path.parent if self.journal.path is not None \
            else None
        fd, marker = tempfile.mkstemp(
            prefix=f"chaos-{request_id}-", suffix=".kills",
            dir=str(base) if base else None)
        with os.fdopen(fd, "w") as fh:
            fh.write(str(kills))
        return marker

    def _build_worker_request(self, request_id: str, endpoint: str,
                              request: dict, timeout_s: float) -> dict:
        req = {
            "request_id": request_id,
            "endpoint": endpoint,
            "source": request["source"],
            "path": request.get("path") or "<request>",
            "quick": bool(request.get("quick")),
            "fault_scenario": request.get("fault_scenario") or None,
            "timeout_s": timeout_s,
            "server_pid": os.getpid(),
            "attempt": 1,
        }
        if self.chaos and isinstance(request.get("chaos"), dict):
            chaos = dict(request["chaos"])
            marker = self._chaos_marker(request_id, chaos)
            req["chaos"] = {"kill_marker": marker,
                            "stall_s": float(chaos.get("stall_s") or 0.0)}
        return req

    def _validate(self, endpoint: str, request) -> Optional[str]:
        """Terminal request problems detectable before any work."""
        if not isinstance(request, dict):
            return "request body must be a JSON object"
        source = request.get("source")
        if not isinstance(source, str) or not source.strip():
            return "request must carry a non-empty 'source' string"
        scenario_name = request.get("fault_scenario")
        if scenario_name:
            from repro.faults.plan import SCENARIO_SPECS

            if scenario_name not in SCENARIO_SPECS:
                return (f"unknown fault scenario {scenario_name!r} "
                        f"(known: {', '.join(sorted(SCENARIO_SPECS))})")
        return None

    # -- execution ---------------------------------------------------------

    def _run_attempt(self, req: dict, degraded: list) -> dict:
        """One attempt, through the pool or the serial fallback."""
        label = f"{req['endpoint']}:{req['request_id']}"
        if self.pool_breaker.allow():
            result, fault = self.supervisor.submit(
                run_request_cell, req, label,
                timeout_s=req["timeout_s"] + _SUPERVISOR_SLACK_S)
            if fault is not None:
                # a pool-level loss (crash / wedged worker), distinct
                # from a workload fault the worker reported itself
                self.pool_breaker.record_failure()
                return {"outcome": "fault", "fault": fault}
            self.pool_breaker.record_success()
            return result
        # pool breaker open: serial in-process, thread-watchdog guarded
        degraded.append("pool:serial")
        try:
            return run_request_cell(req)
        except Exception as exc:  # noqa: BLE001 — classify, don't 500
            return {"outcome": "fault", "fault": {
                "label": label, "kind": "internal",
                "error_type": type(exc).__name__, "message": str(exc),
                "elapsed_s": 0.0, "traceback": "", "detail": {}}}

    def _dedup_key(self, endpoint: str, request: dict) -> Optional[str]:
        """Content address of one coalescible request, or None.

        Only plain ``/restructure`` bodies coalesce: chaos directives
        are per-request by design (each carries its own kill budget),
        and other endpoints are cheap enough not to bother.  The key is
        the engine cache's content address over the source, with every
        result-shaping request field folded into the fingerprint — two
        requests share a key only if their envelopes' results are
        interchangeable by construction.
        """
        if endpoint != "restructure" or request.get("chaos"):
            return None
        from repro.engine.cache import content_key

        fp = "|".join(str(request.get(k) or "") for k in
                      ("path", "quick", "fault_scenario"))
        return content_key("server-restructure", request["source"], fp)

    def handle(self, endpoint: str, request) -> dict:
        """Run one request end to end; always returns an envelope."""
        request_id = self._next_id()
        t0 = time.monotonic()
        problem = self._validate(endpoint, request)
        if problem is not None:
            return self._envelope(request_id, endpoint, "invalid-input",
                                  reason=problem, t0=t0)
        key = self._dedup_key(endpoint, request)
        cell: Optional[_InflightRequest] = None
        leader = True
        if key is not None:
            with self._inflight_lock:
                cell = self._inflight.get(key)
                if cell is None:
                    cell = self._inflight[key] = _InflightRequest()
                else:
                    leader = False
        if not leader:
            # follower: ride the in-flight computation instead of
            # recomputing an identical body
            self.registry.counter("repro_server_dedup_total",
                                  endpoint=endpoint).inc()
            _LOG.info("request_deduplicated", request_id=request_id,
                      endpoint=endpoint)
            timeout_s = float(request.get("timeout_s")
                              or self.default_timeout_s)
            budget = (timeout_s + _SUPERVISOR_SLACK_S) \
                * max(1, self.retry.max_attempts)
            if cell.done.wait(budget) and cell.envelope is not None:
                return cell.envelope
            return self._envelope(request_id, endpoint, "shed",
                                  reason="coalesced computation did not "
                                         "finish in time — retry",
                                  t0=t0)
        envelope: Optional[dict] = None
        try:
            deadline_s = request.get("deadline_s")
            try:
                self.queue.acquire(
                    float(deadline_s) if deadline_s is not None else None)
            except ShedRequest as shed:
                envelope = self._envelope(request_id, endpoint, "shed",
                                          reason=shed.reason, t0=t0)
                return envelope
            try:
                envelope = self._handle_admitted(request_id, endpoint,
                                                 request, t0)
                return envelope
            finally:
                self.queue.release()
        finally:
            if cell is not None:
                with self._inflight_lock:
                    self._inflight.pop(key, None)
                cell.envelope = envelope
                cell.done.set()

    def _handle_admitted(self, request_id: str, endpoint: str,
                         request: dict, t0: float) -> dict:
        self._journal(f"accept:{request_id}", {"endpoint": endpoint})
        timeout_s = float(request.get("timeout_s")
                          or self.default_timeout_s)
        req = self._build_worker_request(request_id, endpoint, request,
                                         timeout_s)
        degraded: list[str] = []
        if self.store_breaker.state == OPEN:
            degraded.append("cache:memory-only")
            cache = get_cache()
            if cache.cache_dir is not None:
                _LOG.warning("cache_disk_disabled", request_id=request_id)
                cache.cache_dir = None
        attempt = 0
        while True:
            attempt += 1
            req["attempt"] = attempt
            outcome = self._run_attempt(req, degraded)
            for _ in range(int(outcome.pop("disk_errors", 0) or 0)):
                # worker-side cache store failures, shipped home
                self.store_breaker.record_failure()
            if outcome.get("outcome") != "fault":
                break
            fault = outcome.get("fault") or {}
            if not self.retry.should_retry(fault, attempt):
                envelope = self._envelope(
                    request_id, endpoint, "error", attempts=attempt,
                    degraded=degraded,
                    reason=f"retry budget exhausted after {attempt} "
                           f"attempt(s)" if self.retry.classify(fault)
                    else "non-retryable fault",
                    fault=fault, t0=t0)
                self._journal(f"done:{request_id}",
                              {"status": "error", "attempts": attempt})
                return envelope
            delay = self.retry.backoff(request_id, attempt)
            _LOG.warning("request_retry", request_id=request_id,
                         attempt=attempt, delay_s=delay,
                         kind=fault.get("kind"))
            self.registry.counter("repro_server_retries_total",
                                  endpoint=endpoint).inc()
            self._sleep(delay)
        if outcome.get("outcome") == "invalid-input":
            envelope = self._envelope(
                request_id, endpoint, "invalid-input", attempts=attempt,
                degraded=degraded,
                reason=outcome.get("message") or "invalid input", t0=t0)
            self._journal(f"done:{request_id}",
                          {"status": "invalid-input"})
            return envelope
        degraded.extend(outcome.get("degraded") or [])
        status = "degraded" if degraded else "ok"
        envelope = self._envelope(
            request_id, endpoint, status, attempts=attempt,
            degraded=degraded, result=outcome.get("payload"), t0=t0)
        self._journal(f"done:{request_id}",
                      {"status": status, "attempts": attempt})
        return envelope

    # -- health and lifecycle ----------------------------------------------

    def healthz(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "in_flight": self.queue.in_flight,
            "breakers": {"store": self.store_breaker.state,
                         "pool": self.pool_breaker.state},
            "lost_on_restart": list(self.lost_on_restart),
        }

    def readyz(self) -> dict:
        return {"ready": not self.draining}

    def metrics_text(self) -> str:
        return self.registry.to_prometheus()

    def drain(self, timeout_s: float = 30.0) -> bool:
        """Stop admitting, wait (bounded) for in-flight work, shut the
        pool down.  True when everything finished in time."""
        self.draining = True
        drained = self.queue.drain(timeout_s)
        self.supervisor.shutdown()
        _LOG.info("drained", clean=drained)
        return drained
