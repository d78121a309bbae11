"""The restructurer service: classified outcomes, always.

:class:`RestructurerService` composes the resilience pieces — admission
queue, supervised pool, retry policy, store circuit breaker, journal —
into one contract: **every accepted request terminates with a
classified outcome**.  The response envelope (``repro-server/1``)
carries exactly one of five statuses:

==================  =====================================================
``ok``              full-fidelity result
``degraded``        correct result from a degraded path (fault scenario
                    active, memory-only cache)
``shed``            refused under load / past deadline / while
                    draining — retry later
``invalid-input``   the request can never succeed; do not retry
``error``           transient faults exhausted the retry budget
==================  =====================================================

Request path: validate → result table → admission queue → pool.  The
result table (bounded LRU, :data:`RESULT_TABLE_CAP`) computes identical
``/restructure`` bodies once — concurrent ones wait on the first, later
ones are answered from its retained outcome without a worker — and each
answer is still its own envelope (own ``request_id``, ``elapsed_s``,
metrics, service-state degradations).

Durability: accepted requests journal ``accept:<id>`` before running
and ``done:<id>`` after; a restarted server reports requests that were
in flight when it died as ``lost-on-restart`` in ``/healthz`` instead
of silently forgetting them.

Degradation ladder: the *store* breaker (journal + on-disk cache
store) trips to memory-only operation — it degrades the service, never
stops it.  There is no such rung for the pool: every attempt runs in a
supervised worker, a crashed or wedged one is killed and respawned, and
a pool that keeps failing spends the retry budget into a classified
``error`` — the service never runs request work in its own process.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import Optional

from repro.engine.cache import content_key, get_cache
from repro.faults.harness import FaultReport, SweepJournal
from repro.telemetry.log import get_logger
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


#: entries the result table keeps, least recently used evicted first.
#: One entry is one ``/restructure`` result payload (6-34 KiB as JSON
#: for the repository's workloads, a few times that as objects), so a
#: long-lived server spends at most a few MB on it however many
#: distinct bodies it is sent.
RESULT_TABLE_CAP = 128


class _Result:
    """One result-table entry: pending until its leader settles it,
    then the worker outcome every identical request is answered from."""

    __slots__ = ("done", "outcome")

    def __init__(self):
        self.done = threading.Event()
        #: ``{"payload", "degraded"}`` as the worker reported them —
        #: never an envelope: ids, timings and service-state
        #: degradations belong to the request being answered
        self.outcome: Optional[dict] = None


class _ResultTable:
    """Bounded LRU of ``/restructure`` outcomes, keyed by request
    content (:meth:`RestructurerService._dedup_key`).

    An entry is *pending* while the first request with its key (the
    leader) computes, and identical concurrent requests wait on it;
    settled with a shareable outcome it stays and answers later
    identical requests without a worker; settled without one it is
    dropped.  Pending entries are never evicted — a waiter holds each —
    so when every slot is pending a new key simply gets no entry and
    runs uncoalesced.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, _Result] = OrderedDict()

    def claim(self, key: str) -> tuple[Optional[_Result], bool]:
        """``(entry, leader)``: an existing entry to be answered from
        (``leader`` False), or a fresh pending one the caller must
        :meth:`settle` (``leader`` True; ``None`` when the table is
        full of pending entries)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                return entry, False
            if len(self._entries) >= RESULT_TABLE_CAP:
                oldest = next((k for k, e in self._entries.items()
                               if e.done.is_set()), None)
                if oldest is None:
                    return None, True
                del self._entries[oldest]
            entry = self._entries[key] = _Result()
            return entry, True

    def settle(self, key: str, entry: _Result,
               outcome: Optional[dict]) -> None:
        """Publish the leader's outcome (``None``: nothing shareable)
        and release the waiters."""
        with self._lock:
            entry.outcome = outcome
            if outcome is None and self._entries.get(key) is entry:
                del self._entries[key]
        entry.done.set()

    def pending(self) -> int:
        with self._lock:
            return sum(1 for e in self._entries.values()
                       if not e.done.is_set())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


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
        self.journal = SweepJournal(journal_path)
        self.draining = False
        self._id_lock = threading.Lock()
        self._id_n = 0
        self._sleep = time.sleep
        # identical /restructure bodies are computed once: concurrent
        # ones wait on the first, later ones are answered from its
        # retained outcome (see _dedup_key, _ResultTable)
        self._results = _ResultTable()
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

            if not isinstance(scenario_name, str):
                return "'fault_scenario' must be a string"
            if scenario_name not in SCENARIO_SPECS:
                return (f"unknown fault scenario {scenario_name!r} "
                        f"(known: {', '.join(sorted(SCENARIO_SPECS))})")
        # exactly the values the float() calls below would raise on: a
        # falsy timeout_s means the default, a null deadline_s none
        for field, value in (("timeout_s", request.get("timeout_s") or None),
                             ("deadline_s", request.get("deadline_s"))):
            if value is not None:
                try:
                    float(value)
                except (TypeError, ValueError):
                    return f"'{field}' must be a number of seconds"
        return None

    # -- execution ---------------------------------------------------------

    def _run_attempt(self, req: dict) -> dict:
        """One attempt in a supervised worker; a lost worker comes back
        as a fault outcome like one the worker reported itself."""
        result, fault = self.supervisor.submit(
            run_request_cell, req, f"{req['endpoint']}:{req['request_id']}",
            timeout_s=req["timeout_s"] + _SUPERVISOR_SLACK_S)
        if fault is not None:
            return {"outcome": "fault", "fault": fault.to_dict()}
        return result

    def _dedup_key(self, endpoint: str, request: dict) -> Optional[str]:
        """Result-table key of one shareable request, or None.

        Only plain ``/restructure`` bodies share results: chaos
        directives are per-request by design (each carries its own kill
        budget), and other endpoints are cheap enough not to bother.
        The key is the engine cache's content address over the source,
        with every result-shaping request field folded into the
        fingerprint — two requests share a key only if their envelopes'
        results are interchangeable by construction.
        """
        if endpoint != "restructure" or request.get("chaos"):
            return None
        fp = "|".join(str(request.get(k) or "") for k in
                      ("path", "quick", "fault_scenario"))
        return content_key("server-restructure", request["source"], fp)

    def reject(self, endpoint: str, reason: str) -> dict:
        """The ``invalid-input`` envelope for a request the front end
        refused before it had a body to hand to :meth:`handle`."""
        return self._envelope(self._next_id(), endpoint, "invalid-input",
                              reason=reason, t0=time.monotonic())

    def failed(self, endpoint: str, fault: FaultReport) -> dict:
        """The ``error`` envelope for a request :meth:`handle` itself
        raised on — the front end's last-ditch guard.  The fault's
        flight-recorder tail is the server's ring, other requests'
        events included, so it stays out of the client's envelope."""
        return self._envelope(
            self._next_id(), endpoint, "error",
            reason=f"{fault.error_type}: {fault.message}",
            fault=dict(fault.to_dict(), detail={}), t0=time.monotonic())

    def handle(self, endpoint: str, request) -> dict:
        """Run one request end to end; always returns an envelope.

        The path is validate → result table → admission → pool: a body
        whose outcome the table holds (or is computing) never reaches
        the queue or a worker.  Once :meth:`drain` has begun, every
        request is shed before any of it.
        """
        request_id = self._next_id()
        t0 = time.monotonic()
        if self.draining:
            return self._envelope(request_id, endpoint, "shed",
                                  reason="draining", t0=t0)
        problem = self._validate(endpoint, request)
        if problem is not None:
            return self._envelope(request_id, endpoint, "invalid-input",
                                  reason=problem, t0=t0)
        key = self._dedup_key(endpoint, request)
        entry: Optional[_Result] = None
        if key is not None:
            entry, leader = self._results.claim(key)
            if not leader:
                envelope = self._answer_from(entry, request_id, endpoint,
                                             request, t0)
                if envelope is not None:
                    return envelope
                # the leader's outcome was its own (faulted, retried,
                # shed, degraded service): compute ours, uncoalesced
                entry = None
        outcome: Optional[dict] = None
        try:
            deadline_s = request.get("deadline_s")
            try:
                self.queue.acquire(
                    float(deadline_s) if deadline_s is not None else None)
            except ShedRequest as shed:
                return self._envelope(request_id, endpoint, "shed",
                                      reason=shed.reason, t0=t0)
            try:
                envelope, outcome = self._handle_admitted(
                    request_id, endpoint, request, t0)
                return envelope
            finally:
                self.queue.release()
        finally:
            if entry is not None:
                self._results.settle(key, entry, outcome)

    def _answer_from(self, entry: _Result, request_id: str,
                     endpoint: str, request: dict,
                     t0: float) -> Optional[dict]:
        """This request's own envelope around another request's
        outcome; None when that request settled nothing shareable."""
        self.registry.counter("repro_server_dedup_total",
                              endpoint=endpoint).inc()
        _LOG.info("request_deduplicated", request_id=request_id,
                  endpoint=endpoint)
        if not entry.done.is_set():
            timeout_s = float(request.get("timeout_s")
                              or self.default_timeout_s)
            budget = (timeout_s + _SUPERVISOR_SLACK_S) \
                * max(1, self.retry.max_attempts)
            if not entry.done.wait(budget):
                return self._envelope(
                    request_id, endpoint, "shed",
                    reason="coalesced computation did not finish in "
                           "time — retry", t0=t0)
        outcome = entry.outcome
        if outcome is None:
            return None
        degraded = self._service_degradations(request_id) \
            + outcome["degraded"]
        return self._envelope(
            request_id, endpoint, "degraded" if degraded else "ok",
            degraded=degraded, result=outcome["payload"], t0=t0)

    def _service_degradations(self, request_id: str) -> list[str]:
        """Degradations the service's own state imposes on a request
        answered now, whoever computed its result."""
        if self.store_breaker.state != OPEN:
            return []
        cache = get_cache()
        if cache.cache_dir is not None:
            _LOG.warning("cache_disk_disabled", request_id=request_id)
            cache.cache_dir = None
        return ["cache:memory-only"]

    def _handle_admitted(self, request_id: str, endpoint: str,
                         request: dict, t0: float,
                         ) -> tuple[dict, Optional[dict]]:
        """``(envelope, outcome)``: ``outcome`` is the worker's
        ``{"payload", "degraded"}`` when any identical request may be
        answered from it — a first-attempt success on a healthy service
        — and None otherwise."""
        self._journal(f"accept:{request_id}", {"endpoint": endpoint})
        timeout_s = float(request.get("timeout_s")
                          or self.default_timeout_s)
        req = self._build_worker_request(request_id, endpoint, request,
                                         timeout_s)
        degraded = self._service_degradations(request_id)
        attempt = 0
        while True:
            attempt += 1
            req["attempt"] = attempt
            outcome = self._run_attempt(req)
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
                return envelope, None
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
            return envelope, None
        shareable = None
        if attempt == 1 and not degraded:
            shareable = {"payload": outcome.get("payload"),
                         "degraded": list(outcome.get("degraded") or [])}
        degraded.extend(outcome.get("degraded") or [])
        status = "degraded" if degraded else "ok"
        envelope = self._envelope(
            request_id, endpoint, status, attempts=attempt,
            degraded=degraded, result=outcome.get("payload"), t0=t0)
        self._journal(f"done:{request_id}",
                      {"status": status, "attempts": attempt})
        return envelope, shareable

    # -- health and lifecycle ----------------------------------------------

    def healthz(self) -> dict:
        return {
            "status": "draining" if self.draining else "ok",
            "in_flight": self.queue.in_flight,
            "breakers": {"store": self.store_breaker.state},
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
