"""repro.server — the restructurer as a long-running, fault-tolerant
service.

The paper's restructurer is a batch compiler; this package is its
production front door: a stdlib-only JSON-over-HTTP service
(``python -m repro.server``) that accepts Fortran source plus pipeline
config and returns restructured-program estimates and lint reports,
with **resilience as the headline**:

- :mod:`repro.server.supervisor` — a supervised worker-process pool
  (crash detection, automatic respawn, per-request hard deadlines) —
  every request runs in it, one per worker, none in the server process;
- :mod:`repro.server.retry` — seeded-deterministic exponential backoff
  with jitter and a per-request retry budget; worker crashes and
  timeouts retry, malformed input is terminal;
- :mod:`repro.server.breaker` — the circuit breaker over the on-disk
  cache store and journal, tripping to degraded memory-only operation
  instead of failing;
- :mod:`repro.server.queue` — bounded admission with deadline-aware
  load shedding (a distinct ``shed`` status, never a deadlock);
- :mod:`repro.server.service` — the orchestration: request envelopes
  (``repro-server/1``), journal-backed durability via
  :class:`repro.faults.harness.SweepJournal`, correlation-id logging,
  and the classified outcome contract — every accepted request
  terminates ``ok`` / ``degraded`` / ``shed`` / ``invalid-input`` /
  ``error``, nothing hangs and nothing 500s unclassified;
- :mod:`repro.server.http` — the ``ThreadingHTTPServer`` front end
  (``/restructure``, ``/lint``, ``/healthz``, ``/readyz``,
  ``/metrics``).

Everything is stdlib + the existing engine/faults/telemetry layers —
no new dependencies.
"""

from repro.server.breaker import CircuitBreaker
from repro.server.queue import AdmissionQueue, ShedRequest
from repro.server.retry import RetryPolicy
from repro.server.service import SERVER_SCHEMA, RestructurerService
from repro.server.supervisor import WorkerSupervisor

__all__ = [
    "AdmissionQueue",
    "CircuitBreaker",
    "RestructurerService",
    "RetryPolicy",
    "SERVER_SCHEMA",
    "ShedRequest",
    "WorkerSupervisor",
]
