"""Retry policy: classified faults, seeded-deterministic backoff.

A request that failed on a *transient* fault — its worker crashed, its
watchdog fired, an unexpected internal error — is worth retrying; a
request that failed because the *input* is malformed will fail the same
way every time and must not burn pool capacity on retries.  The
classification reuses the fault taxonomy the harness stamps on every
failure — the ``kind`` of a :class:`repro.faults.harness.FaultReport`,
whether the worker reported it or the supervisor made it for a lost
worker:

=============  ==========================================  =========
kind           meaning                                     retryable
=============  ==========================================  =========
``timeout``    watchdog fired / supervisor deadline        yes
``internal``   worker crash, harness bug, unexpected exc   yes
``error``      modelled :class:`ReproError` (bad input)    no
=============  ==========================================  =========

Backoff is exponential with **seeded-deterministic jitter**: the delay
for ``(request_id, attempt)`` is a pure function of the policy seed, so
a chaos test replays the exact schedule and two servers with the same
seed shed identically under the same load.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: fault kinds worth another attempt (transient by construction)
RETRYABLE_KINDS = frozenset({"timeout", "internal"})


@dataclass(frozen=True)
class RetryPolicy:
    """Per-request retry budget and deterministic backoff schedule."""

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.5          # fraction of the delay randomized
    seed: int = 0

    def classify(self, fault: dict | None) -> bool:
        """Whether a fault dict (``FaultReport.to_dict()`` shape) is
        retryable.  ``None`` (no fault) is not retryable — there is
        nothing to retry."""
        if not fault:
            return False
        return fault.get("kind") in RETRYABLE_KINDS

    def should_retry(self, fault: dict | None, attempt: int) -> bool:
        """Retry iff the fault is transient and budget remains.
        ``attempt`` is 1-based (the attempt that just failed)."""
        return attempt < self.max_attempts and self.classify(fault)

    def backoff(self, request_id: str, attempt: int) -> float:
        """Delay before attempt ``attempt + 1``, in seconds.

        Deterministic: seeded by ``(policy seed, request id, attempt)``
        so replays reproduce the exact schedule.  Exponential in the
        attempt number, jittered within ``±jitter/2`` of the nominal
        delay, capped at ``max_delay_s``.
        """
        nominal = min(self.base_delay_s * (2.0 ** (attempt - 1)),
                      self.max_delay_s)
        if self.jitter <= 0:
            return nominal
        rng = random.Random(f"{self.seed}:{request_id}:{attempt}")
        spread = nominal * self.jitter
        return min(max(0.0, nominal + spread * (rng.random() - 0.5)),
                   self.max_delay_s)
