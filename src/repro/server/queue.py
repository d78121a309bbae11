"""Admission control: bounded concurrency, deadline-aware shedding.

Unbounded admission is how a service dies politely: every request is
accepted, none finishes, memory and queue delay grow without bound.
The :class:`AdmissionQueue` caps in-flight work at ``capacity`` and
makes every admission decision in bounded time:

- a slot free now → admitted immediately;
- no slot and the caller's deadline (or the queue's ``max_wait_s``)
  cannot possibly be met → shed *now* with a classified reason
  (``queue-full`` / ``deadline``) rather than parked forever;
- otherwise the caller waits on a condition variable with a bounded
  timeout — every wait has a timeout, so the queue cannot deadlock
  even if a release is lost.

Shedding is a first-class outcome (HTTP 429, envelope status ``shed``),
not an error: under overload the server stays responsive by doing less.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.telemetry.log import get_logger

_LOG = get_logger("server.queue")


class ShedRequest(Exception):
    """Raised when admission is refused; ``reason`` is classified."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(detail or reason)
        self.reason = reason


class AdmissionQueue:
    """Bounded admission with deadline-aware shedding."""

    def __init__(self, capacity: int = 8,
                 max_wait_s: float = 5.0,
                 clock: Callable[[], float] = time.monotonic,
                 registry=None):
        self.capacity = max(1, capacity)
        self.max_wait_s = max_wait_s
        self._clock = clock
        self._lock = threading.Lock()
        self._slots_free = threading.Condition(self._lock)
        self._in_flight = 0
        self._waiting = 0
        self._closed = False
        self._depth_gauge = None
        self._shed_total = None
        if registry is not None:
            self._depth_gauge = registry.gauge("repro_server_queue_depth")
            self._shed_total = lambda reason: registry.counter(
                "repro_server_shed_total", reason=reason)

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def _shed(self, reason: str, detail: str) -> None:
        _LOG.warning("request_shed", reason=reason, detail=detail)
        if self._shed_total is not None:
            self._shed_total(reason).inc()
        raise ShedRequest(reason, detail)

    def acquire(self, deadline_s: Optional[float] = None) -> None:
        """Claim a slot or raise :class:`ShedRequest`.

        ``deadline_s`` is the caller's remaining patience in seconds;
        the effective wait budget is ``min(deadline_s, max_wait_s)``.
        Every wait is bounded — this method always returns or raises
        within the budget.
        """
        budget = self.max_wait_s
        if deadline_s is not None:
            budget = min(budget, deadline_s)
        give_up = self._clock() + budget
        with self._lock:
            while True:
                # checked under the lock, on every wake-up: once drain()
                # has begun, nothing more is admitted
                if self._closed:
                    self._shed("draining", "the service is draining")
                if self._in_flight < self.capacity:
                    break
                remaining = give_up - self._clock()
                if remaining <= 0:
                    reason = "deadline" if deadline_s is not None \
                        and deadline_s < self.max_wait_s else "queue-full"
                    self._shed(
                        reason,
                        f"{self._in_flight} in flight at capacity "
                        f"{self.capacity}, waited {budget:g}s")
                self._waiting += 1
                try:
                    self._slots_free.wait(timeout=min(remaining, 0.25))
                finally:
                    self._waiting -= 1
            self._in_flight += 1
            if self._depth_gauge is not None:
                self._depth_gauge.set(self._in_flight)

    def release(self) -> None:
        with self._lock:
            self._in_flight = max(0, self._in_flight - 1)
            if self._depth_gauge is not None:
                self._depth_gauge.set(self._in_flight)
            self._slots_free.notify()

    def drain(self, timeout_s: float = 10.0) -> bool:
        """Stop admitting — waiting and later callers are shed with
        reason ``draining`` — and wait (bounded) for all in-flight work
        to finish; True when fully drained."""
        give_up = self._clock() + timeout_s
        with self._lock:
            self._closed = True
            self._slots_free.notify_all()
            while self._in_flight > 0:
                remaining = give_up - self._clock()
                if remaining <= 0:
                    return False
                self._slots_free.wait(timeout=min(remaining, 0.25))
            return True
