"""Circuit breaker: stop hammering a failing dependency, probe later.

The server has two dependencies that can go bad independently of any
single request: the on-disk cache store (disk full, permissions yanked,
filesystem remounted read-only) and the worker pool (a crash loop —
e.g. an OOM killer repeatedly taking workers down).  Retrying *through*
a dead dependency turns one failure into a pileup; the breaker converts
"failing repeatedly" into "degraded deliberately":

- **closed** — healthy; calls flow, failures are counted;
- **open** — ``failure_threshold`` consecutive failures seen; calls are
  refused (the caller takes its degraded path: in-memory cache, serial
  in-process execution) until ``reset_after_s`` has passed;
- **half-open** — cool-down elapsed; exactly one probe call is allowed
  through.  Success closes the breaker, failure re-opens it and the
  cool-down restarts.

The clock is injectable so tests drive the state machine without
sleeping.  State changes are logged and mirrored to the metrics gauge
``repro_server_breaker_state`` (0 = closed, 1 = half-open, 2 = open).
Thread-safe: the HTTP front end calls from many threads at once.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.telemetry.log import get_logger

_LOG = get_logger("server.breaker")

CLOSED, HALF_OPEN, OPEN = "closed", "half-open", "open"
_STATE_VALUE = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    """One breaker over one dependency.

    Usage::

        if breaker.allow():
            try:
                ...call the dependency...
                breaker.record_success()
            except Exception:
                breaker.record_failure()
                ...degraded path...
        else:
            ...degraded path...
    """

    def __init__(self, name: str, failure_threshold: int = 3,
                 reset_after_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic,
                 registry=None):
        self.name = name
        self.failure_threshold = max(1, failure_threshold)
        self.reset_after_s = reset_after_s
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False
        self._gauge = None
        if registry is not None:
            self._gauge = registry.gauge("repro_server_breaker_state",
                                         breaker=name)
            self._gauge.set(0)

    @property
    def state(self) -> str:
        with self._lock:
            return self._effective_state()

    def _effective_state(self) -> str:
        # called under the lock; promotes open -> half-open on cool-down
        if self._state == OPEN and self._opened_at is not None \
                and self._clock() - self._opened_at >= self.reset_after_s:
            self._set_state(HALF_OPEN)
        return self._state

    def _set_state(self, state: str) -> None:
        if state == self._state:
            return
        _LOG.warning("breaker_transition", breaker=self.name,
                     old=self._state, new=state)
        self._state = state
        if state != OPEN:
            self._probing = False
        if self._gauge is not None:
            self._gauge.set(_STATE_VALUE[state])

    def allow(self) -> bool:
        """Whether a call may proceed.  In half-open state only one
        caller at a time gets a probe slot."""
        with self._lock:
            state = self._effective_state()
            if state == CLOSED:
                return True
            if state == HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            self._set_state(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            state = self._effective_state()
            if state == HALF_OPEN:
                # the probe failed: re-open, restart the cool-down
                self._opened_at = self._clock()
                self._set_state(OPEN)
                return
            self._failures += 1
            if self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._set_state(OPEN)
