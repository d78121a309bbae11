"""The worker-side request cell: one request, fully isolated.

``run_request_cell`` is the module-level (picklable) function the
supervisor ships to its pool.  Inside the worker it composes the
existing hardening — :func:`repro.faults.harness.run_isolated` plus an
in-worker watchdog — so a request that raises or stalls at the Python
level comes back as a classified fault dict without the worker dying;
the supervisor's parent-side deadline and crash detection cover
everything this layer cannot (wedged C calls, killed processes).

The cell also honours the **chaos hooks** the acceptance tests use to
manufacture real worker deaths and stalls.  They are inert unless the
request carries a ``chaos`` directive, which the service only forwards
when started with ``--chaos`` — a production server never interprets
them.
"""

from __future__ import annotations

import os

from repro.faults.harness import run_isolated


def _apply_chaos(req: dict) -> None:
    """Honour chaos directives (test servers only; see module doc).

    ``kill_marker`` names a file holding the remaining self-kill count:
    each worker that reads a positive count decrements it and dies with
    SIGKILL semantics (``os._exit``), so a request configured with
    ``kill_worker: N`` loses exactly N attempts and then succeeds — the
    retry path is exercised against a *real* process death.
    ``stall_s`` busy-spins (watchdog-interruptible) on the first
    attempt only, exercising the timeout-then-retry path.
    """
    chaos = req.get("chaos") or {}
    marker = chaos.get("kill_marker")
    if marker:
        try:
            remaining = int(open(marker).read().strip() or 0)
        except (OSError, ValueError):
            remaining = 0
        if remaining > 0:
            with open(marker, "w") as fh:
                fh.write(str(remaining - 1))
                fh.flush()
                os.fsync(fh.fileno())
            if os.getpid() != req.get("server_pid"):
                os._exit(9)     # a real mid-request worker death
            # serial (in-process) degraded mode: dying would kill the
            # server itself — surface as a retryable internal fault
            raise RuntimeError("chaos kill directive in serial mode")
    stall = float(chaos.get("stall_s") or 0.0)
    if stall > 0.0 and req.get("attempt", 1) == 1:
        import time

        end = time.monotonic() + stall
        while time.monotonic() < end:   # interruptible busy spin
            pass


def _restructure(req: dict) -> dict:
    from repro.experiments.ingest import ingest_source, source_payload

    faults = None
    scenario_name = req.get("fault_scenario")
    if scenario_name:
        from repro.faults.plan import scenario

        faults = scenario(scenario_name)
    table, report = ingest_source(
        req["source"], req.get("path", "<request>"),
        quick=bool(req.get("quick")), faults=faults)
    if table is None:
        return {
            "outcome": "invalid-input",
            "message": f"{report.error_count} lint error(s) — "
                       "source not ingested",
            "detail": {"lint": report.to_dict()},
        }
    degraded = []
    if faults is not None and faults.active:
        degraded.append(f"fault-scenario:{faults.name}")
    return {
        "outcome": "ok",
        "payload": {"experiment": source_payload(
            table, bool(req.get("quick")))},
        "degraded": degraded,
    }


def _lint(req: dict) -> dict:
    from repro.lint.engine import lint_source, report_json

    report = lint_source(req["source"], path=req.get("path", "<request>"))
    return {
        "outcome": "ok",
        "payload": report_json([report]),
        "degraded": [],
    }


_ENDPOINTS = {"restructure": _restructure, "lint": _lint}


def run_request_cell(req: dict) -> dict:
    """Execute one request dict; always returns a classified dict.

    ``{"outcome": "ok"|"invalid-input", ...}`` on a completed run,
    ``{"outcome": "fault", "fault": <FaultReport dict>}`` when the
    workload raised or the in-worker watchdog fired.
    """
    handler = _ENDPOINTS.get(req.get("endpoint") or "")
    if handler is None:
        return {
            "outcome": "invalid-input",
            "message": f"unknown endpoint {req.get('endpoint')!r}",
            "detail": {},
        }

    def _cell():
        # chaos runs inside the isolation boundary: a serial-mode kill
        # directive surfaces as a retryable fault, not a server death
        _apply_chaos(req)
        return handler(req)

    # disk-store failures in this (possibly forked) process can't feed
    # the parent's circuit breaker directly — count them here and ship
    # the count home in the result
    from repro.engine.cache import get_cache

    disk_errors: list = []
    cache = get_cache()
    prev_hook = cache.disk_error_hook
    cache.disk_error_hook = disk_errors.append
    try:
        result, fault = run_isolated(
            _cell,
            label=f"{req.get('endpoint')}:{req.get('request_id', '?')}",
            timeout=req.get("timeout_s"))
    finally:
        cache.disk_error_hook = prev_hook
    if fault is not None:
        result = {"outcome": "fault", "fault": fault.to_dict()}
    result["disk_errors"] = len(disk_errors)
    return result
