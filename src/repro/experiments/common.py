"""Shared machinery for the experiment drivers.

``estimate_pair`` runs one workload through the restructurer and the
performance estimator twice — the serial/scalar original and the
restructured parallel program — and reports the speedup, which is what
every table and figure of the paper plots.

Also home to the CLI flags the harnesses share: ``add_engine_args`` (the
performance layer — ``--jobs``, ``--cache-dir``, ``--telemetry``,
``--log-level`` — on every harness) and ``add_interpreter_arg``
(``--engine``, only on the harnesses that execute programs; nothing here
builds an interpreter).  The flags are the only spellings: no
environment variable is read anywhere under ``repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Optional

from repro import telemetry
from repro.engine import cached_parse, cached_restructure, configure
from repro.execmodel.perf import PerfEstimator, PerfResult
from repro.fortran import ast_nodes as F
from repro.machine.config import MachineConfig
from repro.restructurer.options import RestructurerOptions
from repro.telemetry import log as telemetry_log

if TYPE_CHECKING:  # pragma: no cover
    from repro.prof.session import ProfileSession

#: the ProfileSession collecting estimates, when ``profiled()`` is active
_ACTIVE_SESSION: Optional[ProfileSession] = None


@contextmanager
def profiled(experiment: str):
    """Collect a :class:`ProfileSession` around an experiment driver.

    While active, every ``serial_estimate``/``restructured_estimate``
    call runs its estimator with profiling on (hardware counters + a
    per-CE timeline) and registers the result with the session.  Nesting
    is not supported — experiment drivers don't call each other.
    """
    global _ACTIVE_SESSION
    if _ACTIVE_SESSION is not None:
        raise RuntimeError("profiled() sessions do not nest")
    from repro.prof.session import ProfileSession

    session = ProfileSession(experiment)
    _ACTIVE_SESSION = session
    try:
        yield session
    finally:
        _ACTIVE_SESSION = None


def _profiled_estimator_kwargs() -> dict:
    if _ACTIVE_SESSION is None:
        return {}
    return {"profile": True, "timeline": _ACTIVE_SESSION.new_timeline()}


def direct_estimate(sf: F.SourceFile, entry: str,
                    bindings: Mapping[str, float],
                    machine: MachineConfig, workload: str,
                    role: str = "parallel", **est_kwargs) -> PerfResult:
    """Estimate an already-built AST, visible to ``profiled()`` sessions.

    Drivers that construct estimators directly (placement sweeps,
    hand-built variants) route through here so their runs still land in
    an active profile session; without one this is a plain estimate.
    """
    prof_kwargs = _profiled_estimator_kwargs()
    est = PerfEstimator(sf, machine, **est_kwargs, **prof_kwargs)
    res = est.estimate(entry, bindings)
    if _ACTIVE_SESSION is not None:
        _ACTIVE_SESSION.add(workload, role, machine, res,
                            prof_kwargs["timeline"])
    return res


@dataclass
class SpeedupResult:
    """Serial vs restructured timing of one workload on one machine."""

    serial: PerfResult
    parallel: PerfResult
    report: object

    @property
    def speedup(self) -> float:
        return self.serial.total / max(self.parallel.total, 1e-9)

    def trace_entry(self) -> dict:
        """JSON-ready per-workload telemetry: speedup, the serial and
        parallel cycle breakdowns, and the restructurer's decision log."""
        entry: dict = {
            "speedup": self.speedup,
            "serial_cycles": self.serial.total,
            "parallel_cycles": self.parallel.total,
        }
        if self.serial.ledger is not None:
            entry["serial_breakdown"] = self.serial.ledger.to_dict()
        if self.parallel.ledger is not None:
            entry["parallel_breakdown"] = self.parallel.ledger.to_dict()
        events = getattr(self.report, "events", None)
        if events:
            entry["decisions"] = [e.to_dict() for e in events]
        return entry


def serial_estimate(source: str, entry: str,
                    bindings: Mapping[str, float],
                    machine: MachineConfig,
                    placements: Mapping[str, str] | None = None) -> PerfResult:
    """Estimate the original serial/scalar program (data in cluster
    memory — the paper's baseline)."""
    sf = cached_parse(source)  # estimation never mutates the tree
    prof_kwargs = _profiled_estimator_kwargs()
    est = PerfEstimator(sf, machine, prefetch=False, placements=placements,
                        serial_data_placement="cluster", **prof_kwargs)
    res = est.estimate(entry, bindings)
    if _ACTIVE_SESSION is not None:
        _ACTIVE_SESSION.add(entry, "serial", machine, res,
                            prof_kwargs["timeline"])
    return res


def restructured_estimate(source: str, entry: str,
                          bindings: Mapping[str, float],
                          machine: MachineConfig,
                          options: RestructurerOptions | None = None,
                          prefetch: bool = True,
                          placements: Mapping[str, str] | None = None,
                          faults=None,
                          ) -> tuple[PerfResult, F.SourceFile, object]:
    """Restructure then estimate; returns (result, cedar AST, report).

    ``faults`` is an optional :class:`repro.faults.FaultPlan` degrading
    the simulated machine (timing only — the restructuring itself and
    all numerics are untouched, so the cached front end is safe to share
    across fault scenarios).
    """
    cedar, report = cached_restructure(source, options)
    prof_kwargs = _profiled_estimator_kwargs()
    est = PerfEstimator(cedar, machine, prefetch=prefetch,
                        placements=placements, faults=faults, **prof_kwargs)
    res = est.estimate(entry, bindings)
    if _ACTIVE_SESSION is not None:
        _ACTIVE_SESSION.add(entry, "parallel", machine, res,
                            prof_kwargs["timeline"])
    return res, cedar, report


def estimate_pair(source: str, entry: str,
                  bindings: Mapping[str, float],
                  machine: MachineConfig,
                  options: RestructurerOptions | None = None,
                  prefetch: bool = True,
                  placements: Mapping[str, str] | None = None) -> SpeedupResult:
    """Serial + restructured estimates and their speedup."""
    ser = serial_estimate(source, entry, bindings, machine)
    par, _, report = restructured_estimate(
        source, entry, bindings, machine, options, prefetch, placements)
    return SpeedupResult(serial=ser, parallel=par, report=report)


def scale_bindings(bindings: Mapping[str, float], n: int,
                   size_keys: tuple[str, ...]) -> dict[str, float]:
    """Override the size symbols of a bindings dict (for sweeps)."""
    out = dict(bindings)
    for k in size_keys:
        if k in out:
            out[k] = n
    return out


# ---------------------------------------------------------------------------
# shared engine CLI flags (experiments / validate / faults / server)


def add_engine_args(ap: argparse.ArgumentParser) -> None:
    """Install the performance-layer flags every harness shares.

    Defined once here so ``repro.experiments``, ``repro.validate``,
    ``repro.faults`` and ``repro.server`` cannot drift: same names, same
    defaults, same help.
    """
    ap.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="fan sweep cells out over N worker processes "
                         "(results are merged in deterministic order, so "
                         "JSON payloads are byte-identical to --jobs 1)")
    ap.add_argument("--cache-dir", default=None, metavar="DIR",
                    help="on-disk compilation cache shared across "
                         "processes and invocations (default: "
                         "memory-only)")
    ap.add_argument("--telemetry", default=None, metavar="DIR",
                    help="host-side telemetry: write per-stage spans "
                         "and metrics into DIR as a repro-metrics/1 "
                         "artifact (default: off; off is a true no-op "
                         "and never changes sweep payloads)")
    ap.add_argument("--log-level", default=None, metavar="LEVEL",
                    choices=("debug", "info", "warning", "error"),
                    help="structured JSONL logging at LEVEL "
                         "(debug/info/warning/error) to the telemetry "
                         "dir's log.jsonl, else stderr; enables the "
                         "crash flight recorder (default: off; off is "
                         "a true no-op and never changes sweep "
                         "payloads)")


def add_interpreter_arg(ap: argparse.ArgumentParser) -> None:
    """``--engine``, for the harnesses that execute programs
    (``repro.validate``, ``repro.faults``); estimation-only paths never
    build an :class:`~repro.execmodel.interp.Interpreter`.  The parsed
    ``ns.engine`` is threaded explicitly — into the calls the parent
    makes and into every worker's job dict."""
    from repro.execmodel.interp import ENGINES
    from repro.validate.differential import DEFAULT_ENGINE

    ap.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINES,
                    help="interpreter engine for every run this harness "
                         "executes: tree (reference walk) or compiled "
                         "(one cached source module per statement list: "
                         "vector text for vectorizable loop nests, "
                         "scalar text for the rest, the tree walk for a "
                         "list with GOTO or I/O; in race-checked runs a "
                         "lowered DOALL logs its index sets in bulk, "
                         "anything that could conflict records per "
                         "access); "
                         "results and race verdicts are identical "
                         f"(default: {DEFAULT_ENGINE} — one default for "
                         "every harness)")


def configure_engine(ns: argparse.Namespace) -> int:
    """Apply the shared flags; returns the sanitized job count.

    Workers of a ``--jobs N`` sweep are forked after this ran, so they
    inherit the telemetry session, the logging session and the cache
    directory with the process image."""
    telemetry_dir = getattr(ns, "telemetry", None)
    if telemetry_dir:
        telemetry.configure(telemetry_dir)
    log_level = getattr(ns, "log_level", None)
    if log_level:
        log_file = None
        if telemetry_dir:
            log_file = os.path.join(telemetry_dir, "log.jsonl")
        telemetry_log.configure(log_level, path=log_file)
    configure(cache_dir=getattr(ns, "cache_dir", None) or None)
    return max(1, int(getattr(ns, "jobs", 1) or 1))


def finalize_telemetry(harness: str) -> None:
    """Merge this run's telemetry session, if one is active.

    The shared epilogue of every sweep CLI: flushes the parent shard,
    folds per-worker shards into ``DIR/metrics.json``, prints a
    one-line stderr note, and ends the structured-logging session.  A
    no-op when both ``--telemetry`` and ``--log-level`` are off.
    """
    if telemetry.enabled():
        from repro.telemetry.export import finalize

        finalize(harness=harness,
                 echo=lambda msg: print(msg, file=sys.stderr))
    if telemetry_log.enabled():
        telemetry_log.get_logger("harness").info("finalized",
                                                 harness=harness)
        telemetry_log.shutdown()
