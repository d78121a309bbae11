"""Shared machinery for the experiment drivers.

``estimate_pair`` runs one workload through the restructurer and the
performance estimator twice — the serial/scalar original and the
restructured parallel program — and reports the speedup, which is what
every table and figure of the paper plots.

Also home to the CLI flags the harnesses share: ``add_engine_args`` (the
performance layer — ``--jobs``, ``--cache-dir``, ``--telemetry``,
``--log-level`` — on every harness) and ``add_interpreter_arg`` /
``selected_engine`` (``--engine``, only on the harnesses that execute
programs; nothing here builds an interpreter).
"""

from __future__ import annotations

import argparse
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.engine import cached_parse, cached_restructure, configure
from repro.execmodel.perf import PerfEstimator, PerfResult
from repro.fortran import ast_nodes as F
from repro.machine.config import MachineConfig
from repro.prof.session import ProfileSession
from repro.restructurer.options import RestructurerOptions

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
                         "$REPRO_CACHE_DIR, else memory-only)")
    ap.add_argument("--telemetry", default=None, metavar="DIR",
                    help="host-side telemetry: write per-stage spans, "
                         "metrics and latency histograms into DIR as a "
                         "repro-metrics/1 artifact (default: "
                         "$REPRO_TELEMETRY, else off; off is a true "
                         "no-op and never changes sweep payloads)")
    ap.add_argument("--log-level", default=None, metavar="LEVEL",
                    choices=("debug", "info", "warning", "error"),
                    help="structured JSONL logging at LEVEL "
                         "(debug/info/warning/error) to "
                         "$REPRO_LOG_FILE, the telemetry dir's "
                         "log.jsonl, or stderr; enables the crash "
                         "flight recorder (default: $REPRO_LOG, else "
                         "off; off is a true no-op and never changes "
                         "sweep payloads)")


def add_interpreter_arg(ap: argparse.ArgumentParser) -> None:
    """``--engine``, for the harnesses that execute programs
    (``repro.validate``, ``repro.faults``); estimation-only paths never
    build an :class:`~repro.execmodel.interp.Interpreter`.  Read the
    choice back with :func:`selected_engine`."""
    from repro.execmodel.interp import ENGINES
    from repro.validate.differential import DEFAULT_ENGINE

    ap.add_argument("--engine", default=None, choices=ENGINES,
                    help="interpreter engine for every run this harness "
                         "executes: tree (reference walk) or compiled "
                         "(cached NumPy source modules for vectorizable "
                         "loop nests, closures for the rest; in race-"
                         "checked runs a lowered DOALL logs its index "
                         "sets in bulk, anything that could conflict "
                         "records per access from closures); "
                         "results and race verdicts are identical "
                         "(default: $REPRO_ENGINE, else "
                         f"{DEFAULT_ENGINE} — one default for every "
                         "harness)")


def selected_engine(ns: argparse.Namespace) -> str:
    """The engine a harness runs: ``--engine``, else ``$REPRO_ENGINE``,
    else the one default every harness shares."""
    from repro.validate.differential import DEFAULT_ENGINE

    return getattr(ns, "engine", None) \
        or os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE


def configure_engine(ns: argparse.Namespace) -> int:
    """Apply the shared flags; returns the sanitized job count."""
    from repro import telemetry
    from repro.obs import log as obslog

    telemetry_dir = getattr(ns, "telemetry", None) \
        or os.environ.get("REPRO_TELEMETRY") or None
    if telemetry_dir:
        telemetry.configure(telemetry_dir)
    log_level = getattr(ns, "log_level", None)
    if log_level:
        from repro.telemetry import spans as spanmod

        log_file = os.environ.get("REPRO_LOG_FILE") or None
        if log_file is None and spanmod.current_dir() is not None:
            log_file = str(spanmod.current_dir() / "log.jsonl")
        obslog.configure(log_level, path=log_file)
    else:
        obslog.configure_from_env()    # forked/spawned workers join
    cache_dir = getattr(ns, "cache_dir", None) \
        or os.environ.get("REPRO_CACHE_DIR") or None
    configure(cache_dir=cache_dir)
    engine = getattr(ns, "engine", None)
    if engine:
        # exported so sweep worker processes (and any Interpreter built
        # without an explicit engine) inherit the selection
        os.environ["REPRO_ENGINE"] = engine
    return max(1, int(getattr(ns, "jobs", 1) or 1))


def finalize_telemetry(harness: str) -> None:
    """Merge this run's telemetry session, if one is active.

    The shared epilogue of every sweep CLI: flushes the parent shard,
    folds per-worker shards into ``DIR/metrics.json`` (plus the merged
    span log and Prometheus text), prints a one-line stderr note, and
    ends the structured-logging session.  A no-op when both
    ``--telemetry`` and ``--log-level`` are off.
    """
    import sys

    from repro import telemetry
    from repro.obs import log as obslog

    telemetry.finalize(
        harness=harness,
        echo=lambda msg: print(msg, file=sys.stderr))
    if obslog.enabled():
        obslog.get_logger("harness").info("finalized", harness=harness)
        obslog.shutdown()
