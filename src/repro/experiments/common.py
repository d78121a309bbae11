"""Shared machinery for the experiment drivers.

``estimate_pair`` runs one workload through the restructurer and the
performance estimator twice — the serial/scalar original and the
restructured parallel program — and reports the speedup, which is what
every table and figure of the paper plots.

Also home to the CLI flags the harnesses share: ``add_engine_args`` (the
performance layer — ``--jobs``, ``--cache-dir``, ``--telemetry``,
``--log-level`` — on every harness), ``add_interpreter_arg``
(``--engine``, only on the harnesses that execute programs; nothing here
builds an interpreter), ``finite_seconds``, the type of every
``--timeout``, and the types of ``repro.validate``'s numeric flags
(``positive_int``, ``non_negative_int``, ``finite_tolerance``).  The
flags are the only spellings: no environment variable is read anywhere
under ``repro``.
"""

from __future__ import annotations

import argparse
import math
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
from repro.trace.timeline import TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.trace.profile import ProfileSession

#: the ProfileSession collecting estimates, when ``profiled()`` is active
_ACTIVE_SESSION: Optional[ProfileSession] = None


@contextmanager
def profiled(experiment: str):
    """Collect a :class:`ProfileSession` around an experiment driver.

    While active, every estimate made through this module runs with a
    per-CE timeline (which also makes its ledger count hardware events)
    and lands in the session.  Nesting is not supported — experiment
    drivers don't call each other.
    """
    global _ACTIVE_SESSION
    if _ACTIVE_SESSION is not None:
        raise RuntimeError("profiled() sessions do not nest")
    from repro.trace.profile import ProfileSession

    session = ProfileSession(experiment)
    _ACTIVE_SESSION = session
    try:
        yield session
    finally:
        _ACTIVE_SESSION = None


def direct_estimate(sf: F.SourceFile, entry: str,
                    bindings: Mapping[str, float],
                    machine: MachineConfig, workload: str,
                    role: str = "parallel", **est_kwargs) -> PerfResult:
    """Estimate an already-built AST, visible to ``profiled()`` sessions.

    Every estimate of the experiment drivers goes through here — placement
    sweeps and hand-built variants directly, the serial/restructured
    helpers below by way of it — so an active profile session sees them
    all; without one this is a plain estimate.
    """
    session = _ACTIVE_SESSION
    timeline = TimelineRecorder() if session is not None else None
    res = PerfEstimator(sf, machine, timeline=timeline,
                        **est_kwargs).estimate(entry, bindings)
    if session is not None:
        session.add(workload, role, machine, res, timeline)
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
    return direct_estimate(sf, entry, bindings, machine, entry, "serial",
                           prefetch=False, placements=placements)


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
    res = direct_estimate(cedar, entry, bindings, machine, entry,
                          prefetch=prefetch, placements=placements,
                          faults=faults)
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


def finite_seconds(text: str) -> float:
    """The argparse ``type=`` of every harness's ``--timeout``: a finite
    number of seconds ≥ 0 (``0`` is no budget, as
    :func:`repro.faults.harness.watchdog` documents).  ``nan``, ``inf``
    or a negative value is a usage error, not a budget the watchdog
    could arm."""
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"not a finite number of seconds >= 0: {text!r}")
    return value


def positive_int(text: str) -> int:
    """An integer ≥ 1 (``--processors``): the payload contract refuses
    0, and the interpreter would silently run it as 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def non_negative_int(text: str) -> int:
    """An integer ≥ 0 (``--seeds``: a NumPy seed cannot be negative;
    the fuzzer's ``--seed``: a seed names its program's unit)."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"not a non-negative integer: {text!r}")
    return value


def finite_tolerance(text: str) -> float:
    """A finite number ≥ 0 (``--atol``/``--rtol``): a ``nan`` or negative
    tolerance makes every comparison meaningless."""
    value = float(text)
    if not math.isfinite(value) or value < 0.0:
        raise argparse.ArgumentTypeError(
            f"not a finite non-negative tolerance: {text!r}")
    return value


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
                         "scalar text for every statement, the tree walk "
                         "for a list with GOTO or I/O; in race-checked "
                         "runs a DOALL proven conflict-free runs as "
                         "vector text and logs its index sets in bulk, "
                         "anything else records per access); "
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
