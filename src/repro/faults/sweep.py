"""The degradation oracle: sweep a fault matrix, assert graceful decay.

For every (workload × fault scenario) pair the oracle runs the full
stack — restructure, estimate under the injected :class:`FaultPlan`,
interpret — and asserts the contract of the chaos layer:

``monotone``
    a faulted machine is never *faster* than the healthy one;
``attributed``
    the cycle ledger still sums to the estimate exactly, with the
    degradation visible in the ``fault``/memory categories — injection
    degrades attribution, it never breaks the accounting identity;
``bounded``
    the slowdown stays under the plan's analytic
    :meth:`~repro.faults.plan.FaultPlan.degradation_bound` — degradation
    is graceful, not a cliff;
``numerics_identical``
    faults live strictly in the timing layer, they cannot perturb a
    single computed value.  Per cell: the Cedar tree — the only object
    the estimator and the interpreter share — unparses to the same text
    after the cell's faulted estimate as when the row's harness was
    built, so the first cell to fail names the estimate that leaked.
    Per row: after the row's last estimate, one fresh run under the
    deal of the row's first run is bit-identical to that first run
    (folded into the last cell's verdict);
``recovery_ok``
    the restructured program, interpreted on 8 workers *under the
    plan's deal* (:meth:`~repro.faults.plan.FaultPlan.deal`: dead CEs
    stop taking iterations, slow CEs take fewer, the survivors pick up
    the rest), still matches the sequential baseline within validation
    tolerances — the self-scheduled work redistributes, results stay
    correct whichever CE ran which iteration (reductions may round
    differently; they must still validate);
``no_deadlock``
    every faulted estimate completes to a finite total (each run is
    additionally watchdogged — a hang becomes a harness fault, not a
    stuck sweep).

The functional half costs one interpretation per *distinct input*: a
row (one workload × its scenarios) makes 1 sequential baseline + D runs
+ 1 re-run, D being the number of distinct deals among its scenarios
(:attr:`~repro.faults.plan.FaultPlan.deal_key`; the 11-scenario matrix
has 5 — seven scenarios deal exactly the healthy ``w, w+P, …`` — so 7
interpretations a row).  Not modelled by the deal: late helpers and lost
syncs stay timing-only (a DOACROSS runs in order whatever the plan says).

The result is a ``repro-faults/1`` JSON payload
(``schemas/faults.schema.json``; semantic checks in
``scripts/validate_experiment_json.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from repro.cedar.unparse import unparse_cedar
from repro.engine import cached_restructure
from repro.errors import ReproError
from repro.execmodel.perf import PerfEstimator
from repro.faults.harness import FaultReport, run_isolated
from repro.faults.plan import FaultPlan, all_scenarios
from repro.machine.config import cedar_config1
from repro.validate.differential import (DEFAULT_ENGINE, compare_outputs,
                                         run_baseline, run_variant)
from repro.workloads import validation_cases
from repro.workloads.synthetic import CASCADE_WORKLOAD

SCHEMA_TAG = "repro-faults/1"

#: workloads the oracle sweeps: loop-parallel linalg routines, Perfect
#: proxies with critical-section obstacles, and the synthetic ``cascade``
#: recurrence (the only case that restructures to DOACROSS, so the
#: lost-sync fault class is exercised end-to-end)
SWEEP_WORKLOADS = ("tridag", "cg", "sparse", "TRFD", "MDG", "cascade")
QUICK_WORKLOADS = ("tridag", "cg", "TRFD", "cascade")

#: estimator problem sizes per suite (larger than the records'
#: validation sizes so parallel loops have many chunks to redistribute)
ESTIMATE_N = {"linalg": 64, "perfect": 24, "synthetic": 96}
ESTIMATE_N_QUICK = {"linalg": 32, "perfect": 16, "synthetic": 48}

#: simulated CEs of every functional run (one Cedar cluster)
WORKERS = 8

#: worker counts a loop can actually run at (cluster/spread/cross
#: levels, clipped by trip counts) — the analytic bound must hold at
#: every one of them
_BOUND_WORKER_COUNTS = (1, 2, 3, 4, 8, 16, 32)

CHECKS = ("monotone", "attributed", "bounded", "numerics_identical",
          "recovery_ok", "no_deadlock")


@dataclass
class FaultRun:
    """Outcome of one workload × scenario oracle cell."""

    workload: str
    scenario: str
    healthy_cycles: float = 0.0
    faulted_cycles: float = 0.0
    fault_cycles: float = 0.0         # ledger "fault" category
    degradation: float = 1.0          # faulted / healthy
    bound: float = 1.0                # analytic ceiling on degradation
    injected_faults: int = 0
    sync_retries: int = 0
    survivors: int = 0                # surviving workers out of WORKERS
    checks: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.checks.get(c, False) for c in CHECKS)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "scenario": self.scenario,
            "healthy_cycles": self.healthy_cycles,
            "faulted_cycles": self.faulted_cycles,
            "fault_cycles": self.fault_cycles,
            "degradation": self.degradation,
            "bound": self.bound,
            "injected_faults": self.injected_faults,
            "sync_retries": self.sync_retries,
            "survivors": self.survivors,
            "checks": dict(self.checks),
            "ok": self.ok,
        }


class _WorkloadHarness:
    """Per-workload (row) shared state: parsed+restructured once,
    baseline interpreted once, a faulted estimate per scenario, the
    restructured program interpreted once per distinct deal."""

    def __init__(self, case, estimate_n: int, seed: int = 3,
                 engine: str = DEFAULT_ENGINE):
        self.case = case
        self.seed = seed
        self.engine = engine
        self.cfg = cedar_config1()
        # default-options restructure through the compilation cache (the
        # cedar program is read-only downstream — estimator + interpreter)
        self.cedar, _ = cached_restructure(case.source)
        self.cedar_text = unparse_cedar(self.cedar)
        self.bindings = case.bindings(estimate_n)
        self.healthy = self._estimate(None)
        self.baseline_out = run_baseline(case, seed, engine=engine)
        #: deal key -> (the first plan that dealt it, its result)
        self._runs: dict[tuple, tuple[FaultPlan, dict]] = {}

    def _estimate(self, plan: Optional[FaultPlan]):
        est = PerfEstimator(self.cedar, self.cfg, faults=plan)
        res = est.estimate(self.case.entry, self.bindings)
        return res, est.fault_injector

    def estimate(self, plan: FaultPlan):
        return self._estimate(plan if plan.active else None)

    def tree_untouched(self) -> bool:
        """Whether the shared Cedar tree still reads as it was built."""
        return unparse_cedar(self.cedar) == self.cedar_text

    def _interpret(self, plan: FaultPlan) -> dict:
        # loops re-enter with the same few (n, p): deal each once a run
        out, _ = run_variant(self.case, None, self.seed, WORKERS,
                             engine=self.engine, cedar=self.cedar,
                             deal=lru_cache(maxsize=None)(plan.deal))
        return out

    def interpret(self, plan: FaultPlan) -> dict:
        """The restructured program on :data:`WORKERS` workers under
        ``plan``'s deal (one run per distinct deal)."""
        key = plan.deal_key
        if key not in self._runs:
            self._runs[key] = (plan, self._interpret(plan))
        return self._runs[key][1]

    def rerun_identical(self) -> bool:
        """Whether a fresh run under the row's first deal is
        bit-identical to that first run."""
        plan, first = next(iter(self._runs.values()))
        return _outputs_identical(first, self._interpret(plan))


def _cases() -> dict:
    """Every program the sweep can run: the 22 validation cases and the
    synthetic ``cascade`` row."""
    return {**validation_cases(), CASCADE_WORKLOAD.name: CASCADE_WORKLOAD}


def _outputs_identical(a: dict, b: dict) -> bool:
    if set(a) != set(b):
        return False
    for k in a:
        xa, xb = np.asarray(a[k]), np.asarray(b[k])
        if xa.shape != xb.shape or not np.array_equal(xa, xb):
            return False
    return True


def run_cell(harness: _WorkloadHarness, plan: FaultPlan,
             last_in_row: bool = False) -> FaultRun:
    """Run one oracle cell: estimate + interpret under one plan.

    ``last_in_row`` marks the row's final cell, which also carries the
    row-level re-run of ``numerics_identical``."""
    case = harness.case
    healthy_res, _ = harness.healthy
    run = FaultRun(workload=case.name, scenario=plan.name)
    run.healthy_cycles = healthy_res.total
    run.bound = max(plan.degradation_bound(p)
                    for p in _BOUND_WORKER_COUNTS)
    run.survivors = len(plan.survivors(WORKERS))

    res, injector = harness.estimate(plan)
    run.faulted_cycles = res.total
    run.fault_cycles = res.ledger.fault if res.ledger is not None else 0.0
    run.degradation = res.total / max(healthy_res.total, 1e-9)
    if injector is not None:
        run.injected_faults = injector.injected_faults
        run.sync_retries = injector.sync_retries

    # -- timing invariants --------------------------------------------------
    run.checks["no_deadlock"] = math.isfinite(res.total) and res.total > 0.0
    run.checks["monotone"] = (
        res.total >= healthy_res.total * (1.0 - 1e-9))
    ledger_ok = (res.ledger is not None
                 and abs(res.ledger.total() - res.cycles)
                 <= 1e-6 * max(res.cycles, 1.0))
    if not plan.active:
        # inactive plan: bit-identical cycles, zero fault attribution
        ledger_ok = (ledger_ok and res.total == healthy_res.total
                     and run.fault_cycles == 0.0)
    run.checks["attributed"] = ledger_ok
    run.checks["bounded"] = (
        res.total <= healthy_res.total * run.bound + 1.0)

    # -- functional invariants ----------------------------------------------
    # faults are timing-only: the estimate just made must have left the
    # tree it shares with the interpreter exactly as built
    identical = harness.tree_untouched()
    # recovery: with the plan dealing the iterations — dead CEs drop out,
    # slow ones take fewer, survivors take the rest — results still match
    # the sequential baseline within validation tolerances
    divergences = compare_outputs(
        harness.baseline_out, harness.interpret(plan),
        permutation_ok=case.permutation_ok,
        processors=WORKERS, seed=harness.seed)
    if last_in_row:
        # every estimate of the row is behind us: values are still
        # bit-identical run-to-run
        identical = harness.rerun_identical() and identical
    run.checks["numerics_identical"] = identical
    run.checks["recovery_ok"] = not divergences
    return run


def _resolve_plans(quick: bool,
                   scenarios: Sequence[str] | None) -> dict[str, FaultPlan]:
    """The scenario matrix — shared by the driver and its workers so a
    forked worker reconstructs exactly the parent's plan objects."""
    if scenarios is not None:
        from repro.faults.plan import scenario as _scenario

        return {s: _scenario(s) for s in scenarios}
    return all_scenarios(quick=quick)


def run_fault_workload(job: dict) -> dict:
    """Run one workload row of the fault matrix: the parallel sweep's
    picklable cell.

    The harness (restructure + healthy estimate + sequential baseline)
    is built once, then every non-journaled scenario runs crash-isolated
    against it.  ``job`` keys: workload, quick (bool), timeout, engine,
    scenario_override (list of scenario names or None), skip (scenario
    names already in the parent's journal).  Returns JSON-shaped records
    only — printing and journaling stay in the parent, so serial and
    parallel sweeps emit byte-identical payloads::

        {"workload": str,
         "baseline_fault": fault-dict | None,
         "cells": [{"scenario": str, "resumed": True}
                   | {"scenario": str, "run": run-dict, "fault": None}
                   | {"scenario": str, "run": None, "fault": fault-dict},
                   ...]}

    Cells appear in scenario-matrix order; journaled scenarios become
    ``resumed`` placeholders the parent replaces from its journal.
    """
    wname = job["workload"]
    quick = job["quick"]
    timeout = job["timeout"]
    skip = set(job["skip"])
    plans = _resolve_plans(quick, job["scenario_override"])
    sizes = ESTIMATE_N_QUICK if quick else ESTIMATE_N
    case = _cases()[wname]

    harness, fr = run_isolated(
        lambda: _WorkloadHarness(case, estimate_n=sizes[case.suite],
                                 engine=job["engine"]),
        label=f"{wname} baseline", timeout=timeout)
    if fr is not None:
        return {"workload": wname, "baseline_fault": fr.to_dict(),
                "cells": []}

    cells: list[dict] = []
    todo = [s for s in plans if s not in skip]
    for sname, plan in plans.items():
        if sname in skip:
            cells.append({"scenario": sname, "resumed": True})
            continue
        cell, fr = run_isolated(
            lambda plan=plan, last=sname == todo[-1]:
                run_cell(harness, plan, last_in_row=last),
            label=f"{wname}:{sname}", timeout=timeout)
        if fr is not None:
            cells.append({"scenario": sname, "run": None,
                          "fault": fr.to_dict()})
        else:
            cells.append({"scenario": sname, "run": cell.to_dict(),
                          "fault": None})
    return {"workload": wname, "baseline_fault": None, "cells": cells}


def run_sweep(workloads: Sequence[str] | None = None,
              scenarios: Sequence[str] | None = None, *,
              quick: bool = False,
              timeout: Optional[float] = None,
              journal=None,
              progress: Optional[Callable[[str], None]] = None,
              jobs: int = 1,
              engine: str = DEFAULT_ENGINE) -> dict:
    """Run the fault matrix; returns the ``repro-faults/1`` payload.

    Each cell runs crash-isolated under ``timeout``; a crashed or hung
    cell becomes a :class:`FaultReport` in the payload (and fails the
    sweep) instead of killing it.  ``journal`` is an optional
    :class:`repro.faults.harness.SweepJournal` for checkpoint/resume.

    ``jobs`` fans workloads out over worker processes (the harness — one
    restructure + healthy baseline per workload — is the natural unit of
    shared state).  Serial and parallel runs share one code path and one
    deterministic merge order, so payloads are byte-identical.  ``engine``
    is the interpreter engine of every run, baselines included; payloads
    do not depend on it.
    """
    say = progress or (lambda msg: None)
    # a name given twice is one row or column, where it first appears
    names = list(dict.fromkeys(
        workloads if workloads is not None
        else (QUICK_WORKLOADS if quick else SWEEP_WORKLOADS)))
    if scenarios is not None:
        scenarios = list(dict.fromkeys(scenarios))
    plans = _resolve_plans(quick, scenarios)
    scenario_names = list(plans)

    cases = _cases()
    unknown = [n for n in names if n not in cases]
    if unknown:
        raise ReproError(f"unknown workload(s): {', '.join(unknown)}")

    from repro.engine.parallel import parallel_map

    jobs_list = []
    for wname in names:
        done = [s for s in scenario_names
                if journal is not None and f"{wname}:{s}" in journal]
        jobs_list.append({
            "workload": wname, "quick": quick, "timeout": timeout,
            "engine": engine,
            "scenario_override": (list(scenarios)
                                  if scenarios is not None else None),
            "skip": done,
        })

    runs: list[dict] = []
    faults: list[dict] = []
    from repro.telemetry.log import get_logger

    log = get_logger("faults.sweep")

    def merge(i: int, res) -> None:
        wname = jobs_list[i]["workload"]
        fd = res.to_dict() if isinstance(res, FaultReport) \
            else res["baseline_fault"]
        if fd is not None:
            faults.append(fd)
            say(f"[{wname}] FAULT ({fd['kind']}) {fd['message']}")
            log.warning("baseline_fault", workload=wname,
                        kind=fd["kind"], message=fd["message"])
            return
        for cell in res["cells"]:
            key = f"{wname}:{cell['scenario']}"
            if cell.get("resumed"):
                runs.append(journal.payload(key))
                say(f"[{key}] resumed from journal")
                continue
            if cell["fault"] is not None:
                fd = cell["fault"]
                faults.append(fd)
                say(f"[{key}] FAULT ({fd['kind']}) {fd['message']}")
                continue
            rd = cell["run"]
            if journal is not None:
                journal.record(key, rd)
            runs.append(rd)
            status = "ok" if rd["ok"] else (
                "FAIL " + ",".join(c for c in CHECKS
                                   if not rd["checks"].get(c)))
            say(f"[{key}] x{rd['degradation']:.3f} "
                f"(bound x{rd['bound']:.2f}) {status}")
            log.info("cell_done", workload=wname,
                     scenario=cell["scenario"], ok=rd["ok"],
                     degradation=rd["degradation"])

    parallel_map(run_fault_workload, jobs_list, jobs,
                 labels=[f"{j['workload']} baseline" for j in jobs_list],
                 on_result=merge)

    expected = len(names) * len(plans)
    n_ok = sum(1 for r in runs if r["ok"])
    return {
        "schema": SCHEMA_TAG,
        "quick": quick,
        "machine": "cedar_config1",
        "workloads": names,
        "scenarios": {s: p.to_dict() for s, p in plans.items()},
        "runs": runs,
        "faults": faults,
        "summary": {
            "cells_expected": expected,
            "cells_run": len(runs),
            "ok": n_ok,
            "failed": len(runs) - n_ok,
            "harness_faults": len(faults),
            "checks_failed": {
                c: sum(1 for r in runs if not r["checks"].get(c, False))
                for c in CHECKS
            },
        },
    }
