"""Picklable per-workload cell for the parallel fault-sweep driver.

One cell = one workload's full scenario row: the harness (restructure +
healthy estimate + sequential baseline) is built once, then every
non-journaled scenario runs crash-isolated against it.  Workers return
JSON-shaped records only — printing and journaling stay in the parent
so serial and parallel sweeps emit byte-identical payloads.
"""

from __future__ import annotations


def run_fault_workload(job: dict) -> dict:
    """Run one workload row of the fault matrix.

    ``job`` keys: workload, quick (bool), timeout, engine,
    scenario_override (list of scenario names or None), skip (scenario
    names already in the parent's journal).  Returns::

        {"workload": str,
         "baseline_fault": fault-dict | None,
         "cells": [{"scenario": str, "resumed": True}
                   | {"scenario": str, "run": run-dict, "fault": None}
                   | {"scenario": str, "run": None, "fault": fault-dict},
                   ...]}

    Cells appear in scenario-matrix order; journaled scenarios become
    ``resumed`` placeholders the parent replaces from its journal.
    """
    from repro.faults.harness import run_isolated
    from repro.faults.sweep import (ESTIMATE_N, ESTIMATE_N_QUICK,
                                    _resolve_plans, _synthetic_cases,
                                    _WorkloadHarness, run_cell)
    from repro.workloads import validation_cases

    wname = job["workload"]
    quick = job["quick"]
    timeout = job["timeout"]
    skip = set(job["skip"])
    plans = _resolve_plans(quick, job["scenario_override"])
    sizes = ESTIMATE_N_QUICK if quick else ESTIMATE_N

    cases = validation_cases()
    cases.update(_synthetic_cases())
    case = cases[wname]

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
