"""One exit-code convention across every sweep-shaped CLI.

``repro.experiments``, ``repro.validate`` and ``repro.faults sweep`` all
promise the same map::

    0  ok
    1  rejected input / failed validation / failed oracle check
    2  usage error
    3  internal fault (crashed tool, watchdog, lost worker)

This test drives each tool through each outcome in-process;
``repro.experiments``'s exit 1 is a ``--source`` file the linter
rejects.
"""

import pytest

from repro.faults.sweep import CHECKS, FaultRun


def _run(main, argv):
    """An argparse usage error raises SystemExit(2); normalize it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# per-tool drivers, one per (tool, outcome) pair


def _experiments(outcome, tmp_path, monkeypatch):
    from repro.experiments.__main__ import main

    if outcome == "ok":
        return _run(main, ["table1", "--quick", "--json"])
    if outcome == "usage":
        return _run(main, ["no-such-experiment"])
    if outcome == "crash":
        return _run(main, ["table1", "--quick", "--json",
                           "--timeout", "0.000001"])
    # regression: the lint gate of the ingestion front door says no
    bad = tmp_path / "bad.f"
    bad.write_text("      program bad\n      x = ((1\n      end\n")
    return _run(main, ["--source", str(bad), "--quick"])


def _validate(outcome, tmp_path, monkeypatch):
    import repro.validate.__main__ as vmain

    out = str(tmp_path / "v.json")
    if outcome == "ok":
        return _run(vmain.main, ["tridag", "--no-bisect", "-o", out])
    if outcome == "usage":
        return _run(vmain.main, ["no-such-workload"])
    if outcome == "crash":
        return _run(vmain.main, ["tridag", "--no-bisect",
                                 "--timeout", "0.000001", "-o", out])
    # regression: a worker reporting divergent configs (no crash)
    def fake_cell(job):
        return {"workload": job["workload"], "fault": None, "dict": {
            "workload": job["workload"],
            "configs": [{"config": name, "status": "divergent",
                         "parallel_loops": 1, "loops_checked": 1,
                         "divergences": [], "races": [],
                         "culprit_pass": None, "error": None}
                        for name in job["configs"]],
        }}

    monkeypatch.setattr(vmain, "run_workload_cell", fake_cell)
    return _run(vmain.main, ["tridag", "--no-bisect", "-o", out])


def _faults(outcome, tmp_path, monkeypatch):
    from repro.faults.__main__ import main

    base = ["sweep", "--quick", "--workloads", "tridag",
            "--scenarios", "healthy", "-o", str(tmp_path / "f.json")]
    if outcome == "ok":
        return _run(main, base)
    if outcome == "usage":
        return _run(main, ["sweep", "--workloads", "no-such-workload"])
    if outcome == "crash":
        return _run(main, base + ["--timeout", "0.000001"])
    # regression: a cell whose oracle checks all fail (no crash)
    import repro.faults.worker as worker

    def fake_workload(job):
        run = FaultRun(workload=job["workload"], scenario="healthy",
                       checks={c: False for c in CHECKS}).to_dict()
        return {"workload": job["workload"], "baseline_fault": None,
                "cells": [{"scenario": "healthy", "run": run,
                           "fault": None}]}

    monkeypatch.setattr(worker, "run_fault_workload", fake_workload)
    return _run(main, base)


TOOLS = {"experiments": _experiments, "validate": _validate,
         "faults": _faults}

EXPECTED = {"ok": 0, "regression": 1, "usage": 2, "crash": 3}


@pytest.mark.parametrize("tool", sorted(TOOLS))
@pytest.mark.parametrize("outcome", sorted(EXPECTED))
def test_shared_exit_code_map(tool, outcome, tmp_path, monkeypatch,
                              capsys):
    rc = TOOLS[tool](outcome, tmp_path, monkeypatch)
    assert rc == EXPECTED[outcome], \
        f"{tool} {outcome}: expected {EXPECTED[outcome]}, got {rc}"
