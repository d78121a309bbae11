"""One exit-code convention across every sweep-shaped CLI.

``repro.experiments``, ``repro.validate`` and ``repro.faults sweep`` all
promise the same map::

    0  ok
    1  rejected input / failed validation / failed oracle check
    2  usage error
    3  internal fault (crashed tool, watchdog, lost worker)

This test drives each tool through each outcome in-process;
``repro.experiments``'s exit 1 is a ``--source`` file the linter
rejects.  A crash is isolated alike at every job count: the run still
writes its payload, with the crash as a fault record.
"""

import json

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
    import repro.faults.sweep as sweep

    def fake_workload(job):
        run = FaultRun(workload=job["workload"], scenario="healthy",
                       checks={c: False for c in CHECKS}).to_dict()
        return {"workload": job["workload"], "baseline_fault": None,
                "cells": [{"scenario": "healthy", "run": run,
                           "fault": None}]}

    monkeypatch.setattr(sweep, "run_fault_workload", fake_workload)
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


@pytest.mark.parametrize("tool", ["lint", "experiments"])
def test_a_non_ascii_digit_is_rejected_input(tool, tmp_path, capsys):
    """``x = 2²`` is a lexical error of the input (exit 1), not a crash
    of the front end (exit 3)."""
    src = tmp_path / "digit.f"
    src.write_text("      program p\n      x = 2\u00b2\n      end\n",
                   encoding="utf-8")
    if tool == "lint":
        from repro.lint.__main__ import main
        argv = [str(src)]
    else:
        from repro.experiments.__main__ import main
        argv = ["--source", str(src), "--quick"]
    assert _run(main, argv) == 1
    captured = capsys.readouterr()
    assert "unexpected character '\u00b2'" in captured.out + captured.err


# ---------------------------------------------------------------------------
# the same crash, the same outcome, at either job count


def _boom(*args, **kwargs):
    raise RuntimeError("injected crash")


def _crashing_experiments(jobs, tmp_path, monkeypatch, capsys):
    import repro.experiments.worker as worker
    from repro.experiments.__main__ import main

    monkeypatch.setitem(worker.ALL_EXPERIMENTS, "table1", _boom)
    rc = _run(main, ["table1", "fig6", "--quick", "--json",
                     "--jobs", str(jobs)])
    payload = json.loads(capsys.readouterr().out)
    assert list(payload["experiments"]) == ["fig6"]
    return rc, payload["faults"]


def _crashing_validate(jobs, tmp_path, monkeypatch, capsys):
    import repro.validate.worker as worker
    from repro.validate.__main__ import main

    monkeypatch.setattr(worker, "validate_workload", _boom)
    out = tmp_path / f"v{jobs}.json"
    rc = _run(main, ["tridag", "cg", "--no-bisect", "--jobs", str(jobs),
                     "-o", str(out)])
    return rc, json.loads(out.read_text())["faults"]


def _crashing_faults(jobs, tmp_path, monkeypatch, capsys):
    import repro.faults.sweep as sweep
    from repro.faults.__main__ import main

    monkeypatch.setattr(sweep, "_WorkloadHarness", _boom)
    out = tmp_path / f"f{jobs}.json"
    rc = _run(main, ["sweep", "--quick", "--workloads", "tridag", "cg",
                     "--scenarios", "healthy", "--jobs", str(jobs),
                     "-o", str(out)])
    return rc, json.loads(out.read_text())["faults"]


CRASHING = {"experiments": (_crashing_experiments, 1),
            "validate": (_crashing_validate, 2),
            "faults": (_crashing_faults, 2)}


@pytest.mark.parametrize("tool", sorted(CRASHING))
def test_crash_outcome_is_independent_of_job_count(tool, tmp_path,
                                                   monkeypatch, capsys):
    """A raising driver exits 3 with its payload written at ``--jobs 1``
    and ``--jobs 2``, and the fault records agree but for timing and
    traceback text."""
    run, n_faults = CRASHING[tool]
    records = []
    for jobs in (1, 2):
        rc, faults = run(jobs, tmp_path, monkeypatch, capsys)
        assert rc == 3, f"{tool} --jobs {jobs}: exit {rc}"
        assert len(faults) == n_faults
        assert all(fd["kind"] == "internal"
                   and fd["error_type"] == "RuntimeError"
                   and fd["message"] == "injected crash" for fd in faults)
        records.append([{k: v for k, v in fd.items()
                         if k not in ("elapsed_s", "traceback")}
                        for fd in faults])
    assert records[0] == records[1]


# ---------------------------------------------------------------------------
# a --timeout no watchdog can arm is a usage error, not a fault per cell
# (or, for the server, a failure of every request)


def _refuse_service(*args, **kwargs):
    raise AssertionError("the server started with an unusable --timeout")


def _timeout_experiments(value, tmp_path, monkeypatch):
    from repro.experiments.__main__ import main

    return _run(main, ["table1", "--quick", f"--timeout={value}"])


def _timeout_validate(value, tmp_path, monkeypatch):
    from repro.validate.__main__ import main

    return _run(main, ["tridag", "--no-bisect", f"--timeout={value}",
                       "-o", str(tmp_path / "v.json")])


def _timeout_faults(value, tmp_path, monkeypatch):
    from repro.faults.__main__ import main

    return _run(main, ["sweep", "--workloads", "tridag", "--scenarios",
                       "healthy", f"--timeout={value}"])


def _timeout_server(value, tmp_path, monkeypatch):
    import repro.server.service as service
    from repro.server.__main__ import main

    # its default_timeout_s reaches the same watchdog, per request
    monkeypatch.setattr(service, "RestructurerService", _refuse_service)
    return _run(main, ["--port", "0", f"--timeout={value}"])


TIMEOUTS = {"experiments": _timeout_experiments,
            "validate": _timeout_validate, "faults": _timeout_faults,
            "server": _timeout_server}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("tool", sorted(TIMEOUTS))
def test_non_finite_timeout_is_a_usage_error(tool, value, tmp_path,
                                             monkeypatch, capsys):
    rc = TIMEOUTS[tool](value, tmp_path, monkeypatch)
    assert rc == 2, f"{tool} --timeout={value}: exit {rc}"
    assert "not a finite number of seconds" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-10", "-1", "-0.5"])
@pytest.mark.parametrize("tool", sorted(TIMEOUTS))
def test_negative_timeout_is_a_usage_error(tool, value, tmp_path,
                                           monkeypatch, capsys):
    """A negative budget is no budget the watchdog can arm: between -5
    and 0 it switched the watchdog off, and the server's supervisor
    turned any negative one into a failure of every request."""
    rc = TIMEOUTS[tool](value, tmp_path, monkeypatch)
    assert rc == 2, f"{tool} --timeout={value}: exit {rc}"
    assert "argument --timeout:" in capsys.readouterr().err


def test_zero_timeout_still_means_no_budget():
    from repro.experiments.common import finite_seconds

    assert finite_seconds("0") == 0.0
    assert finite_seconds("1e-6") == 1e-6


# ---------------------------------------------------------------------------
# repro.validate refuses the numbers its own payload contract refuses


@pytest.mark.parametrize("flags", [
    ["--processors", "0"],
    ["--processors", "2", "-3"],
    ["--seeds", "-1"],
    ["--atol", "nan"],
    ["--atol", "inf"],
    ["--rtol=-1e-3"],
], ids=lambda flags: " ".join(flags))
def test_validate_refuses_out_of_contract_numbers(flags, tmp_path, capsys):
    from repro.validate.__main__ import main

    rc = _run(main, ["tridag", "--no-bisect", *flags,
                     "-o", str(tmp_path / "v.json")])
    assert rc == 2, f"validate {' '.join(flags)}: exit {rc}"
    flag = flags[0].split("=")[0]
    assert f"argument {flag}:" in capsys.readouterr().err
    assert not (tmp_path / "v.json").exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_fuzz_refuses_a_count_that_checks_nothing(count, capsys):
    """``--check`` over no programs would report "0/0 passed" and exit 0."""
    from repro.fortran.fuzz import main

    rc = _run(main, ["--seed", "1", "--count", count, "--check"])
    assert rc == 2, f"fuzz --count {count}: exit {rc}"
    captured = capsys.readouterr()
    assert "argument --count:" in captured.err
    assert "passed" not in captured.out


def test_fuzz_refuses_a_negative_seed(capsys):
    """A negative seed would name the unit ``fzx-004``, which is not a
    Fortran name, so ``--check`` failed and blamed the front end."""
    from repro.fortran.fuzz import main

    rc = _run(main, ["--seed", "-4", "--mode", "executable", "--check"])
    assert rc == 2, f"fuzz --seed -4: exit {rc}"
    captured = capsys.readouterr()
    assert "argument --seed:" in captured.err
    assert "passed" not in captured.out
