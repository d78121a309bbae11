"""The repro.faults CLI and the shared exit-code convention."""

import json

import pytest

from repro.faults.__main__ import main


def test_list_exits_zero(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "chaos" in out and "healthy" in out


def test_unknown_scenario_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenarios", "meteor-strike"])
    assert exc.value.code == 2


def test_unknown_workload_is_usage_error(capsys):
    assert main(["sweep", "--workloads", "nope", "--scenarios",
                 "healthy"]) == 2
    assert "unknown workload" in capsys.readouterr().err


def test_quick_cell_sweep_ok(tmp_path, capsys):
    out = tmp_path / "faults.json"
    rc = main(["sweep", "--quick", "--workloads", "tridag",
               "--scenarios", "healthy", "dead-ce", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "repro-faults/1"
    assert payload["summary"]["ok"] == 2
    assert "fault sweep: 2/2 cells" in capsys.readouterr().out


def test_json_goes_to_stdout(capsys):
    rc = main(["sweep", "--quick", "--workloads", "tridag",
               "--scenarios", "healthy", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "repro-faults/1"


def test_repeated_names_are_one_cell(tmp_path, validator):
    """A workload or scenario named twice is one row or column: one
    cell, listed once, and the payload passes its own validator."""
    out = tmp_path / "dup.json"
    rc = main(["sweep", "--quick", "--workloads", "tridag", "tridag",
               "--scenarios", "healthy", "healthy", "-o", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert validator.validate(payload) == []
    assert payload["workloads"] == ["tridag"]
    assert list(payload["scenarios"]) == ["healthy"]
    assert [(r["workload"], r["scenario"]) for r in payload["runs"]] \
        == [("tridag", "healthy")]
    assert payload["summary"]["cells_run"] \
        == payload["summary"]["cells_expected"] == 1
