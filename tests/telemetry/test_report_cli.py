"""``python -m repro.telemetry report`` — the one reader — and the
artifact validator's CLI over a telemetry session."""

import json

import pytest

from repro import telemetry
from repro.telemetry.__main__ import main
from repro.telemetry.export import merge_dir


def _session(tmp_path, cells=2):
    """A flushed but never finalized session: shards only."""
    telemetry.configure(tmp_path)
    for i in range(cells):
        with telemetry.cell_span(i, f"validate w{i}"):
            with telemetry.span("parse"):
                pass
            with telemetry.span("execute"):
                pass
    telemetry.flush()
    telemetry.shutdown(flush_shard=False)
    return tmp_path


def _artifact(tmp_path, spans):
    d = tmp_path / "telem"
    d.mkdir()
    (d / "metrics.json").write_text(json.dumps(
        {"schema": "repro-metrics/1", "spans": spans}))
    return str(d)


class TestValidate:
    """``scripts/validate_experiment_json.py`` is the one validator CLI;
    its exit map: 0 valid, 1 violations, 2 unreadable input."""

    def test_valid_artifact_passes(self, tmp_path, capsys, validator):
        merge_dir(_session(tmp_path))
        assert validator.main(
            ["validate", str(tmp_path / "metrics.json")]) == 0
        assert "conform to repro-metrics/1" in capsys.readouterr().out

    def test_corrupt_artifact_fails(self, tmp_path, capsys, validator):
        merge_dir(_session(tmp_path))
        doc = json.loads((tmp_path / "metrics.json").read_text())
        doc["summary"]["cells"] = 99
        (tmp_path / "metrics.json").write_text(json.dumps(doc))
        assert validator.main(
            ["validate", str(tmp_path / "metrics.json")]) == 1
        assert "violation" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, tmp_path, capsys,
                                         validator):
        assert validator.main(["validate", str(tmp_path / "nope")]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert validator.main(["validate"]) == 2
        assert "usage:" in capsys.readouterr().err


class TestSummary:
    def test_report_renders_sections(self, tmp_path, capsys):
        _session(tmp_path)
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry report — trace" in out
        assert "cell latency: p50" in out
        assert "per-stage time breakdown" in out
        assert "parse" in out and "execute" in out
        assert "slowest cell(s)" in out
        assert "worker utilization" in out
        assert "per-cell attribution" in out
        # the raw shard directory was merged on the way in
        assert (tmp_path / "metrics.json").exists()
        assert not list(tmp_path.glob("spans-*.jsonl"))

    def test_report_accepts_metrics_json_file(self, tmp_path, capsys):
        merge_dir(_session(tmp_path))
        assert main(["report", str(tmp_path / "metrics.json"),
                     "--top", "1"]) == 0
        assert "top 1 slowest cell(s)" in capsys.readouterr().out

    def test_cell_latency_is_exact_order_statistic(self, tmp_path,
                                                   capsys):
        """p50 is the nearest-rank median of the cell spans, not a
        bucket edge of some histogram."""
        from repro.telemetry.report import _fmt_s

        payload = merge_dir(_session(tmp_path, cells=6))
        durations = sorted(s["duration_s"] for s in payload["spans"]
                           if s["name"] == "cell")
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"p50 {_fmt_s(durations[2]).strip()}  p90 " \
            f"{_fmt_s(durations[5]).strip()}" in out


class TestPerCell:
    def test_table_and_json(self, tmp_path, capsys):
        d = _artifact(tmp_path, [
            {"name": "cell", "cell": 0,
             "attrs": {"label": "validate tridag"}, "pid": 1,
             "duration_s": 1.0, "queue_delay_s": 0.01}])
        assert main(["report", d]) == 0
        assert "validate tridag" in capsys.readouterr().out
        assert main(["report", d, "--json", "--cell", "0"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["cell"] == 0

    def test_sweep_join(self, tmp_path, capsys):
        d = _artifact(tmp_path, [
            {"name": "cell", "cell": 0,
             "attrs": {"label": "validate tridag"}, "pid": 1,
             "duration_s": 1.0}])
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "schema": "repro-validate/1",
            "workloads": [{"workload": "tridag", "configs": [
                {"config": "restructured", "status": "ok"}]}]}))
        assert main(["report", d, "--sweep", str(sweep),
                     "--cell", "0"]) == 0
        assert "validate tridag -> ok" in capsys.readouterr().out

    def test_cell_view_on_a_shard_only_directory(self, tmp_path, capsys):
        """The "why" view of a crashed sweep: the directory holds only
        ``spans-<pid>.jsonl`` / ``metrics-<pid>.json`` shards, and the
        per-cell detail still renders."""
        _session(tmp_path)
        assert not (tmp_path / "metrics.json").exists()
        assert list(tmp_path.glob("spans-*.jsonl"))
        assert main(["report", str(tmp_path), "--cell", "1"]) == 0
        out = capsys.readouterr().out
        assert "cell 1: validate w1" in out
        assert "host stages:" in out and "verdict:" in out


class TestUsage:
    def test_missing_session_is_usage_error(self, tmp_path, capsys):
        assert main(["report", str(tmp_path)]) == 2
        assert "no metrics.json" in capsys.readouterr().err

    def test_invalid_json_exits_1(self, tmp_path, capsys):
        (tmp_path / "metrics.json").write_text("{nope")
        assert main(["report", str(tmp_path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("gone", ["explain", "merge"])
    def test_retired_subcommands_are_usage_errors(self, gone, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([gone, str(tmp_path)])
        assert exc.value.code == 2
