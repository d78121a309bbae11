"""The ``python -m repro.telemetry`` CLI (report, merge) and the artifact
validator's CLI over a telemetry session."""

import json

from repro import telemetry
from repro.telemetry.__main__ import main


def _session(tmp_path, cells=2):
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


class TestMerge:
    def test_merge_folds_shards(self, tmp_path, capsys):
        _session(tmp_path)
        assert main(["merge", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "2 cell(s)" in out
        assert (tmp_path / "metrics.json").exists()
        assert not list(tmp_path.glob("spans-*.jsonl"))


class TestValidate:
    """``scripts/validate_experiment_json.py`` is the one validator CLI;
    its exit map: 0 valid, 1 violations, 2 unreadable input."""

    def test_valid_artifact_passes(self, tmp_path, capsys, validator):
        _session(tmp_path)
        main(["merge", str(tmp_path)])
        assert validator.main(
            ["validate", str(tmp_path / "metrics.json")]) == 0
        assert "conform to repro-metrics/1" in capsys.readouterr().out

    def test_corrupt_artifact_fails(self, tmp_path, capsys, validator):
        _session(tmp_path)
        main(["merge", str(tmp_path)])
        capsys.readouterr()
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


class TestReport:
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

    def test_report_accepts_metrics_json_file(self, tmp_path, capsys):
        _session(tmp_path)
        main(["merge", str(tmp_path)])
        capsys.readouterr()
        assert main(["report", str(tmp_path / "metrics.json"),
                     "--top", "1"]) == 0
        assert "top 1 slowest cell(s)" in capsys.readouterr().out

    def test_cell_latency_is_exact_order_statistic(self, tmp_path,
                                                   capsys):
        """p50 is the nearest-rank median of the cell spans, not an
        edge of the repro_cell_seconds histogram's buckets."""
        from repro.telemetry.report import _fmt_s

        _session(tmp_path, cells=6)
        payload = telemetry.merge_dir(tmp_path)
        durations = sorted(s["duration_s"] for s in payload["spans"]
                           if s["name"] == "cell")
        assert main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"p50 {_fmt_s(durations[2]).strip()}  p90 " \
            f"{_fmt_s(durations[5]).strip()}" in out
