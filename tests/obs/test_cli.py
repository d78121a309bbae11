"""``python -m repro.telemetry explain``: the CLI over repro.obs.explain."""

import json

import pytest

from repro.telemetry.__main__ import main


class TestExplain:
    def _session(self, tmp_path, spans):
        d = tmp_path / "telem"
        d.mkdir()
        (d / "metrics.json").write_text(json.dumps(
            {"schema": "repro-metrics/1", "spans": spans}))
        return str(d)

    def test_table_and_json(self, tmp_path, capsys):
        d = self._session(tmp_path, [
            {"name": "cell", "cell": 0,
             "attrs": {"label": "validate tridag"}, "pid": 1,
             "duration_s": 1.0, "queue_delay_s": 0.01}])
        assert main(["explain", d]) == 0
        assert "validate tridag" in capsys.readouterr().out
        assert main(["explain", d, "--json", "--cell", "0"]) == 0
        [row] = json.loads(capsys.readouterr().out)
        assert row["cell"] == 0

    def test_sweep_join(self, tmp_path, capsys):
        d = self._session(tmp_path, [
            {"name": "cell", "cell": 0,
             "attrs": {"label": "validate tridag"}, "pid": 1,
             "duration_s": 1.0}])
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({
            "schema": "repro-validate/1",
            "workloads": [{"workload": "tridag", "configs": [
                {"config": "restructured", "status": "ok"}]}]}))
        assert main(["explain", d, "--sweep", str(sweep),
                     "--cell", "0"]) == 0
        assert "validate tridag -> ok" in capsys.readouterr().out

    def test_missing_session_is_usage_error(self, tmp_path, capsys):
        assert main(["explain", str(tmp_path)]) == 2
        assert "no metrics.json" in capsys.readouterr().err


class TestUsage:
    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
