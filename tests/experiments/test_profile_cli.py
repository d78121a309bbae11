"""The ``--profile DIR`` CLI path: artifacts exist, validate, and render."""

import io
import json
import sys

import pytest

from repro.experiments.__main__ import main


@pytest.fixture(scope="module")
def profile_artifacts(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("prof")
    old, sys.stdout = sys.stdout, io.StringIO()
    try:
        assert main(["table1", "--quick", "--profile", str(outdir)]) == 0
    finally:
        sys.stdout = old
    return outdir


class TestProfileCli:
    def test_writes_both_artifacts(self, profile_artifacts):
        assert (profile_artifacts / "table1.trace.json").exists()
        assert (profile_artifacts / "table1.profile.json").exists()

    def test_profile_doc_validates(self, profile_artifacts, validator):
        doc = json.loads(
            (profile_artifacts / "table1.profile.json").read_text())
        assert validator.validate(doc) == []
        assert doc["schema"] == "repro-profile/1"
        assert doc["quick"] is True

    def test_trace_is_chrome_format(self, profile_artifacts):
        doc = json.loads(
            (profile_artifacts / "table1.trace.json").read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases <= {"X", "M"}
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_gantt_cli_renders_trace(self, profile_artifacts, capsys):
        from repro.prof.__main__ import main as prof_main

        trace = profile_artifacts / "table1.trace.json"
        assert prof_main(["gantt", str(trace), "--pid", "2"]) == 0
        out = capsys.readouterr().out
        assert "CE " in out

    def test_report_cli_renders_profile(self, profile_artifacts, capsys):
        from repro.prof.__main__ import main as prof_main

        profile = profile_artifacts / "table1.profile.json"
        assert prof_main(["report", str(profile)]) == 0
        out = capsys.readouterr().out
        assert "table1/" in out and "total" in out
