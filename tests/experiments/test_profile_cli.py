"""The ``--profile DIR`` CLI path: artifacts exist, validate, and render."""

import io
import json
import sys

import pytest

from repro.experiments.__main__ import main
from repro.trace.__main__ import main as trace_main


@pytest.fixture(scope="module")
def profile_artifacts(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("prof")
    old, sys.stdout = sys.stdout, io.StringIO()
    try:
        assert main(["table1", "--quick", "--profile", str(outdir)]) == 0
    finally:
        sys.stdout = old
    return outdir


@pytest.fixture(scope="module")
def session():
    """The same run, profiled in memory."""
    from repro.experiments import table1
    from repro.experiments.common import profiled

    with profiled("table1") as s:
        table1.run(quick=True)
    return s


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

    def test_gantt_from_file_is_the_sessions(self, profile_artifacts,
                                             session, capsys):
        from repro.trace.profile import render_gantt

        profile = str(profile_artifacts / "table1.profile.json")
        assert trace_main(["gantt", profile]) == 0
        loops = [rec for run in session.runs for rec in run.timeline]
        assert loops
        assert capsys.readouterr().out == render_gantt(loops) + "\n"
        # --pid N is the N-th run (Perfetto's process N)
        pid, run = next((i, r) for i, r in enumerate(session.runs, 1)
                        if len(r.timeline))
        assert trace_main(["gantt", profile, "--pid", str(pid)]) == 0
        assert capsys.readouterr().out == render_gantt(run.timeline) + "\n"

    def test_report_from_file_is_the_sessions(self, profile_artifacts,
                                              session, capsys):
        from repro.trace.profile import render_utilization

        profile = str(profile_artifacts / "table1.profile.json")
        assert trace_main(["report", profile]) == 0
        expected = "".join(
            f"== table1/{run.workload} [{run.role}]  "
            f"total {run.total_cycles:,.0f} cyc\n"
            f"{render_utilization(run.timeline)}\n\n"
            for run in session.runs)
        assert capsys.readouterr().out == expected

    def test_unreadable_profile_is_a_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert trace_main(["report", str(bad)]) == 2
        assert trace_main(["gantt", str(tmp_path / "missing.json")]) == 2
        capsys.readouterr()
