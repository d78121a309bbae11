"""repro.telemetry.report: the cross-layer "why was this cell slow, or
wrong" join and its rendering."""

import json

import pytest

from repro.telemetry import report
from repro.telemetry.export import load_session


def cell_span(cell, label, duration=1.0, queue=None, cache=None,
              error=None, pid=100):
    s = {"name": "cell", "cell": cell, "attrs": {"label": label},
         "pid": pid, "duration_s": duration}
    if queue is not None:
        s["queue_delay_s"] = queue
    if cache is not None:
        s["cache"] = cache
    if error is not None:
        s["error"] = error
    return s


def stage_span(cell, name, duration):
    return {"name": name, "cell": cell, "pid": 100,
            "duration_s": duration}


def metrics_payload(spans):
    return {"schema": "repro-metrics/1", "spans": spans}


EXPERIMENT_SWEEP = {
    "schema": "repro-experiment/1",
    "experiments": {"table1": {"meta": {"trace": {
        "tridag": {
            "speedup": 3.5, "parallel_cycles": 1000.0,
            "parallel_breakdown": {"total": 1000.0, "groups": {
                "processor": {"total": 300.0},
                "parallel_overhead": {"total": 600.0},
                "memory": {"total": 100.0},
            }},
        },
    }}}},
}

VALIDATE_SWEEP = {
    "schema": "repro-validate/1",
    "workloads": [{"workload": "tridag", "configs": [
        {"config": "restructured", "status": "ok"},
        {"config": "faulted", "status": "mismatch"},
    ]}],
}

FAULTS_SWEEP = {
    "schema": "repro-faults/1",
    "runs": [{"workload": "tridag", "scenario": "dead-ce",
              "degradation": 2.0, "bound": 2.5,
              "fault_cycles": 50.0, "ok": True}],
    "faults": [{"label": "tridag baseline", "kind": "worker_crash",
                "error_type": "RuntimeError", "message": "kaput"}],
}


class TestJoins:
    def test_experiment_join_folds_ledger_groups(self):
        sim = report._join_sim(EXPERIMENT_SWEEP, "experiment table1")
        assert sim["kind"] == "experiment"
        assert sim["parallel_cycles"] == 1000.0
        assert sim["groups"]["parallel_overhead"] == 600.0
        assert sim["workloads"]["tridag"]["speedup"] == 3.5

    def test_validate_join(self):
        sim = report._join_sim(VALIDATE_SWEEP, "validate tridag")
        assert sim == {"kind": "validate", "workload": "tridag",
                       "configs": {"restructured": "ok",
                                   "faulted": "mismatch"},
                       "ok": False}

    def test_faults_join(self):
        sim = report._join_sim(FAULTS_SWEEP, "tridag baseline")
        assert sim["kind"] == "faults"
        assert sim["runs"][0]["degradation"] == 2.0

    def test_label_schema_mismatch_yields_none(self):
        # a validate label against an experiment payload must not join
        assert report._join_sim(EXPERIMENT_SWEEP,
                                 "validate tridag") is None
        assert report._join_sim(VALIDATE_SWEEP,
                                 "experiment table1") is None
        assert report._join_sim(None, "validate tridag") is None

    def test_cell_faults_matched_by_label(self):
        assert report._cell_faults(FAULTS_SWEEP, "tridag baseline") \
            == [{"kind": "worker_crash", "error_type": "RuntimeError",
                 "message": "kaput"}]
        assert report._cell_faults(FAULTS_SWEEP, "other cell") == []

    def test_scenario_fault_reaches_its_row(self):
        """A fault-sweep row runs its scenarios inside the one
        ``<workload> baseline`` cell; a scenario that timed out is
        filed as ``<workload>:<scenario>`` and belongs to that cell —
        and to no other row's."""
        sweep = dict(FAULTS_SWEEP, faults=[
            {"label": "cg:dead-ce", "kind": "timeout",
             "error_type": "BudgetExceededError", "message": "30s"}])
        [fd] = report._cell_faults(sweep, "cg baseline")
        assert fd["kind"] == "timeout"
        assert report._cell_faults(sweep, "cgx baseline") == []
        assert report._cell_faults(sweep, "tridag baseline") == []
        payload = metrics_payload([cell_span(0, "cg baseline")])
        [row] = report.correlate(payload, sweep)
        assert "1 harness fault(s)" in report.slow_reason(row)
        assert "harness fault: (timeout)" in report.render_cell(row)

    def test_fault_label_is_not_prefix_matched(self):
        """``validate cg`` faulted; ``validate cgx`` merely starts with
        the same text and must stay clean."""
        sweep = {"schema": "repro-validate/1", "workloads": [],
                 "faults": [{"label": "validate cg", "kind": "internal",
                             "error_type": "KeyError", "message": "x"}]}
        assert report._cell_faults(sweep, "validate cg")
        assert report._cell_faults(sweep, "validate cgx") == []
        # a scenario-shaped label only counts on a fault-sweep payload
        sweep["faults"][0]["label"] = "cg:dead-ce"
        assert report._cell_faults(sweep, "cg baseline") == []


class TestCorrelate:
    def test_rows_ordered_with_stages_folded(self):
        payload = metrics_payload([
            cell_span(1, "validate b", duration=2.0),
            cell_span(0, "validate a", duration=1.0,
                      cache={"hits": 3, "misses": 1}),
            stage_span(0, "parse", 0.2),
            stage_span(0, "parse", 0.3),
            stage_span(0, "restructure", 0.4),
        ])
        rows = report.correlate(payload)
        assert [r["cell"] for r in rows] == [0, 1]
        assert rows[0]["stages"]["parse"] \
            == {"count": 2, "total_s": 0.5}
        assert rows[0]["cache"] == {"hits": 3, "misses": 1}
        assert rows[1]["stages"] == {}

    def test_sim_and_faults_attached(self):
        payload = metrics_payload([cell_span(0, "tridag baseline")])
        [row] = report.correlate(payload, FAULTS_SWEEP)
        assert row["sim"]["kind"] == "faults"
        assert row["faults"][0]["error_type"] == "RuntimeError"


class TestSlowReason:
    def test_crash_wins(self):
        assert report.slow_reason(
            {"cell": 0, "error": "RuntimeError: x"}).startswith("crashed")

    def test_queue_delay(self):
        row = {"cell": 0, "host_s": 0.1, "queue_delay_s": 0.5}
        assert "queued 0.50s" in report.slow_reason(row)

    def test_cold_cache(self):
        row = {"cell": 0, "host_s": 1.0,
               "cache": {"hits": 1.0, "misses": 4.0}}
        assert "cold cache (4 miss(es))" in report.slow_reason(row)

    def test_stage_dominance(self):
        row = {"cell": 0, "host_s": 1.0,
               "stages": {"restructure": {"count": 1, "total_s": 0.8}}}
        assert "dominated by restructure (80%" \
            in report.slow_reason(row)

    def test_simulated_cycle_attribution(self):
        payload = metrics_payload([cell_span(0, "experiment table1")])
        [row] = report.correlate(payload, EXPERIMENT_SWEEP)
        assert "simulated cycles mostly parallel_overhead (60%)" \
            in report.slow_reason(row)

    def test_fault_degradation(self):
        payload = metrics_payload([cell_span(0, "tridag baseline")])
        [row] = report.correlate(payload, FAULTS_SWEEP)
        reason = report.slow_reason(row)
        assert "worst fault degradation x2.00 (dead-ce)" in reason
        assert "1 harness fault(s)" in reason

    def test_quiet_cell(self):
        row = {"cell": 0, "host_s": 1.0, "queue_delay_s": 0.001,
               "cache": {"hits": 5, "misses": 0}}
        assert report.slow_reason(row) == "nothing anomalous"


class TestRender:
    def test_table_and_detail(self):
        payload = metrics_payload([
            cell_span(0, "validate tridag", queue=0.01,
                      cache={"hits": 2.0, "misses": 0.0}),
            stage_span(0, "parse", 0.6),
        ])
        rows = report.correlate(payload, VALIDATE_SWEEP)
        table = report.render_cells(rows)
        assert "validate tridag" in table and "2h/0m" in table
        detail = report.render_report(payload, VALIDATE_SWEEP, cell=0)
        assert "queue delay" in detail
        assert "faulted" in detail and "mismatch" in detail
        assert "verdict:" in detail

    def test_report_is_summary_then_attribution(self):
        payload = metrics_payload([cell_span(0, "validate tridag")])
        text = report.render_report(payload, VALIDATE_SWEEP)
        assert text.index("telemetry report") \
            < text.index("per-cell attribution")

    def test_missing_cell_and_empty_session(self):
        payload = metrics_payload([cell_span(0, "x")])
        assert "no cell 9" in report.render_report(payload, cell=9)
        assert "no sweep cells" in report.render_cells([])


class TestLoadSession:
    def test_dir_resolves_to_metrics_json(self, tmp_path):
        (tmp_path / "metrics.json").write_text(
            json.dumps(metrics_payload([])))
        assert load_session(tmp_path)["schema"] == "repro-metrics/1"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no metrics.json"):
            load_session(tmp_path)

    def test_wrong_schema_raises(self, tmp_path):
        p = tmp_path / "metrics.json"
        p.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ValueError, match="not a repro-metrics/1"):
            load_session(p)

    def test_leftover_shards_are_merged_first(self, tmp_path):
        from repro import telemetry

        telemetry.configure(tmp_path)
        with telemetry.cell_span(0, "validate tridag"):
            pass
        telemetry.shutdown()            # flushed, never finalized
        assert not (tmp_path / "metrics.json").exists()
        payload = load_session(tmp_path)
        assert payload["summary"]["cells"] == 1
        assert (tmp_path / "metrics.json").exists()
        assert not list(tmp_path.glob("spans-*.jsonl"))


class TestEndToEnd:
    def test_jobs2_validate_sweep_explains(self, tmp_path, capsys):
        """A real --jobs 2 sweep with --telemetry joins host spans,
        queue delay, cache traffic, and per-config statuses."""
        from repro.validate.__main__ import main

        telem = tmp_path / "telem"
        out = tmp_path / "sweep.json"
        rc = main(["tridag", "gaussj", "--no-bisect", "--jobs", "2",
                   "--telemetry", str(telem), "-o", str(out)])
        assert rc == 0
        capsys.readouterr()

        payload = load_session(telem)
        sweep = json.loads(out.read_text())
        rows = report.correlate(payload, sweep)
        assert len(rows) == 2
        for row in rows:
            assert row["label"].startswith("validate ")
            assert row["host_s"] > 0
            assert row["queue_delay_s"] is not None
            assert row["sim"]["kind"] == "validate"
            assert row["sim"]["ok"]
            assert row["stages"], "cell has no child stage spans"
        table = report.render_cells(rows)
        assert "validate tridag" in table
        assert report.render_report(payload, sweep, cell=0) \
            .count("cell 0") == 1
