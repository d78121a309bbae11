"""Degradation oracle: payload shape, invariants, schema conformance."""

import pytest

from repro.errors import ReproError
from repro.execmodel.interp import Interpreter
from repro.faults.harness import SweepJournal
from repro.faults.plan import SCENARIO_SPECS, scenario
from repro.faults.sweep import CHECKS, SCHEMA_TAG, run_sweep

@pytest.fixture(scope="module")
def payload():
    return run_sweep(["cg", "cascade"],
                     ["healthy", "dead-ce", "lost-sync", "chaos"],
                     quick=True, timeout=120.0)


class TestPayload:
    def test_all_cells_pass(self, payload):
        s = payload["summary"]
        assert s["cells_run"] == s["cells_expected"] == 8
        assert s["failed"] == 0 and s["harness_faults"] == 0
        assert all(r["ok"] for r in payload["runs"])

    def test_schema_tag_and_shape(self, payload):
        assert payload["schema"] == SCHEMA_TAG
        assert set(payload["scenarios"]) == {"healthy", "dead-ce",
                                             "lost-sync", "chaos"}
        for r in payload["runs"]:
            assert set(r["checks"]) == set(CHECKS)

    def test_conforms_to_validator(self, payload, validator):
        assert validator.validate(payload) == []

    def test_lost_sync_fires_on_cascade(self, payload):
        cell = next(r for r in payload["runs"]
                    if (r["workload"], r["scenario"]) == ("cascade",
                                                          "lost-sync"))
        assert cell["sync_retries"] > 0
        assert cell["degradation"] > 1.0

    def test_healthy_cells_are_bit_identical(self, payload):
        for r in payload["runs"]:
            if r["scenario"] == "healthy":
                assert r["faulted_cycles"] == r["healthy_cycles"]
                assert r["fault_cycles"] == 0.0
                assert r["injected_faults"] == 0

    def test_chaos_degrades_every_workload(self, payload):
        # chaos includes memory degradation, which inflates every
        # workload's memory traffic — no workload escapes it
        for r in payload["runs"]:
            if r["scenario"] == "chaos":
                assert r["faulted_cycles"] > r["healthy_cycles"]
                assert r["fault_cycles"] > 0.0
                assert r["injected_faults"] > 0

    def test_dead_ce_degrades_selfscheduled_doalls(self, payload):
        # cg's multi-worker DOALLs redistribute over the survivors at a
        # cost; cascade's DOACROSS is serial-chain bound, so losing one
        # CE legitimately costs nothing there
        cell = next(r for r in payload["runs"]
                    if (r["workload"], r["scenario"]) == ("cg", "dead-ce"))
        assert cell["faulted_cycles"] > cell["healthy_cycles"]
        assert cell["fault_cycles"] > 0.0
        assert cell["survivors"] == 7


class TestSweepHarness:
    def test_unknown_workload_raises(self):
        with pytest.raises(ReproError, match="unknown workload"):
            run_sweep(["not-a-workload"], ["healthy"], quick=True)

    def test_journal_resume_skips_completed(self, tmp_path):
        journal = SweepJournal(tmp_path / "j.jsonl")
        first = run_sweep(["tridag"], ["healthy", "dead-ce"], quick=True,
                          journal=journal)
        assert first["summary"]["cells_run"] == 2
        resumed: list[str] = []
        second = run_sweep(["tridag"], ["healthy", "dead-ce"], quick=True,
                           journal=SweepJournal(tmp_path / "j.jsonl"),
                           progress=resumed.append)
        assert second["summary"]["cells_run"] == 2
        assert second["runs"] == first["runs"]
        assert any("resumed from journal" in m for m in resumed)

    def test_jobs_and_engine_do_not_change_the_payload(self, payload):
        args = (["cg", "cascade"],
                ["healthy", "dead-ce", "lost-sync", "chaos"])
        assert run_sweep(*args, quick=True, jobs=2) == payload
        assert run_sweep(*args, quick=True, engine="tree") == payload


@pytest.fixture
def interpreter_calls(monkeypatch):
    """Entry names of every ``Interpreter.call`` made during the test."""
    calls: list[str] = []
    call = Interpreter.call

    def counted(self, name, *args):
        calls.append(name)
        return call(self, name, *args)

    monkeypatch.setattr(Interpreter, "call", counted)
    return calls


class TestInterpretationBudget:
    """The functional half pays per distinct input — a count, not a
    timing: 1 sequential baseline + one run per distinct deal among the
    row's scenarios + 1 re-run."""

    @pytest.mark.parametrize("scenarios", [
        list(SCENARIO_SPECS),
        list(reversed(SCENARIO_SPECS)),
        ["bank-outage", "lost-sync", "healthy", "late-helpers"],
        ["slow-ce", "dead-ce"],
    ], ids=["matrix", "matrix-reversed", "healthy-like", "degraded"])
    def test_one_run_per_distinct_deal(self, interpreter_calls, scenarios):
        result = run_sweep(["cg"], scenarios, quick=True)
        assert result["summary"]["ok"] == len(scenarios)
        distinct = len({scenario(s).deal_key for s in scenarios})
        assert len(interpreter_calls) == 1 + distinct + 1
        if len(scenarios) == len(SCENARIO_SPECS):
            assert len(interpreter_calls) == 7        # was 15 a row

    def test_resumed_row_runs_only_what_is_missing(self, tmp_path,
                                                   interpreter_calls):
        scenarios = ["healthy", "dead-ce", "slow-ce"]
        run_sweep(["cg"], scenarios[:2], quick=True,
                  journal=SweepJournal(tmp_path / "j.jsonl"))
        del interpreter_calls[:]
        resumed = run_sweep(["cg"], scenarios, quick=True,
                            journal=SweepJournal(tmp_path / "j.jsonl"))
        assert len(interpreter_calls) == 3    # baseline, slow-ce, re-run
        assert resumed["runs"] == run_sweep(["cg"], scenarios,
                                            quick=True)["runs"]
