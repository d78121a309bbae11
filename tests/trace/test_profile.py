"""Profile sessions: the Chrome trace-event export, the profile
document's loop records, and the ASCII Gantt / utilization renderers."""

import json

import pytest

from repro.machine.config import cedar_config1
from repro.machine.scheduler import LoopScheduler
from repro.trace.ledger import CycleLedger
from repro.trace.profile import (
    ProfileSession,
    RunProfile,
    chrome_trace,
    render_gantt,
    render_utilization,
)
from repro.trace.timeline import LoopRecord, TimelineRecorder


def make_timeline():
    sched = LoopScheduler(cedar_config1())
    tl = TimelineRecorder()
    sched.run("C", 40, 8.0, preamble=2.0, postamble=2.0,
              timeline=tl, label="wl:do i@3")
    sched.doacross("S", 20, 12.0, 4.0, timeline=tl, label="wl:do j@9")
    return tl


@pytest.fixture()
def session():
    tl = make_timeline()
    s = ProfileSession("unittest")
    s.runs.append(RunProfile(
        workload="wl", role="parallel", cfg=cedar_config1(),
        total_cycles=tl.total_time(), ledger=CycleLedger(counts={}),
        timeline=tl))
    return s


class TestChromeTraceFormat:
    def test_structure(self, session):
        doc = chrome_trace(session)
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]
        assert doc["displayTimeUnit"] in ("ms", "ns")
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "M")
            assert isinstance(ev["pid"], int)
            if ev["ph"] == "X":
                assert isinstance(ev["name"], str)
                assert isinstance(ev["cat"], str)
                assert isinstance(ev["ts"], (int, float)) and ev["ts"] >= 0
                assert isinstance(ev["dur"], (int, float)) and ev["dur"] >= 0
                assert isinstance(ev["tid"], int) and ev["tid"] >= 0
            else:
                assert ev["name"] in ("process_name", "thread_name")
                assert "name" in ev["args"]

    def test_metadata_names_processes_and_threads(self, session):
        doc = chrome_trace(session)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name"
                   and e["args"]["name"] == "unittest/wl [parallel]"
                   for e in meta)
        thread_names = {e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert "scheduler" in thread_names
        assert any(n.startswith("CE ") for n in thread_names)

    def test_loop_envelopes_on_control_track(self, session):
        doc = chrome_trace(session)
        envs = [e for e in doc["traceEvents"]
                if e["ph"] == "X" and e["cat"] == "loop"]
        assert len(envs) == 2
        for e in envs:
            assert e["tid"] == 0
            assert {"workers", "busy_time", "utilization",
                    "imbalance"} <= set(e["args"])

    def test_json_serializable(self, session):
        doc = json.loads(json.dumps(chrome_trace(session)))
        assert doc["traceEvents"]


class TestProfileDocument:
    def test_loops_carry_their_spans(self, session):
        (run,) = session.to_profile_doc()["runs"]
        for lp, rec in zip(run["loops"], session.runs[0].timeline):
            assert lp["n_spans"] == len(lp["spans"]) == len(rec.spans)

    def test_loop_record_round_trips_through_json(self, session):
        for rec in session.runs[0].timeline:
            back = LoopRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
            assert back == rec


class TestGantt:
    def test_one_row_per_worker(self):
        loops = make_timeline().loops
        out = render_gantt(loops)
        for rec in loops:
            assert out.count("CE ") >= rec.workers
        assert "wl:do i@3" in out and "wl:do j@9" in out

    def test_glyphs_present(self):
        out = render_gantt(make_timeline())
        assert "#" in out          # chunk execution
        assert ">" in out          # startup on the scheduler track
        assert "util" in out and "imb" in out

    def test_width_respected(self):
        out = render_gantt(make_timeline(), width=40)
        bars = [ln for ln in out.splitlines() if ln.strip().startswith("CE")]
        assert bars
        for ln in bars:
            bar = ln.split()[2]
            assert len(bar) == 40


class TestUtilization:
    def test_table_lists_each_loop(self):
        loops = make_timeline().loops
        out = render_utilization(loops)
        assert out.count("wl:do") == len(loops)
        assert "all recorded loops" in out

    def test_empty(self):
        assert "no parallel loops" in render_utilization([])
