"""The crash-context ring buffer: a field of the logging session."""

from repro.telemetry import log


def _fill(n):
    lg = log.get_logger("ring")
    for i in range(n):
        lg.debug("tick", i=i)


def _ticks(events):
    return [e["fields"]["i"] for e in events if e.get("event") == "tick"]


class TestRing:
    def test_disabled_by_default(self):
        assert not log.enabled()
        _fill(3)                                 # no-op, no error
        log.record_span({"name": "parse"})
        assert log.tail() == []

    def test_bounded_capacity_keeps_newest(self):
        log.configure("error", flight_capacity=4)
        _fill(10)
        assert _ticks(log.tail(100)) == [6, 7, 8, 9]

    def test_tail_returns_oldest_first(self):
        log.configure("error")
        _fill(5)
        assert _ticks(log.tail(3)) == [2, 3, 4]

    def test_shutdown_drops_the_ring(self):
        log.configure("error")
        _fill(2)
        log.shutdown()
        assert log.tail() == []


class TestSpanSummaries:
    def test_completed_spans_are_summarized(self, tmp_path):
        from repro import telemetry

        telemetry.configure(tmp_path / "telem")
        log.configure("error")
        with telemetry.cell_span(2, "validate tridag"):
            with telemetry.span("parse"):
                pass
        events = log.tail()
        names = [e.get("name") for e in events if e.get("kind") == "span"]
        assert "parse" in names and "cell" in names
        cell_ev = next(e for e in events if e.get("name") == "cell")
        assert cell_ev["cell"] == 2
        assert cell_ev["label"] == "validate tridag"
        assert isinstance(cell_ev["duration_s"], float)
        telemetry.shutdown()

    def test_spans_work_with_logging_off(self, tmp_path):
        from repro import telemetry

        telemetry.configure(tmp_path / "telem")
        with telemetry.span("parse"):
            pass
        assert log.tail() == []
        telemetry.shutdown()


class TestCrashContext:
    def test_fault_report_carries_flight_tail(self, tmp_path):
        from repro.faults.harness import run_isolated

        log.configure("debug", path=tmp_path / "log.jsonl")
        log.get_logger("t").info("before_the_crash")

        def boom():
            raise RuntimeError("kaput")

        _, report = run_isolated(boom, label="doomed")
        assert report is not None
        events = report.detail["flight_recorder"]
        assert any(e.get("event") == "before_the_crash" for e in events)

    def test_fault_report_clean_without_recorder(self):
        from repro.faults.harness import run_isolated

        def boom():
            raise RuntimeError("kaput")

        _, report = run_isolated(boom, label="doomed")
        assert "flight_recorder" not in report.detail
