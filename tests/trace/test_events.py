"""Unit tests for decision events, the recorder, and the trace report."""

from repro.trace import NULL_SINK, DecisionEvent, TraceRecorder, TraceReport


def _ev(**kw):
    base = dict(kind="plan", unit="foo", technique="xdoall",
                action="accepted", loop="do i", line=12)
    base.update(kw)
    return DecisionEvent(**base)


class TestDecisionEvent:
    def test_location_includes_line(self):
        assert _ev().render().startswith("foo:do i@12 ")
        assert _ev(line=None).render().startswith("foo:do i ")
        assert _ev(loop="", line=None).render().startswith("foo:<unit> ")

    def test_to_dict_omits_empty_fields(self):
        d = _ev(reason="", predicted_cycles=None).to_dict()
        assert "reason" not in d and "predicted_cycles" not in d
        d2 = _ev(reason="why", predicted_cycles=42.0).to_dict()
        assert d2["reason"] == "why" and d2["predicted_cycles"] == 42.0

    def test_render_carries_cost_and_reason(self):
        text = _ev(action="rejected", reason="carried dep on b",
                   predicted_cycles=123.0).render()
        assert "foo:do i@12" in text
        assert "rejected" in text and "carried dep on b" in text
        assert "123" in text

    def test_frozen(self):
        import dataclasses

        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            _ev().action = "rejected"


class TestSinks:
    def test_recorder_collects_in_order(self):
        rec = TraceRecorder()
        events = [_ev(), _ev(action="rejected", technique="cdoacross"),
                  _ev(unit="bar", loop="do j", line=3, action="declined")]
        for e in events:
            rec.emit(e)
        assert len(rec) == 3
        assert list(rec) == rec.events == events

    def test_null_sink_noop(self):
        NULL_SINK.emit(_ev())  # must not raise or store anything


class TestTraceReport:
    def test_renders_breakdowns_and_decisions(self):
        from repro.trace import CycleLedger

        workloads = {
            "cg": {
                "speedup": 6.5,
                "serial_breakdown": CycleLedger(compute=90.0,
                                                mem_cluster=10.0).to_dict(),
                "parallel_breakdown": CycleLedger(vector=5.0,
                                                  startup=15.0).to_dict(),
                "decisions": [_ev(unit="cg", action="rejected",
                                  reason="carried dep").to_dict()],
            },
        }
        text = TraceReport("Table 1", workloads).render()
        assert "cycle attribution" in text
        assert "speedup 6.50" in text
        assert "mem_cluster" in text and "startup" in text
        assert "carried dep" in text

    def test_one_renderer_per_record(self):
        """The report, the ledger and the event render alike."""
        from repro.trace import CycleLedger

        led = CycleLedger(compute=90.0, mem_cluster=10.0)
        ev = _ev(action="rejected", reason="carried dep")
        text = TraceReport("T", {"w": {
            "serial_breakdown": led.to_dict(),
            "decisions": [ev.to_dict()]}}).render()
        assert led.render("  ") in text
        assert "    " + ev.render() in text.splitlines()

    def test_empty_workload_entry_is_tolerated(self):
        text = TraceReport("T", {"empty": {}}).render()
        assert "empty" in text
