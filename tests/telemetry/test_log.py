"""repro.telemetry.log: the structured JSONL logger."""

import json
import os

import pytest

from repro.telemetry import log


class TestConfigure:
    def test_disabled_by_default(self):
        assert not log.enabled()

    def test_configure_and_shutdown(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        log.configure("debug", path=sink)
        assert log.enabled()
        log.get_logger("t").debug("ringed")
        assert log.tail()           # one feature, enabled together
        log.shutdown()
        assert not log.enabled()
        assert log.tail() == []

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="unknown log level"):
            log.configure("verbose")


class TestEmission:
    def _lines(self, sink):
        return [json.loads(raw) for raw in
                sink.read_text().splitlines() if raw.strip()]

    def test_record_shape(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        log.configure("info", path=sink)
        log.get_logger("testsys").info("it_happened", n=3, name="x")
        [rec] = self._lines(sink)
        assert rec["level"] == "info"
        assert rec["subsystem"] == "testsys"
        assert rec["event"] == "it_happened"
        assert rec["pid"] == os.getpid()
        assert rec["fields"] == {"n": 3, "name": "x"}
        assert isinstance(rec["t"], float)

    def test_level_threshold_filters_writes(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        log.configure("warning", path=sink)
        lg = log.get_logger("t")
        lg.debug("quiet")
        lg.info("quiet")
        lg.warning("loud")
        lg.error("loud")
        assert [r["level"] for r in self._lines(sink)] \
            == ["warning", "error"]

    def test_below_threshold_still_reaches_flight_ring(self, tmp_path):
        log.configure("error", path=tmp_path / "log.jsonl")
        log.get_logger("t").debug("invisible_but_recorded")
        events = log.tail()
        assert any(e.get("event") == "invisible_but_recorded"
                   for e in events)

    def test_noop_when_disabled(self, tmp_path):
        # must not raise, allocate a session, or create any file
        log.get_logger("t").error("nobody_home", x=1)
        assert not log.enabled()
        assert list(tmp_path.iterdir()) == []

    def test_correlation_with_telemetry_session(self, tmp_path):
        from repro import telemetry

        sink = tmp_path / "log.jsonl"
        telemetry.configure(tmp_path / "telem")
        log.configure("debug", path=sink)
        with telemetry.cell_span(7, "validate x"):
            with telemetry.span("parse"):
                log.get_logger("t").info("inside")
        rec = next(r for r in self._lines(sink)
                   if r["event"] == "inside")
        assert rec["cell"] == 7
        assert rec["trace_id"]
        assert rec["span"]          # the innermost open span's id
        telemetry.shutdown()

    def test_correlation_follows_the_session_either_order(self, tmp_path):
        """Logging configured *before* telemetry still correlates, and
        stops the moment the session ends."""
        from repro import telemetry

        sink = tmp_path / "log.jsonl"
        log.configure("debug", path=sink)
        telemetry.configure(tmp_path / "telem")
        log.get_logger("t").info("during")
        telemetry.shutdown()
        log.get_logger("t").info("after")
        during, after = self._lines(sink)
        assert during["trace_id"]
        assert "trace_id" not in after

    def test_unserializable_fields_stringified(self, tmp_path):
        sink = tmp_path / "log.jsonl"
        log.configure("info", path=sink)
        log.get_logger("t").info("odd", obj=object())
        [rec] = self._lines(sink)
        assert "object object" in rec["fields"]["obj"]

    def test_get_logger_is_cached(self):
        assert log.get_logger("same") is log.get_logger("same")
