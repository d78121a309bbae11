"""Span recording, shard I/O, and the no-op-when-disabled contract."""

import json

import pytest

from repro import telemetry
from repro.telemetry import spans as spanmod
from repro.telemetry.export import SCHEMA_TAG, finalize, merge_dir


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        assert telemetry.span("parse") is telemetry.span("restructure")
        assert telemetry.cell_span(0, "x") is telemetry.span("parse")
        assert not telemetry.enabled()

    def test_disabled_writes_nothing(self, tmp_path):
        with telemetry.span("parse", workload="TRFD"):
            pass
        telemetry.flush()
        assert list(tmp_path.iterdir()) == []

    def test_flush_and_shutdown_are_safe_when_off(self):
        telemetry.flush()
        telemetry.shutdown()


class TestConfigure:
    def test_configure_creates_session(self, tmp_path):
        telemetry.configure(tmp_path / "t")
        assert telemetry.enabled()
        meta = json.loads((tmp_path / "t" / "meta.json").read_text())
        assert meta["trace_id"] and meta["pid"]

    def test_shutdown_ends_session(self, tmp_path):
        telemetry.configure(tmp_path)
        telemetry.shutdown()
        assert not telemetry.enabled()


class TestSpanRecording:
    def test_nesting_records_parent_linkage(self, tmp_path):
        telemetry.configure(tmp_path)
        with telemetry.span("restructure", workload="TRFD"):
            with telemetry.span("parse"):
                pass
        inner, outer = spanmod._STATE.spans
        assert inner["name"] == "parse"
        assert inner["parent"] == outer["id"]
        assert outer["parent"] is None
        assert outer["attrs"] == {"workload": "TRFD"}
        assert inner["duration_s"] >= 0.0

    def test_exception_marks_error_and_propagates(self, tmp_path):
        telemetry.configure(tmp_path)
        with pytest.raises(ValueError):
            with telemetry.span("compile"):
                raise ValueError("boom")
        [rec] = spanmod._STATE.spans
        assert rec["error"] == "ValueError"

    def test_cell_span_sets_context_and_flushes(self, tmp_path):
        telemetry.configure(tmp_path)
        with telemetry.cell_span(3, "validate tridag"):
            with telemetry.span("execute"):
                assert spanmod._STATE.cell == 3
        assert spanmod._STATE.cell is None
        # the cell flushed this process's shard on exit
        import os

        shard = tmp_path / f"spans-{os.getpid()}.jsonl"
        recs = [json.loads(ln) for ln in
                shard.read_text().splitlines()]
        assert [r["name"] for r in recs] == ["execute", "cell"]
        assert all(r["cell"] == 3 for r in recs)
        assert recs[1]["attrs"] == {"label": "validate tridag"}


class TestShardIO:
    def test_flush_appends_spans_and_snapshots_metrics(self, tmp_path):
        telemetry.configure(tmp_path)
        ticks = telemetry.get_registry().counter("test_ticks_total")
        with telemetry.span("parse"):
            ticks.inc()
        telemetry.flush()
        with telemetry.span("parse"):
            ticks.inc()
        telemetry.flush()
        import os

        pid = os.getpid()
        lines = (tmp_path / f"spans-{pid}.jsonl").read_text().splitlines()
        assert len(lines) == 2                      # appended, not replaced
        snap = json.loads((tmp_path / f"metrics-{pid}.json").read_text())
        assert snap["pid"] == pid
        [c] = [m for m in snap["metrics"]["counters"]
               if m["name"] == "test_ticks_total"]
        assert c["value"] == 2                      # snapshot, not delta

    def test_unwritable_dir_never_raises(self, tmp_path):
        d = tmp_path / "ro"
        d.mkdir()
        telemetry.configure(d)
        d.chmod(0o500)
        try:
            with telemetry.cell_span(0, "x"):
                pass                                # flush swallows OSError
        finally:
            d.chmod(0o700)


class TestMergeDir:
    def _session(self, tmp_path, cells=3):
        telemetry.configure(tmp_path)
        for i in range(cells):
            with telemetry.cell_span(i, f"cell {i}"):
                with telemetry.span("execute"):
                    pass
        telemetry.flush()

    def test_merge_builds_artifact_and_removes_shards(self, tmp_path,
                                                      validator):
        self._session(tmp_path)
        payload = merge_dir(tmp_path, harness="test")
        assert payload["schema"] == SCHEMA_TAG
        assert payload["summary"]["cells"] == 3
        assert payload["summary"]["stages"]["execute"]["count"] == 3
        assert not list(tmp_path.glob("spans-*.jsonl"))
        assert not list(tmp_path.glob("metrics-*.json"))
        assert (tmp_path / "metrics.json").exists()
        assert validator.validate(payload) == []

    def test_merged_spans_sorted_by_cell(self, tmp_path):
        self._session(tmp_path)
        cells = [s["cell"] for s in merge_dir(tmp_path)["spans"]]
        assert cells == sorted(cells)

    def test_finalize_echoes_and_ends_session(self, tmp_path):
        self._session(tmp_path, cells=1)
        echoed = []
        payload = finalize(harness="t", echo=echoed.append)
        assert payload["summary"]["cells"] == 1
        assert "metrics.json" in echoed[0]
        assert not telemetry.enabled()
        # nothing left behind but the merged artifact + meta
        leftovers = {p.name for p in tmp_path.iterdir()}
        assert leftovers == {"meta.json", "metrics.json"}

    def test_finalize_is_noop_when_off(self):
        assert finalize(harness="t") is None


class TestValidatorCatchesCorruption:
    def test_doctored_artifact_fails_validation(self, tmp_path,
                                                validator):
        telemetry.configure(tmp_path)
        with telemetry.cell_span(0, "x"):
            pass
        telemetry.flush()
        payload = merge_dir(tmp_path)
        assert validator.validate(payload) == []
        payload["summary"]["cells"] += 1
        assert any("recount" in p for p in validator.validate(payload))
        payload["spans"][0]["parent"] = "nope-1"
        assert any("does not resolve" in p
                   for p in validator.validate(payload))


    def test_histograms_travel_and_are_recounted(self, tmp_path,
                                                 validator):
        """A served session carries the request-latency histogram."""
        telemetry.configure(tmp_path)
        telemetry.get_registry().histogram(
            "repro_server_request_seconds", endpoint="lint").observe(0.2)
        telemetry.flush()
        payload = merge_dir(tmp_path)
        [h] = payload["metrics"]["histograms"]
        assert h["count"] == 1 and h["min"] == h["max"] == 0.2
        assert validator.validate(payload) == []
        h["counts"][0] += 1
        assert any("bucket counts sum" in p
                   for p in validator.validate(payload))


class TestShardTolerance:
    """merge_dir survives damaged worker shards: a worker killed
    mid-write must cost its torn tail, not the whole sweep's artifact."""

    def _session(self, tmp_path, cells=3):
        telemetry.configure(tmp_path)
        for i in range(cells):
            with telemetry.cell_span(i, f"cell {i}"):
                with telemetry.span("execute"):
                    pass
        telemetry.flush()

    def test_truncated_spans_shard_keeps_the_rest(self, tmp_path,
                                                  capsys):
        self._session(tmp_path)
        [shard] = tmp_path.glob("spans-*.jsonl")
        lines = shard.read_text().splitlines(keepends=True)
        # a worker died mid-write: the last record is half a line
        shard.write_text("".join(lines[:-1]) + lines[-1][:10])
        payload = merge_dir(tmp_path, harness="test")
        err = capsys.readouterr().err
        assert "truncated" in err and "torn line" in err
        # everything before the tear survived
        assert len(payload["spans"]) == len(lines) - 1
        assert (tmp_path / "metrics.json").exists()
        assert not list(tmp_path.glob("spans-*.jsonl"))

    def test_corrupt_metrics_shard_is_skipped_with_warning(
            self, tmp_path, capsys):
        self._session(tmp_path)
        [shard] = tmp_path.glob("metrics-*.json")
        shard.write_text('{"counters": {"x')   # killed mid-dump
        payload = merge_dir(tmp_path, harness="test")
        err = capsys.readouterr().err
        assert "warning" in err
        assert payload["summary"]["cells"] == 3
        # the damaged shard is still cleaned up after the merge
        assert not list(tmp_path.glob("metrics-*.json"))

    def test_undamaged_merge_warns_nothing(self, tmp_path, capsys):
        self._session(tmp_path)
        merge_dir(tmp_path, harness="test")
        assert "warning" not in capsys.readouterr().err
