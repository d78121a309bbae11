"""Tests for structured experiment output: Table.to_dict, negative-float
rendering, the ``--json``/``--trace`` CLI, and the payload validator."""

import io
import json
import sys

import pytest

from repro.experiments.__main__ import JSON_SCHEMA, main
from repro.experiments.report import Table


class TestTableFormatting:
    def test_negative_floats_keep_magnitude_precision(self):
        t = Table(title="T", columns=["k", "v"])
        t.add("a", -123.456)
        t.add("b", -12.345)
        t.add("c", -1.234)
        text = t.render()
        # sign must not promote a value into a higher-precision bucket
        assert "-123" in text and "-123.5" not in text
        assert "-12.3" in text and "-12.35" not in text
        assert "-1.23" in text

    def test_positive_formatting_unchanged(self):
        t = Table(title="T", columns=["k", "v"])
        t.add("a", 123.456)
        t.add("b", 12.345)
        t.add("c", 1.234)
        text = t.render()
        assert "123" in text and "12.3" in text and "1.23" in text

    def test_to_dict_rows_keyed_by_column(self):
        t = Table(title="T", columns=["routine", "speedup"],
                  notes=["a note"])
        t.add("cg", 6.5)
        t.meta["trace"] = {}
        d = t.to_dict()
        assert d["rows"] == [{"routine": "cg", "speedup": 6.5}]
        assert d["notes"] == ["a note"]
        assert d["meta"] == {"trace": {}}
        json.dumps(d)


@pytest.fixture(scope="module")
def table1_payload():
    """One quick --json run shared by the CLI tests."""
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        rc = main(["table1", "--quick", "--json"])
    finally:
        sys.stdout = old
    assert rc == 0
    return json.loads(buf.getvalue())


class TestJsonCli:
    def test_payload_shape(self, table1_payload):
        p = table1_payload
        assert p["schema"] == JSON_SCHEMA
        assert p["quick"] is True
        t1 = p["experiments"]["table1"]
        assert len(t1["rows"]) == 10
        assert set(t1["rows"][0]) == set(t1["columns"])

    def test_every_workload_has_trace(self, table1_payload):
        trace = table1_payload["experiments"]["table1"]["meta"]["trace"]
        routines = {r["routine"] for r in
                    table1_payload["experiments"]["table1"]["rows"]}
        assert set(trace) == routines
        for w in trace.values():
            assert "serial_breakdown" in w and "parallel_breakdown" in w
            assert w["decisions"]

    def test_serial_loops_have_rejection_reasons(self, table1_payload):
        """Acceptance criterion: >=1 rejection reason per serial loop."""
        trace = table1_payload["experiments"]["table1"]["meta"]["trace"]
        for name, w in trace.items():
            decs = w["decisions"]
            serial = {(d.get("loop"), d.get("line")) for d in decs
                      if d["action"] == "accepted"
                      and d["technique"] == "serial"}
            for key in serial:
                rej = [d for d in decs
                       if (d.get("loop"), d.get("line")) == key
                       and d["action"] in ("rejected", "failed")
                       and d.get("reason")]
                assert rej, f"{name}: serial loop {key} unexplained"

    def test_validator_accepts_real_payload(self, table1_payload,
                                            validator):
        assert validator.validate(table1_payload) == []

    def test_validator_rejects_broken_payloads(self, table1_payload,
                                               validator):
        assert validator.validate({"schema": "wrong"})
        broken = json.loads(json.dumps(table1_payload))
        t1 = broken["experiments"]["table1"]
        first = next(iter(t1["meta"]["trace"].values()))
        first["serial_breakdown"]["total"] += 1e6  # break the invariant
        problems = validator.validate(broken)
        assert any("group sum" in p for p in problems)

    def test_unknown_experiment_errors(self):
        assert main(["nosuch", "--json"]) == 2


class TestTraceCli:
    def test_trace_flag_appends_breakdown(self, capsys):
        rc = main(["table1", "--quick", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cycle attribution" in out
        assert "parallel_overhead" in out or "startup" in out
