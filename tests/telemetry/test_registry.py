"""Counters, gauges, fixed-bucket histograms (repro.telemetry.registry)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry.registry import (
    LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        r = MetricsRegistry()
        c = r.counter("reqs", kind="parse")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("reqs").inc(-1)

    def test_gauge_sets(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3)
        assert g.value == 3.0

    def test_identity_by_name_and_labels(self):
        r = MetricsRegistry()
        assert r.counter("x", a="1") is r.counter("x", a="1")
        assert r.counter("x", a="1") is not r.counter("x", a="2")
        assert r.counter("x") is not r.gauge("x")


class TestHistogram:
    def test_bucket_counts_sum_to_count(self):
        h = Histogram("h", {}, bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        assert h.counts == [1, 1, 1]        # one overflow bucket
        assert h.count == 3 and h.sum == 101.0
        assert h.min == 0.5 and h.max == 99.0

    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram("h", {}, bounds=(2.0, 1.0))

    def test_merge_adds_counts(self):
        a = Histogram("h", {}, bounds=LATENCY_BUCKETS_S)
        b = Histogram("h", {}, bounds=LATENCY_BUCKETS_S)
        a.observe(0.1)
        b.observe(10.0)
        a._merge(b)
        assert a.count == 2
        assert a.min == 0.1 and a.max == 10.0

    def test_merge_rejects_different_bounds(self):
        a = Histogram("h", {}, bounds=(1.0,))
        b = Histogram("h", {}, bounds=(2.0,))
        with pytest.raises(ValueError):
            a._merge(b)


@settings(deadline=None, max_examples=100)
@given(st.lists(st.floats(min_value=0.0, max_value=500.0,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=4))
def test_sharded_merge_equals_single_histogram(values, shards):
    """Observing values across N shards then merging == one histogram."""
    whole = Histogram("h", {})
    parts = [Histogram("h", {}) for _ in range(shards)]
    for i, v in enumerate(values):
        whole.observe(v)
        parts[i % shards].observe(v)
    merged = parts[0]
    for p in parts[1:]:
        merged._merge(p)
    assert merged.counts == whole.counts
    assert merged.count == whole.count
    assert merged.min == whole.min and merged.max == whole.max


class TestRegistryExport:
    def test_snapshot_shape(self):
        r = MetricsRegistry()
        r.counter("reqs", kind="parse").inc(2)
        h = r.histogram("lat")
        h.observe(0.2)
        snap = r.snapshot()
        [c] = snap["counters"]
        assert c == {"name": "reqs", "labels": {"kind": "parse"},
                     "value": 2}
        [hs] = snap["histograms"]
        assert set(hs) == {"name", "labels", "bounds", "counts", "count",
                           "sum", "min", "max"}
        assert hs["count"] == 1 and hs["min"] == hs["max"] == 0.2

    def test_empty_histogram_snapshot_has_null_extremes(self):
        r = MetricsRegistry()
        r.histogram("lat")
        [hs] = r.snapshot()["histograms"]
        assert hs["min"] is None and hs["max"] is None

    def test_merge_snapshot_roundtrip(self):
        a = MetricsRegistry()
        a.counter("reqs").inc(3)
        a.gauge("depth").set(7)
        a.histogram("lat").observe(0.5)
        b = MetricsRegistry()
        b.counter("reqs").inc(1)
        b.gauge("depth").set(2)
        b.histogram("lat").observe(1.5)
        b.merge_snapshot(a.snapshot())
        snap = b.snapshot()
        [c] = snap["counters"]
        assert c["value"] == 4                       # counters add
        [g] = snap["gauges"]
        assert g["value"] == 7                       # gauges keep the max
        [h] = snap["histograms"]
        assert h["count"] == 2 and h["min"] == 0.5 and h["max"] == 1.5

    def test_reset_zeroes_in_place(self):
        r = MetricsRegistry()
        c = r.counter("reqs")
        c.inc(5)
        r.reset()
        assert c.value == 0                          # same object
        assert r.counter("reqs") is c

    def test_collectors_run_before_snapshot(self):
        r = MetricsRegistry()
        r.add_collector(lambda reg: reg.gauge("entries").set(42))
        [g] = r.snapshot()["gauges"]
        assert g["value"] == 42.0

    def test_prometheus_text_format(self):
        r = MetricsRegistry()
        r.counter("repro_reqs_total", kind="parse").inc(2)
        r.histogram("lat", bounds=(1.0, 2.0)).observe(1.5)
        text = r.to_prometheus()
        assert "# TYPE repro_reqs_total counter" in text
        assert 'repro_reqs_total{kind="parse"} 2' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="1.0"} 0' in text
        assert 'lat_bucket{le="2.0"} 1' in text      # cumulative
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text


class TestPrometheusSpec:
    """Exposition-format edge cases the scrape side chokes on: bad
    names, unescaped label values, and missing +Inf buckets."""

    def test_help_line_precedes_type_once_per_family(self):
        r = MetricsRegistry()
        r.counter("repro_cache_requests_total", kind="parse").inc()
        r.counter("repro_cache_requests_total", kind="restructure").inc()
        text = r.to_prometheus()
        assert text.count(
            "# HELP repro_cache_requests_total") == 1
        assert text.count(
            "# TYPE repro_cache_requests_total counter") == 1
        help_at = text.index("# HELP repro_cache_requests_total")
        type_at = text.index("# TYPE repro_cache_requests_total")
        assert help_at < type_at

    def test_metric_and_label_names_sanitized(self):
        r = MetricsRegistry()
        r.counter("stage.seconds-total", **{"work load": "a/b"}).inc()
        text = r.to_prometheus()
        assert 'stage_seconds_total{work_load="a/b"} 1' in text

    def test_digit_first_name_prefixed(self):
        r = MetricsRegistry()
        r.counter("2fast").inc()
        assert "_2fast 1" in r.to_prometheus()

    def test_label_values_escaped(self):
        r = MetricsRegistry()
        r.counter("c", path='dir\\x', note='say "hi"\nbye').inc()
        line = next(ln for ln in r.to_prometheus().splitlines()
                    if ln.startswith("c{"))
        assert '\\\\x' in line          # backslash doubled
        assert '\\"hi\\"' in line       # quotes escaped
        assert '\\nbye' in line         # literal newline escaped
        assert "\n" not in line

    def test_help_text_escaped(self):
        from repro.telemetry.registry import _prom_escape_help

        assert _prom_escape_help("a\\b\nc") == "a\\\\b\\nc"
        assert _prom_escape_help('say "hi"') == 'say "hi"'  # quotes kept

    def test_histogram_always_ends_with_inf_bucket(self):
        r = MetricsRegistry()
        r.histogram("lat", bounds=(0.5,)).observe(99.0)
        text = r.to_prometheus()
        assert 'lat_bucket{le="0.5"} 0' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        # +Inf bucket always equals the count (cumulative contract)
        assert "lat_count 1" in text

    def test_labelled_histogram_le_composes_with_labels(self):
        r = MetricsRegistry()
        r.histogram("lat", bounds=(1.0,), stage="parse").observe(0.5)
        text = r.to_prometheus()
        assert 'lat_bucket{le="1.0",stage="parse"} 1' in text
        assert 'lat_bucket{le="+Inf",stage="parse"} 1' in text
        assert 'lat_sum{stage="parse"}' in text
