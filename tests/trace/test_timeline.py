"""Timeline span invariants across both scheduler entries.

The load-bearing invariant: for every recorded loop, the sum of busy
span durations equals ``LoopTiming.busy_time`` exactly, and no span
leaks outside the loop's [0, total] window.
"""

import pytest

from repro.machine.config import cedar_config1, cedar_config2
from repro.machine.scheduler import LoopScheduler
from repro.trace.timeline import CONTROL_TRACK, TimelineRecorder


def record_one(fn):
    """Run one scheduler call against a fresh recorder, return (timing, rec)."""
    tl = TimelineRecorder()
    timing = fn(tl)
    assert len(tl) == 1
    return timing, tl.loops[0]


def check_invariants(timing, rec):
    assert rec.total == timing.total_time
    assert rec.busy == timing.busy_time
    assert rec.busy_span_sum() == pytest.approx(timing.busy_time, rel=1e-9)
    for s in rec.spans:
        assert s.start >= -1e-9 and s.end <= rec.total + 1e-9
        assert s.end >= s.start
    # per-worker spans must not overlap on a track
    by_worker = {}
    for s in rec.spans:
        by_worker.setdefault(s.worker, []).append(s)
    for spans in by_worker.values():
        spans.sort(key=lambda s: s.start)
        for a, b in zip(spans, spans[1:]):
            assert b.start >= a.end - 1e-9


class TestDoallSpans:
    @pytest.mark.parametrize("trips", [1, 3, 8, 17, 100, 1000])
    def test_homogeneous(self, trips):
        sched = LoopScheduler(cedar_config1())
        timing, rec = record_one(lambda tl: sched.run(
            "C", trips, 12.0, preamble=5.0, postamble=4.0,
            timeline=tl, label="t"))
        check_invariants(timing, rec)

    def test_coalescing_bounds_span_count(self):
        sched = LoopScheduler(cedar_config1())
        tl = TimelineRecorder(max_chunk_spans=16)
        sched.run("C", 1000, 3.0, timeline=tl, label="big")
        rec = tl.loops[0]
        # ≤ a handful of spans per worker, not one per chunk
        assert len(rec.spans) < 8 * rec.workers
        assert any(s.count > 1 for s in rec.spans)
        assert rec.busy_span_sum() == pytest.approx(rec.busy, rel=1e-9)

    def test_partial_last_round_chunk_counts(self):
        """10 iterations on 8 CEs: the first two run two chunks each."""
        sched = LoopScheduler(cedar_config1())
        timing, rec = record_one(lambda tl: sched.run(
            "C", 10, 6.0, timeline=tl, label="tail"))
        check_invariants(timing, rec)
        chunks = [sum(1 for s in rec.spans
                      if s.worker == w and s.category == "chunk")
                  for w in range(rec.workers)]
        assert chunks == [2, 2] + [1] * 6

    def test_zero_trips(self):
        sched = LoopScheduler(cedar_config1())
        timing, rec = record_one(lambda tl: sched.run(
            "C", 0, 1.0, timeline=tl, label="empty"))
        assert timing.busy_time == 0.0
        assert rec.busy_span_sum() == 0.0
        assert all(s.worker == CONTROL_TRACK for s in rec.spans)


class TestDoacrossSpans:
    @pytest.mark.parametrize("trips", [1, 4, 9, 64, 300])
    def test_busy_sum(self, trips):
        sched = LoopScheduler(cedar_config1())
        timing, rec = record_one(lambda tl: sched.doacross(
            "C", trips, 20.0, 6.0, preamble=3.0, postamble=3.0,
            timeline=tl, label="dx"))
        check_invariants(timing, rec)

    def test_whole_iteration_region(self):
        sched = LoopScheduler(cedar_config1())
        timing, rec = record_one(lambda tl: sched.doacross(
            "S", 25, 15.0, 15.0, timeline=tl, label="dx2"))
        check_invariants(timing, rec)
        assert rec.order == "doacross"


class TestRecorder:
    def test_sequential_clock(self):
        sched = LoopScheduler(cedar_config1())
        tl = TimelineRecorder()
        t1 = sched.run("C", 10, 5.0, timeline=tl, label="a")
        t2 = sched.run("C", 20, 5.0, timeline=tl, label="b")
        assert tl.loops[0].base == 0.0
        assert tl.loops[1].base == t1.total_time
        assert tl.total_time() == t1.total_time + t2.total_time

    def test_no_timeline_means_no_spans(self):
        """The default path must not build spans at all (and timings must
        match the profiled path exactly)."""
        sched = LoopScheduler(cedar_config1())
        plain = sched.run("C", 33, 7.0, preamble=1.0)
        tl = TimelineRecorder()
        profiled = sched.run("C", 33, 7.0, preamble=1.0,
                             timeline=tl, label="x")
        assert plain == profiled

    def test_metrics(self):
        sched = LoopScheduler(cedar_config1())
        tl = TimelineRecorder()
        sched.run("C", 64, 10.0, timeline=tl, label="m")
        rec = tl.loops[0]
        assert 0.0 <= rec.utilization() <= 1.0
        assert 0.0 <= rec.imbalance() <= 1.0
        per = rec.worker_busy()
        assert len(per) == rec.workers
        assert sum(per) == pytest.approx(rec.busy, rel=1e-9)
