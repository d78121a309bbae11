"""Admission queue: bounded concurrency, shedding, no deadlocks."""

import threading
import time

import pytest

from repro.telemetry import MetricsRegistry

from repro.server.queue import AdmissionQueue, ShedRequest


class TestAdmission:
    def test_admits_up_to_capacity(self):
        q = AdmissionQueue(capacity=2, max_wait_s=0.05)
        q.acquire()
        q.acquire()
        assert q.in_flight == 2

    def test_sheds_when_full(self):
        q = AdmissionQueue(capacity=1, max_wait_s=0.05)
        q.acquire()
        with pytest.raises(ShedRequest) as exc:
            q.acquire()
        assert exc.value.reason == "queue-full"

    def test_release_unblocks_a_waiter(self):
        q = AdmissionQueue(capacity=1, max_wait_s=5.0)
        q.acquire()
        admitted = threading.Event()

        def waiter():
            q.acquire()
            admitted.set()

        t = threading.Thread(target=waiter)
        t.start()
        time.sleep(0.05)
        assert not admitted.is_set()
        q.release()
        t.join(5.0)
        assert admitted.is_set()

    def test_deadline_shorter_than_queue_wait_sheds_as_deadline(self):
        q = AdmissionQueue(capacity=1, max_wait_s=5.0)
        q.acquire()
        t0 = time.monotonic()
        with pytest.raises(ShedRequest) as exc:
            q.acquire(deadline_s=0.05)
        assert exc.value.reason == "deadline"
        # bounded: the wait honoured the deadline, not max_wait_s
        assert time.monotonic() - t0 < 2.0

    def test_zero_deadline_with_free_slot_is_admitted(self):
        q = AdmissionQueue(capacity=1, max_wait_s=5.0)
        q.acquire(deadline_s=0.0)       # a slot is free: no wait needed
        assert q.in_flight == 1

    def test_never_deadlocks_without_release(self):
        # even a lost release cannot park a caller forever: every wait
        # is bounded by the admission budget
        q = AdmissionQueue(capacity=1, max_wait_s=0.2)
        q.acquire()
        t0 = time.monotonic()
        with pytest.raises(ShedRequest):
            q.acquire()
        assert time.monotonic() - t0 < 5.0

    def test_release_floor_is_zero(self):
        q = AdmissionQueue(capacity=1)
        q.release()                     # spurious release is harmless
        assert q.in_flight == 0
        q.acquire()
        assert q.in_flight == 1


class TestDrain:
    def test_drain_empty_queue_is_immediate(self):
        assert AdmissionQueue(capacity=2).drain(timeout_s=0.5)

    def test_drain_waits_for_in_flight(self):
        q = AdmissionQueue(capacity=2)
        q.acquire()

        def finish():
            time.sleep(0.1)
            q.release()

        threading.Thread(target=finish).start()
        assert q.drain(timeout_s=5.0)
        assert q.in_flight == 0

    def test_drain_sheds_later_callers(self):
        q = AdmissionQueue(capacity=2)
        assert q.drain(timeout_s=0.5)
        with pytest.raises(ShedRequest) as exc:
            q.acquire()
        assert exc.value.reason == "draining"
        assert q.in_flight == 0

    def test_drain_sheds_a_waiter_the_last_release_wakes(self):
        # a caller parked at capacity when drain() begins is shed, not
        # admitted by the release that lets the drain finish
        q = AdmissionQueue(capacity=1, max_wait_s=5.0)
        q.acquire()
        reasons = []

        def waiter():
            try:
                q.acquire()
                reasons.append("admitted")
            except ShedRequest as shed:
                reasons.append(shed.reason)

        t = threading.Thread(target=waiter)
        t.start()
        while q._waiting == 0:
            time.sleep(0.01)
        drained = []
        d = threading.Thread(target=lambda: drained.append(
            q.drain(timeout_s=5.0)))
        d.start()
        time.sleep(0.05)
        q.release()
        t.join(5.0)
        d.join(5.0)
        assert reasons == ["draining"]
        assert drained == [True] and q.in_flight == 0

    def test_drain_times_out_bounded(self):
        q = AdmissionQueue(capacity=1)
        q.acquire()                     # never released
        t0 = time.monotonic()
        assert not q.drain(timeout_s=0.3)
        assert time.monotonic() - t0 < 5.0


class TestMetrics:
    def test_depth_gauge_and_shed_counter(self):
        reg = MetricsRegistry()
        q = AdmissionQueue(capacity=1, max_wait_s=0.05, registry=reg)
        q.acquire()
        with pytest.raises(ShedRequest):
            q.acquire()
        snap = reg.snapshot()
        depth = [g["value"] for g in snap["gauges"]
                 if g["name"] == "repro_server_queue_depth"]
        shed = [c["value"] for c in snap["counters"]
                if c["name"] == "repro_server_shed_total"
                and c["labels"]["reason"] == "queue-full"]
        assert depth == [1] and shed == [1]


class TestConcurrencyStress:
    def test_many_threads_all_terminate_classified(self):
        # the no-deadlock contract under real contention: every caller
        # either finishes its work or sheds — nobody hangs
        q = AdmissionQueue(capacity=4, max_wait_s=0.5)
        outcomes = []
        lock = threading.Lock()

        def worker():
            try:
                q.acquire()
                try:
                    time.sleep(0.01)
                finally:
                    q.release()
                result = "ok"
            except ShedRequest:
                result = "shed"
            with lock:
                outcomes.append(result)

        threads = [threading.Thread(target=worker) for _ in range(32)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not any(t.is_alive() for t in threads), "worker hung"
        assert len(outcomes) == 32
        assert set(outcomes) <= {"ok", "shed"}
        assert outcomes.count("ok") >= 1
        assert q.in_flight == 0
