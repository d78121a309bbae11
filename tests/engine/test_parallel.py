"""The order-preserving parallel executor (repro.engine.parallel)."""

import os

import pytest

from repro.engine.parallel import WorkerCrash, parallel_map


# --- module-level cell functions (must be picklable) -----------------------


def square(x):
    return x * x


def slow_inverse_square(x):
    # later items finish first: order preservation must not depend on
    # completion order
    import time

    time.sleep(0.05 * (4 - x))
    return x * x


def pid_tag(x):
    return (x, os.getpid())


def boom(x):
    if x == 2:
        raise ValueError(f"cell {x} exploded")
    return x


def hard_exit(x):
    if x == 1:
        os._exit(17)      # simulates a segfault/OOM-killed worker
    return x


def sleep_then_boom(x):
    import time

    if x == 1:
        time.sleep(0.15)
        raise RuntimeError("slow death")
    return x


def exit_on_odd(x):
    if x % 2 == 1:
        os._exit(9)       # several workers die in one sweep
    return x


class TestSerialPath:
    def test_maps_in_order(self):
        assert parallel_map(square, [1, 2, 3], jobs=1) == [1, 4, 9]

    def test_single_item_stays_in_process(self):
        [(v, pid)] = parallel_map(pid_tag, [7], jobs=8)
        assert v == 7 and pid == os.getpid()

    def test_on_result_fires_in_order(self):
        seen = []
        parallel_map(square, [1, 2, 3], jobs=1,
                     on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 1), (1, 4), (2, 9)]

    def test_serial_exception_propagates(self):
        # jobs<=1 is a plain map: isolation is the cell's own job
        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2, 3], jobs=1)


class TestParallelPath:
    def test_results_in_submission_order(self):
        assert parallel_map(slow_inverse_square, [1, 2, 3],
                            jobs=3) == [1, 4, 9]

    def test_runs_in_worker_processes(self):
        out = parallel_map(pid_tag, [1, 2, 3, 4], jobs=2)
        assert [v for v, _ in out] == [1, 2, 3, 4]
        assert any(pid != os.getpid() for _, pid in out)

    def test_on_result_fires_in_order(self):
        seen = []
        parallel_map(slow_inverse_square, [1, 2, 3], jobs=3,
                     on_result=lambda i, r: seen.append(i))
        assert seen == [0, 1, 2]

    def test_cell_exception_becomes_worker_crash(self):
        out = parallel_map(boom, [1, 2, 3], jobs=2,
                           labels=["a", "b", "c"])
        assert out[0] == 1 and out[2] == 3
        crash = out[1]
        assert isinstance(crash, WorkerCrash)
        assert crash.label == "b"
        assert "exploded" in crash.message

    def test_dead_worker_becomes_worker_crash(self):
        out = parallel_map(hard_exit, [0, 1, 2], jobs=2)
        assert isinstance(out[1], WorkerCrash)
        # positions of unaffected results are preserved (a broken pool
        # may take siblings down with it — those also become crashes)
        assert all(r == i or isinstance(r, WorkerCrash)
                   for i, r in enumerate(out))

    def test_crash_fault_dict_shape(self):
        fd = WorkerCrash(label="cell", message="died").to_fault_dict()
        assert fd["kind"] == "internal"
        assert fd["error_type"] == "WorkerCrash"
        assert fd["label"] == "cell" and fd["message"] == "died"
        # shape-compatible with FaultReport.to_dict()
        from repro.faults.harness import FaultReport

        assert set(fd) == set(
            FaultReport(label="x", kind="internal", error_type="E",
                        message="m").to_dict())

    def test_crash_stamped_with_index_and_duration(self):
        out = parallel_map(boom, [1, 2, 3], jobs=2)
        crash = out[1]
        assert isinstance(crash, WorkerCrash)
        assert crash.index == 1
        assert crash.duration_s >= 0.0
        fd = crash.to_fault_dict()
        assert fd["detail"] == {"cell_index": 1}
        assert fd["elapsed_s"] == crash.duration_s

    def test_crash_message_carries_traceback_tail(self):
        out = parallel_map(boom, [1, 2, 3], jobs=2)
        crash = out[1]
        assert crash.message.startswith("ValueError: cell 2 exploded")
        # the tail of the worker's traceback rides along for diagnosis
        assert "in boom" in crash.message
        assert "raise ValueError" in crash.message

    def test_dead_worker_crash_stamped_with_index(self):
        out = parallel_map(hard_exit, [0, 1, 2], jobs=2)
        for i, r in enumerate(out):
            if isinstance(r, WorkerCrash):
                assert r.index == i
                assert r.duration_s >= 0.0

    def test_crash_duration_measures_cell_runtime(self):
        # a cell that runs before dying carries the measured wall-clock,
        # not a zero placeholder — telemetry attributes the lost time
        out = parallel_map(sleep_then_boom, [0, 1, 2], jobs=2)
        crash = out[1]
        assert isinstance(crash, WorkerCrash)
        assert crash.duration_s >= 0.15
        assert crash.to_fault_dict()["elapsed_s"] == crash.duration_s

    def test_multiple_kills_preserve_positions_and_labels(self):
        # several workers dying in one sweep must not shift surviving
        # results or mislabel the crash entries
        labels = [f"cell-{i}" for i in range(6)]
        out = parallel_map(exit_on_odd, list(range(6)), jobs=3,
                           labels=labels)
        assert len(out) == 6
        for i, r in enumerate(out):
            if isinstance(r, WorkerCrash):
                assert r.label == labels[i]
            else:
                assert r == i and i % 2 == 0

    def test_on_result_sees_crashes_in_order(self):
        # incremental journaling (the server's durability hook) must
        # observe crash entries at their submission position
        seen = []
        parallel_map(hard_exit, [0, 1, 2], jobs=2,
                     on_result=lambda i, r: seen.append(
                         (i, isinstance(r, WorkerCrash))))
        assert [i for i, _ in seen] == [0, 1, 2]
        assert any(crashed for _, crashed in seen)


def test_serial_and_parallel_agree():
    items = list(range(10))
    assert parallel_map(square, items, jobs=1) \
        == parallel_map(square, items, jobs=4)


def log_then_boom(x):
    from repro.telemetry.log import get_logger

    get_logger("worker").info("about_to_work", item=x)
    if x == 2:
        raise ValueError(f"cell {x} exploded")
    return x


class TestFlightRecorderInCrashes:
    def test_worker_crash_carries_flight_tail(self, tmp_path):
        from repro.telemetry import log

        log.configure("debug", path=tmp_path / "log.jsonl")
        try:
            out = parallel_map(log_then_boom, [1, 2, 3], jobs=2,
                               labels=["a", "b", "c"])
        finally:
            log.shutdown()
        crash = out[1]
        assert isinstance(crash, WorkerCrash)
        events = crash.to_fault_dict()["detail"]["flight_recorder"]
        # the worker's own last moments: the log line it emitted just
        # before raising, and the cell_failed record itself
        assert any(e.get("event") == "about_to_work"
                   and e.get("fields", {}).get("item") == 2
                   for e in events)
        assert any(e.get("event") == "cell_failed" for e in events)

    def test_no_flight_when_logging_off(self):
        out = parallel_map(boom, [1, 2, 3], jobs=2)
        fd = out[1].to_fault_dict()
        assert "flight_recorder" not in fd["detail"]
