"""Hardened harness: watchdog, crash isolation, checkpoint journal."""

import signal
import threading
import time

import pytest

from repro.errors import BudgetExceededError, ReproError
from repro.faults.harness import (FaultReport, SweepJournal, run_isolated,
                                  watchdog)

HAS_SIGALRM = hasattr(signal, "SIGALRM")


def _busy_wait(seconds: float) -> None:
    """Spin in Python bytecodes (async-exception interruptible), unlike
    ``time.sleep`` which blocks in C until it returns."""
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        pass


class TestWatchdog:
    def test_disabled_is_a_noop(self):
        for seconds in (None, 0, -1.0):
            with watchdog(seconds):
                pass

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
    def test_fires_on_timeout(self):
        with pytest.raises(BudgetExceededError, match="wall-clock"):
            with watchdog(0.05, label="sleepy"):
                time.sleep(5.0)

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
    def test_no_fire_when_fast(self):
        with watchdog(5.0):
            x = sum(range(100))
        assert x == 4950
        # the alarm must be fully disarmed afterwards
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
    def test_nested_inner_fires_and_outer_restored(self):
        with watchdog(30.0, label="outer"):
            with pytest.raises(BudgetExceededError, match="inner"):
                with watchdog(0.05, label="inner"):
                    time.sleep(5.0)
            # back under the outer guard: timer re-armed
            assert signal.getitimer(signal.ITIMER_REAL)[0] > 0.0
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
    def test_nested_block_does_not_extend_the_outer_budget(self):
        # the outer alarm is re-armed with what is left of it, not with
        # what was left when the inner block entered
        t0 = time.monotonic()
        with pytest.raises(BudgetExceededError, match="outer"):
            with watchdog(0.5, label="outer"):
                with watchdog(5.0, label="inner"):
                    time.sleep(0.3)
                time.sleep(5.0)
        assert time.monotonic() - t0 < 0.75
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
    def test_outer_budget_spent_inside_a_nested_block_fires_at_once(self):
        with pytest.raises(BudgetExceededError, match="outer"):
            with watchdog(0.2, label="outer"):
                with watchdog(5.0, label="inner"):
                    time.sleep(0.3)
                # nothing runs past the exhausted outer budget
                pytest.fail("outer watchdog did not fire")
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


class TestWatchdogThreadFallback:
    """Watchdogs armed off the main thread use the timer fallback —
    they must fire, not silently degrade to a no-op."""

    def _in_thread(self, fn):
        box = {}

        def runner():
            try:
                box["result"] = fn()
            except BaseException as exc:  # noqa: BLE001 - test capture
                box["error"] = exc

        t = threading.Thread(target=runner)
        t.start()
        t.join(30.0)
        assert not t.is_alive(), "worker thread hung"
        return box

    def test_fires_in_worker_thread(self):
        def work():
            with watchdog(0.05, label="threaded"):
                _busy_wait(10.0)

        box = self._in_thread(work)
        assert isinstance(box.get("error"), BudgetExceededError)
        # the async-raised error is re-stamped with the label/budget text
        assert "threaded" in str(box["error"])
        assert "wall-clock" in str(box["error"])

    def test_no_fire_when_fast_in_thread(self):
        def work():
            with watchdog(5.0, label="quick"):
                return sum(range(1000))

        box = self._in_thread(work)
        assert box.get("result") == 499500 and "error" not in box

    def test_late_fire_does_not_leak_into_later_code(self):
        # the timer firing just as the block completes must never
        # deliver the timeout into unrelated code after the watchdog
        def work():
            for _ in range(50):
                with watchdog(0.001, label="racy"):
                    pass        # completes ~when the timer fires
                _busy_wait(0.002)   # pending exc would surface here
            return "survived"

        box = self._in_thread(work)
        assert box.get("result") == "survived", box.get("error")

    def test_nested_inner_fires_outer_still_armed(self):
        def work():
            events = []
            with watchdog(0.5, label="outer"):
                try:
                    with watchdog(0.05, label="inner"):
                        _busy_wait(10.0)
                except BudgetExceededError as exc:
                    events.append(("inner", str(exc)))
                # the outer timer is independent: it must still fire
                try:
                    _busy_wait(10.0)
                except BudgetExceededError as exc:
                    events.append(("outer", str(exc)))
            return events

        box = self._in_thread(work)
        events = box.get("result")
        assert events is not None, box.get("error")
        assert [name for name, _ in events] == ["inner", "outer"]
        assert "inner" in events[0][1]
        assert "outer" in events[1][1]

    def test_run_isolated_timeout_in_thread(self):
        # the composition sweeps/the server actually use: run_isolated
        # off the main thread classifies a stall as kind "timeout"
        def work():
            return run_isolated(lambda: _busy_wait(10.0),
                                label="stall", timeout=0.05)

        box = self._in_thread(work)
        result, fault = box["result"]
        assert result is None
        assert fault.kind == "timeout"


class TestRunIsolated:
    def test_success_passes_result_through(self):
        result, fault = run_isolated(lambda: 42, label="ok")
        assert result == 42 and fault is None

    def test_repro_error_is_kind_error(self):
        def boom():
            raise ReproError("modelled failure")

        result, fault = run_isolated(boom, label="w")
        assert result is None
        assert fault.kind == "error"
        assert fault.error_type == "ReproError"
        assert "modelled failure" in fault.message

    def test_unexpected_error_is_kind_internal(self):
        result, fault = run_isolated(lambda: 1 / 0, label="w")
        assert fault.kind == "internal"
        assert fault.error_type == "ZeroDivisionError"
        assert "ZeroDivisionError" in fault.traceback

    @pytest.mark.skipif(not HAS_SIGALRM, reason="needs SIGALRM")
    def test_timeout_is_kind_timeout(self):
        result, fault = run_isolated(lambda: time.sleep(5.0),
                                     label="slow", timeout=0.05)
        assert fault.kind == "timeout"
        assert fault.elapsed_s < 2.0

    def test_never_isolates_system_exit(self):
        with pytest.raises(SystemExit):
            run_isolated(lambda: (_ for _ in ()).throw(SystemExit(3)),
                         label="w")

    def test_report_round_trips_to_dict(self):
        _, fault = run_isolated(lambda: 1 / 0, label="w")
        d = fault.to_dict()
        assert set(d) == {"label", "kind", "error_type", "message",
                          "elapsed_s", "traceback", "detail"}

    def test_traceback_trimmed(self):
        def deep(n=0):
            if n > 400:
                raise ValueError("bottom")
            deep(n + 1)

        _, fault = run_isolated(deep, label="w")
        assert len(fault.traceback) <= 4100
        assert "bottom" in fault.traceback  # the tail is what's kept


class TestSweepJournal:
    def test_none_path_is_noop(self):
        j = SweepJournal(None)
        j.record("a", {"x": 1})
        assert "a" in j and j.payload("a") == {"x": 1}
        j.clear()

    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = SweepJournal(path)
        j.record("tridag:chaos", {"ok": True})
        j.record("cg:healthy", {"ok": False})
        j2 = SweepJournal(path)
        assert "tridag:chaos" in j2 and "cg:healthy" in j2
        assert j2.payload("cg:healthy") == {"ok": False}
        assert set(j2.completed) == {"tridag:chaos", "cg:healthy"}

    def test_torn_tail_tolerated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = SweepJournal(path)
        j.record("done", {"n": 1})
        with path.open("a") as fh:
            fh.write('{"key": "half-writ')  # killed mid-write
        j2 = SweepJournal(path)
        assert "done" in j2
        assert "half-writ" not in j2.completed

    def test_torn_middle_line_resume(self, tmp_path):
        # a torn write is not always the tail: a crashed parallel writer
        # can leave a mangled line *between* intact ones — resume must
        # keep every intact entry on both sides
        path = tmp_path / "journal.jsonl"
        j = SweepJournal(path)
        j.record("first", {"n": 1})
        j.record("second", {"n": 2})
        lines = path.read_text().splitlines()
        lines.insert(1, '{"key": "torn-mid')    # mid-line torn write
        path.write_text("\n".join(lines) + "\n")
        j2 = SweepJournal(path)
        assert "first" in j2 and "second" in j2
        assert j2.payload("second") == {"n": 2}
        assert set(j2.completed) == {"first", "second"}

    def test_record_after_torn_resume(self, tmp_path):
        # resuming over a torn line and then recording more work must
        # append cleanly; a third load sees old and new entries
        path = tmp_path / "journal.jsonl"
        j = SweepJournal(path)
        j.record("done", {"n": 1})
        with path.open("a") as fh:
            fh.write('{"key": "half')          # killed mid-write
        j2 = SweepJournal(path)
        j2.record("later", {"n": 2})
        j3 = SweepJournal(path)
        assert set(j3.completed) == {"done", "later"}
        assert j3.payload("later") == {"n": 2}

    def test_clear_removes_file(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        j = SweepJournal(path)
        j.record("a")
        assert path.exists()
        j.clear()
        assert not path.exists() and "a" not in j


class TestFaultReportClassification:
    def test_budget_beats_repro(self):
        # BudgetExceededError is a ReproError; timeout must win
        fr = FaultReport.from_exception("w", BudgetExceededError("late"))
        assert fr.kind == "timeout"
