"""Worker supervisor: crash containment, deadlines, respawn."""

import os
import threading
import time

from repro.telemetry import MetricsRegistry

from repro.server.supervisor import WorkerSupervisor


# --- module-level cell functions (must be picklable) -----------------------


def echo(arg):
    return {"outcome": "ok", "payload": arg, "pid": os.getpid()}


def die(arg):
    os._exit(9)       # a real mid-request worker death


def sleep_forever(arg):
    time.sleep(60.0)
    return {"outcome": "ok"}


def nap_then_echo(arg):
    time.sleep(0.5)
    return echo(arg)


class TestHappyPath:
    def test_result_passes_through(self):
        sup = WorkerSupervisor(workers=1)
        try:
            result, fault = sup.submit(echo, {"x": 1}, "r1")
            assert fault is None
            assert result["payload"] == {"x": 1}
            assert result["pid"] != os.getpid()   # ran in a worker
        finally:
            sup.shutdown()

    def test_submit_after_shutdown_rebuilds_pool(self):
        sup = WorkerSupervisor(workers=1)
        try:
            sup.submit(echo, 1, "r1")
            sup.shutdown()
            result, fault = sup.submit(echo, 2, "r2")
            assert fault is None and result["payload"] == 2
        finally:
            sup.shutdown()


class TestCrashContainment:
    def test_worker_death_is_a_classified_fault(self):
        sup = WorkerSupervisor(workers=1)
        try:
            result, fault = sup.submit(die, None, "r1")
            assert result is None
            assert fault.kind == "internal"
            assert fault.error_type == "BrokenProcessPool"
            assert fault.elapsed_s > 0.0
        finally:
            sup.shutdown()

    def test_pool_respawns_after_crash(self):
        reg = MetricsRegistry()
        sup = WorkerSupervisor(workers=1, registry=reg)
        try:
            _, fault = sup.submit(die, None, "r1")
            assert fault is not None
            # the next request finds a healthy pool
            result, fault = sup.submit(echo, "alive", "r2")
            assert fault is None and result["payload"] == "alive"
            respawns = [c["value"] for c in reg.snapshot()["counters"]
                        if c["name"]
                        == "repro_server_worker_respawns_total"]
            assert respawns == [1]
        finally:
            sup.shutdown()

    def test_a_death_takes_no_other_request_with_it(self):
        sup = WorkerSupervisor(workers=2)
        try:
            beside = []
            t = threading.Thread(target=lambda: beside.append(
                sup.submit(nap_then_echo, "beside", "r1")))
            t.start()
            time.sleep(0.1)             # r1 is running in its worker
            _, fault = sup.submit(die, None, "r2")
            assert fault is not None and fault.kind == "internal"
            t.join(30.0)
            result, fault = beside[0]
            assert fault is None and result["payload"] == "beside"
        finally:
            sup.shutdown()


class TestDeadlines:
    def test_wedged_worker_is_killed_and_classified(self):
        sup = WorkerSupervisor(workers=1)
        try:
            t0 = time.monotonic()
            result, fault = sup.submit(sleep_forever, None, "r1",
                                       timeout_s=0.5)
            elapsed = time.monotonic() - t0
            assert result is None
            assert fault.kind == "timeout"
            assert "deadline" in fault.message
            assert elapsed < 30.0     # did not wait out the sleep
            # and the pool recovered
            result, fault = sup.submit(echo, "next", "r2")
            assert fault is None and result["payload"] == "next"
        finally:
            sup.shutdown()

    def test_the_wait_for_a_free_worker_is_bounded(self):
        sup = WorkerSupervisor(workers=1)
        try:
            busy = threading.Thread(target=lambda: sup.submit(
                nap_then_echo, "busy", "r1"))
            busy.start()
            time.sleep(0.1)             # r1 holds the only worker
            result, fault = sup.submit(echo, "late", "r2", timeout_s=0.1)
            assert result is None and fault.kind == "timeout"
            assert "no worker came free" in fault.message
            busy.join(30.0)
            # nothing was killed: the busy worker serves the next request
            result, fault = sup.submit(echo, "next", "r3")
            assert fault is None and result["payload"] == "next"
        finally:
            sup.shutdown()
