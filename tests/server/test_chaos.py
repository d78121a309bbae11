"""The chaos acceptance test (ISSUE 9 acceptance criterion).

A seeded fault scenario — real worker SIGKILLs mid-request, the cache
store's disk yanked away, a watchdog-length stall — driven through the
service, asserting the classified-outcome contract: every accepted
request terminates as ``ok`` / ``degraded`` / ``shed`` /
``invalid-input`` / ``error``, nothing hangs, nothing deadlocks, and a
``/restructure`` result served through the service is byte-identical to
the same pipeline run via the ``repro.experiments --source`` CLI path.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.engine.cache import get_cache
from repro.telemetry import MetricsRegistry

from repro.server.retry import RetryPolicy
from repro.server.service import RestructurerService

REPO = Path(__file__).resolve().parents[2]
SAMPLE = REPO / "examples" / "sample.f"

SRC = """      subroutine axpy(n, a, x, y)
      integer n, i
      real a, x(n), y(n)
      do 10 i = 1, n
         y(i) = y(i) + a * x(i)
   10 continue
      return
      end
"""

CLASSIFIED = {"ok", "degraded", "shed", "invalid-input", "error"}


@pytest.fixture
def chaos_service(tmp_path):
    svc = RestructurerService(
        workers=2, chaos=True, registry=MetricsRegistry(),
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01, seed=42),
        journal_path=tmp_path / "journal.jsonl",
        default_timeout_s=20.0)
    yield svc
    svc.drain(timeout_s=10.0)
    get_cache().disk_error_hook = None


class TestWorkerKill:
    def test_sigkill_mid_request_is_retried_to_success(self,
                                                       chaos_service):
        env = chaos_service.handle("restructure", {
            "source": SRC, "quick": True, "chaos": {"kill_worker": 1}})
        assert env["status"] == "ok"
        assert env["attempts"] == 2 and env["retries"] == 1

    def test_kill_budget_exhaustion_is_classified_error(self,
                                                        chaos_service):
        # more kills than the retry budget: the request must terminate
        # as a classified error, never hang or raise
        env = chaos_service.handle("restructure", {
            "source": SRC, "quick": True, "chaos": {"kill_worker": 99}})
        assert env["status"] == "error"
        assert env["attempts"] == 3
        assert env["fault"]["kind"] == "internal"
        # and the service still works afterwards (pool respawned)
        env = chaos_service.handle("lint", {"source": SRC})
        assert env["status"] in ("ok", "degraded")


class TestStall:
    def test_watchdog_length_stall_retried_to_success(self,
                                                      chaos_service):
        env = chaos_service.handle("restructure", {
            "source": SRC, "quick": True, "timeout_s": 1.0,
            "chaos": {"stall_s": 30.0}})
        assert env["status"] == "ok"
        assert env["attempts"] == 2       # stall fires only once


class TestStoreFailure:
    def test_unwritable_cache_dir_degrades_not_dies(self, tmp_path):
        # a path whose parent is a regular file fails with OSError on
        # every write — even as root (chmod is root-bypassed)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        cache = get_cache()
        old_dir = cache.cache_dir
        cache.cache_dir = blocker / "cache"
        svc = RestructurerService(
            workers=1, registry=MetricsRegistry(),
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))
        try:
            # distinct sources: each is a fresh cache miss, so every
            # request actually touches the failing disk store
            statuses = [svc.handle("restructure",
                                   {"source": SRC.replace(
                                        "axpy", f"ax{i}"),
                                    "quick": True,
                                    "path": f"v{i}.f"})["status"]
                        for i in range(4)]
            # every request terminated classified; once the breaker
            # opened, responses are explicitly degraded to memory-only
            assert set(statuses) <= {"ok", "degraded"}
            assert svc.store_breaker.state == "open"
            assert "cache:memory-only" in \
                svc.handle("lint", {"source": SRC})["degraded"]
            assert cache.cache_dir is None
        finally:
            svc.drain(10.0)
            cache.cache_dir = old_dir
            cache.disk_error_hook = None


class TestEverythingAtOnce:
    def test_mixed_chaos_burst_all_classified(self, chaos_service):
        """The full scenario: kills, stalls, bad input, fault plans and
        clean requests concurrently — every outcome classified, no
        thread hangs."""
        requests = [
            {"source": SRC, "quick": True},
            {"source": SRC, "quick": True,
             "chaos": {"kill_worker": 1}},
            {"source": "m a l f o r m e d"},
            {"source": SRC, "quick": True, "fault_scenario": "chaos"},
            {"source": SRC, "quick": True, "timeout_s": 1.0,
             "chaos": {"stall_s": 30.0}},
            {"source": SRC, "quick": True,
             "chaos": {"kill_worker": 99}},
        ]
        outcomes = [None] * len(requests)

        def drive(i):
            outcomes[i] = chaos_service.handle("restructure",
                                               requests[i])

        threads = [threading.Thread(target=drive, args=(i,))
                   for i in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120.0)
        assert not any(t.is_alive() for t in threads), "request hung"
        statuses = [env["status"] for env in outcomes]
        assert all(s in CLASSIFIED for s in statuses), statuses
        assert statuses[0] in ("ok", "degraded")
        assert statuses[2] == "invalid-input"
        assert outcomes[3]["status"] == "degraded"
        assert outcomes[5]["status"] == "error"
        # in-flight work fully released: nothing leaked a queue slot
        assert chaos_service.queue.in_flight == 0

    def test_shedding_under_deadline_pressure(self, chaos_service):
        # saturate the queue with slow work, then demand an instant
        # answer: the service sheds rather than parks the caller
        chaos_service.queue.capacity = 1
        hold = threading.Event()
        release = threading.Event()

        def occupier():
            chaos_service.queue.acquire()
            hold.set()
            release.wait(30.0)
            chaos_service.queue.release()

        t = threading.Thread(target=occupier)
        t.start()
        assert hold.wait(5.0)
        try:
            env = chaos_service.handle("restructure", {
                "source": SRC, "quick": True, "deadline_s": 0.05})
            assert env["status"] == "shed"
            assert env["reason"] == "deadline"
            assert env["result"] is None
        finally:
            release.set()
            t.join(10.0)


class TestByteIdentity:
    def test_served_result_matches_cli_output(self, chaos_service):
        """The acceptance bar: a /restructure result served through the
        service is byte-identical to the CLI's --source --json path."""
        source = SAMPLE.read_text()
        env = chaos_service.handle("restructure", {
            "source": source, "path": str(SAMPLE), "quick": True})
        assert env["status"] == "ok"
        served = json.dumps(env["result"]["experiment"], indent=2) + "\n"

        cli = subprocess.run(
            [sys.executable, "-m", "repro.experiments", "--source",
             str(SAMPLE), "--quick", "--json"],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            cwd=str(REPO))
        assert cli.returncode == 0, cli.stderr
        assert served == cli.stdout

    def test_served_envelope_validates(self, chaos_service, validator):
        for request in ({"source": SRC, "quick": True},
                        {"source": SRC, "quick": True,
                         "fault_scenario": "chaos"},
                        {"source": "junk"}):
            env = chaos_service.handle("restructure", request)
            problems = validator.validate(env)
            assert problems == [], (request, problems)
        env = chaos_service.handle("lint", {"source": SRC})
        assert validator.validate(env) == []
