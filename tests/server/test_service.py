"""Service orchestration: envelopes, degradation ladder, durability."""

import pytest

from repro.engine.cache import get_cache
from repro.faults.harness import SweepJournal
from repro.telemetry import MetricsRegistry

from repro.server.retry import RetryPolicy
from repro.server.service import SERVER_SCHEMA, RestructurerService

SRC = """      subroutine axpy(n, a, x, y)
      integer n, i
      real a, x(n), y(n)
      do 10 i = 1, n
         y(i) = y(i) + a * x(i)
   10 continue
      return
      end
"""

ENVELOPE_KEYS = {"schema", "request_id", "endpoint", "status",
                 "attempts", "retries", "degraded", "reason",
                 "elapsed_s", "result", "fault"}


@pytest.fixture
def service():
    svc = RestructurerService(
        workers=1, registry=MetricsRegistry(),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))
    # the constructor installs a breaker hook on the process-wide
    # cache; detach it so later tests see a pristine cache
    yield svc
    svc.drain(timeout_s=5.0)
    get_cache().disk_error_hook = None


class TestEnvelope:
    def test_ok_envelope_shape(self, service):
        env = service.handle("restructure", {"source": SRC,
                                             "quick": True})
        assert set(env) == ENVELOPE_KEYS
        assert env["schema"] == SERVER_SCHEMA
        assert env["status"] == "ok"
        assert env["attempts"] == 1 and env["retries"] == 0
        assert env["degraded"] == [] and env["fault"] is None
        assert env["result"]["experiment"]["schema"] \
            == "repro-experiment/1"
        assert env["request_id"].startswith("req-")

    def test_request_ids_are_unique(self, service):
        ids = {service.handle("lint", {"source": SRC})["request_id"]
               for _ in range(3)}
        assert len(ids) == 3

    def test_lint_endpoint_returns_lint_payload(self, service):
        env = service.handle("lint", {"source": SRC})
        assert env["status"] == "ok"
        assert env["result"]["schema"] == "repro-lint/1"

    def test_malformed_source_is_invalid_input(self, service):
        env = service.handle("restructure", {"source": "not fortran"})
        assert env["status"] == "invalid-input"
        assert env["attempts"] == 1      # terminal: never retried
        assert "lint error" in env["reason"]
        assert env["result"] is None

    def test_missing_source_is_invalid_input(self, service):
        for bad in (None, [], {}, {"source": ""}, {"source": 42}):
            env = service.handle("restructure", bad)
            assert env["status"] == "invalid-input", bad

    def test_unknown_scenario_is_invalid_input(self, service):
        env = service.handle("restructure", {
            "source": SRC, "fault_scenario": "nope"})
        assert env["status"] == "invalid-input"
        assert "unknown fault scenario" in env["reason"]

    def test_fault_scenario_degrades_but_serves(self, service):
        env = service.handle("restructure", {
            "source": SRC, "quick": True, "fault_scenario": "chaos"})
        assert env["status"] == "degraded"
        assert "fault-scenario:chaos" in env["degraded"]
        table = env["result"]["experiment"]["experiments"]["source"]
        assert table["meta"]["fault_scenario"] == "chaos"


class TestMetrics:
    def test_requests_counted_by_status(self, service):
        service.handle("restructure", {"source": SRC, "quick": True})
        service.handle("restructure", {"source": "junk"})
        got = {(c["labels"]["endpoint"], c["labels"]["status"]):
               c["value"]
               for c in service.registry.snapshot()["counters"]
               if c["name"] == "repro_server_requests_total"}
        assert got[("restructure", "ok")] == 1
        assert got[("restructure", "invalid-input")] == 1


class TestDurability:
    def test_journal_records_accept_and_done(self, tmp_path):
        journal = tmp_path / "server.jsonl"
        svc = RestructurerService(workers=1, registry=MetricsRegistry(),
                                  journal_path=journal)
        try:
            env = svc.handle("lint", {"source": SRC})
        finally:
            svc.drain(5.0)
            get_cache().disk_error_hook = None
        j = SweepJournal(journal)
        rid = env["request_id"]
        assert f"accept:{rid}" in j
        assert f"done:{rid}" in j
        assert j.payload(f"done:{rid}")["status"] == "ok"

    def test_restart_reports_lost_in_flight(self, tmp_path):
        journal = tmp_path / "server.jsonl"
        # simulate a server that died mid-request: accept, no done
        j = SweepJournal(journal)
        j.record("accept:req-999-00001", {"endpoint": "restructure"})
        j.record("accept:req-999-00002", {"endpoint": "lint"})
        j.record("done:req-999-00002", {"status": "ok"})
        svc = RestructurerService(workers=1, registry=MetricsRegistry(),
                                  journal_path=journal)
        try:
            assert svc.lost_on_restart == ["req-999-00001"]
            assert svc.healthz()["lost_on_restart"] \
                == ["req-999-00001"]
            # the loss is journaled, so a *second* restart is clean
            svc2 = RestructurerService(workers=1,
                                       registry=MetricsRegistry(),
                                       journal_path=journal)
            try:
                assert svc2.lost_on_restart == []
            finally:
                svc2.drain(5.0)
        finally:
            svc.drain(5.0)
            get_cache().disk_error_hook = None


class TestDegradationLadder:
    def test_open_pool_breaker_serves_serially(self, service):
        service.pool_breaker.record_failure()
        service.pool_breaker.record_failure()
        service.pool_breaker.record_failure()
        assert service.pool_breaker.state == "open"
        env = service.handle("restructure", {"source": SRC,
                                             "quick": True})
        assert env["status"] == "degraded"
        assert "pool:serial" in env["degraded"]
        # the serial result is the full-fidelity artifact
        assert env["result"]["experiment"]["schema"] \
            == "repro-experiment/1"

    def test_open_store_breaker_goes_memory_only(self, service,
                                                 tmp_path):
        cache = get_cache()
        old_dir = cache.cache_dir
        cache.cache_dir = tmp_path
        try:
            service.store_breaker.record_failure()
            service.store_breaker.record_failure()
            service.store_breaker.record_failure()
            assert service.store_breaker.state == "open"
            env = service.handle("lint", {"source": SRC})
            assert env["status"] == "degraded"
            assert "cache:memory-only" in env["degraded"]
            assert cache.cache_dir is None      # disk store disabled
        finally:
            cache.cache_dir = old_dir

    def test_cache_disk_errors_feed_store_breaker(self, service):
        hook = get_cache().disk_error_hook
        assert hook is not None
        for _ in range(3):
            hook(OSError("disk on fire"))
        assert service.store_breaker.state == "open"


class TestLifecycle:
    def test_drain_flips_readyz(self, service):
        assert service.readyz() == {"ready": True}
        assert service.drain(timeout_s=5.0)
        assert service.readyz() == {"ready": False}
        assert service.healthz()["status"] == "draining"

    def test_healthz_reports_breakers(self, service):
        h = service.healthz()
        assert h["breakers"] == {"store": "closed", "pool": "closed"}
        assert h["in_flight"] == 0


class TestRequestDedup:
    """Identical concurrent /restructure bodies coalesce onto one
    in-flight computation (content-addressed by source + result-shaping
    fields); followers ride the leader's envelope instead of
    recomputing."""

    BODY = {"source": SRC, "quick": True}

    def test_identical_bodies_share_a_key(self, service):
        k1 = service._dedup_key("restructure", dict(self.BODY))
        k2 = service._dedup_key("restructure", dict(self.BODY))
        assert k1 is not None and k1 == k2

    def test_result_shaping_fields_split_the_key(self, service):
        base = service._dedup_key("restructure", dict(self.BODY))
        for extra in ({"quick": False}, {"fault_scenario": "chaos"},
                      {"path": "x.f"}):
            other = service._dedup_key("restructure",
                                       {**self.BODY, **extra})
            assert other is not None and other != base, extra

    def test_engine_is_just_an_unknown_field(self, service):
        """/restructure never runs an interpreter, so it has no engine
        to select: a body carrying ``engine`` (any value) is served like
        one carrying any other unknown field — same key, same result."""
        base = service._dedup_key("restructure", dict(self.BODY))
        plain = service.handle("restructure", dict(self.BODY))
        for extra in ({"engine": "source"}, {"no_such_field": 1}):
            body = {**self.BODY, **extra}
            assert service._dedup_key("restructure", body) == base
            env = service.handle("restructure", body)
            assert env["status"] == "ok"
            assert env["result"] == plain["result"]

    def test_chaos_and_lint_never_coalesce(self, service):
        assert service._dedup_key(
            "restructure", {**self.BODY, "chaos": {"stall_s": 1}}) is None
        assert service._dedup_key("lint", dict(self.BODY)) is None

    def test_follower_rides_leader_envelope(self, service):
        import threading

        from repro.server.service import _InflightRequest

        key = service._dedup_key("restructure", dict(self.BODY))
        cell = service._inflight[key] = _InflightRequest()
        got = {}

        def follower():
            got["env"] = service.handle("restructure", dict(self.BODY))

        t = threading.Thread(target=follower)
        t.start()
        # the follower is parked on the in-flight cell; publish the
        # leader's envelope and it must return that object verbatim
        leader_env = {"schema": SERVER_SCHEMA, "status": "ok",
                      "request_id": "req-leader", "result": {"x": 1}}
        cell.envelope = leader_env
        cell.done.set()
        t.join(timeout=10.0)
        assert not t.is_alive()
        assert got["env"] is leader_env
        dedups = [c["value"]
                  for c in service.registry.snapshot()["counters"]
                  if c["name"] == "repro_server_dedup_total"]
        assert dedups == [1]
        del service._inflight[key]

    def test_leader_clears_the_inflight_table(self, service):
        env = service.handle("restructure", dict(self.BODY))
        assert env["status"] == "ok"
        assert service._inflight == {}

    def test_concurrent_identical_requests_all_serve(self, service):
        import threading

        envs = []
        lock = threading.Lock()

        def call():
            env = service.handle("restructure", dict(self.BODY))
            with lock:
                envs.append(env)

        threads = [threading.Thread(target=call) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120.0)
        assert len(envs) == 3
        assert all(e["status"] == "ok" for e in envs)
        # coalesced followers return the leader's envelope verbatim, so
        # payloads agree whether or not the threads actually overlapped
        results = [e["result"]["experiment"]["experiments"]["source"]
                   for e in envs]
        assert results[0] == results[1] == results[2]
