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


def counter_values(service, name: str) -> list:
    return [c["value"] for c in service.registry.snapshot()["counters"]
            if c["name"] == name]


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    import time

    give_up = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < give_up, "condition never held"
        time.sleep(0.002)


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
    def test_a_failing_pool_never_moves_work_in_process(self, service):
        """Lost workers are retried and then reported ``error``; no
        request after them is served by the server process itself."""
        from repro.engine.parallel import lost_cell

        def lost(fn, req, label, **kw):
            return None, lost_cell(RuntimeError("worker lost"), label, 0.0)

        service.supervisor.submit = lost
        for _ in range(4):
            env = service.handle("restructure", {"source": SRC,
                                                 "quick": True})
            assert env["status"] == "error" and env["degraded"] == []
            assert env["attempts"] == service.retry.max_attempts
            assert env["fault"]["kind"] == "internal"

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

    def test_drained_service_sheds_without_touching_queue_or_pool(
            self, service):
        assert service.drain(timeout_s=5.0)
        acquired = []
        service.queue.acquire = lambda *a: acquired.append(a)
        for endpoint in ("lint", "restructure"):
            env = service.handle(endpoint, {"source": SRC, "quick": True})
            assert env["status"] == "shed" and env["reason"] == "draining"
            assert env["attempts"] == 1 and env["result"] is None
        assert acquired == []
        sup = service.supervisor
        assert sup._pools == [None] * sup.workers     # no pool rebuilt

    def test_healthz_reports_the_store_breaker(self, service):
        h = service.healthz()
        assert h["breakers"] == {"store": "closed"}
        assert h["in_flight"] == 0


class TestRequestDedup:
    """Identical concurrent /restructure bodies coalesce onto one
    in-flight computation (content-addressed by source + result-shaping
    fields); followers are answered from the leader's outcome, each in
    its own envelope, instead of recomputing."""

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

    def test_follower_shares_the_result_not_the_envelope(self, service):
        import threading

        release = threading.Event()
        canned = {"outcome": "ok", "payload": {"x": 1}, "degraded": []}

        def blocked_attempt(req):
            assert release.wait(10.0)
            return dict(canned)

        service._run_attempt = blocked_attempt
        envs = []

        def call():
            envs.append(service.handle("restructure", dict(self.BODY)))

        leader = threading.Thread(target=call)
        leader.start()
        wait_until(lambda: service._results.pending() == 1)
        follower = threading.Thread(target=call)
        follower.start()
        # the follower is parked on the leader's pending entry
        wait_until(lambda: counter_values(
            service, "repro_server_dedup_total") == [1])
        release.set()
        for t in (leader, follower):
            t.join(timeout=10.0)
            assert not t.is_alive()
        a, b = envs
        assert a["status"] == b["status"] == "ok"
        assert a["result"] == b["result"] == {"x": 1}
        assert a["request_id"] != b["request_id"]
        assert counter_values(service, "repro_server_dedup_total") == [1]
        assert counter_values(service,
                              "repro_server_requests_total") == [2]

    def test_no_pending_entry_survives_a_finished_request(self, service):
        for body in (self.BODY, {"source": "not fortran"},
                     {**self.BODY, "fault_scenario": "chaos"}):
            service.handle("restructure", dict(body))
            assert service._results.pending() == 0

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
        # coalesced followers are answered from the leader's outcome,
        # so payloads agree whether or not the threads overlapped
        results = [e["result"]["experiment"]["experiments"]["source"]
                   for e in envs]
        assert results[0] == results[1] == results[2]


class TestResultTable:
    """The bounded table in front of the pool: what it answers, what it
    refuses to keep, and that it stays bounded."""

    BODY = {"source": SRC, "quick": True}

    @staticmethod
    def count_pool_calls(service) -> list:
        calls = []
        submit = service.supervisor.submit

        def counting(fn, req, label, **kw):
            calls.append(label)
            return submit(fn, req, label, **kw)

        service.supervisor.submit = counting
        return calls

    @staticmethod
    def canned_attempts(service, outcomes=None) -> list:
        """Replace the pool with a stub answering ``outcomes`` in turn
        (then a plain ok echoing the request's source); returns the
        list of sources it was asked for."""
        asked = []
        queue = list(outcomes or [])

        def attempt(req):
            asked.append(req["source"])
            if queue:
                return queue.pop(0)
            return {"outcome": "ok", "payload": {"echo": req["source"]},
                    "degraded": []}

        service._run_attempt = attempt
        return asked

    @pytest.mark.parametrize("extra", [{}, {"fault_scenario": "chaos"}])
    def test_hit_equals_the_pool_computed_result(self, service, extra):
        calls = self.count_pool_calls(service)
        body = {**self.BODY, **extra}
        first = service.handle("restructure", dict(body))
        hit = service.handle("restructure", dict(body))
        assert len(calls) == 1              # the hit never saw the pool
        assert hit["result"] == first["result"]
        assert hit["status"] == first["status"] \
            == ("degraded" if extra else "ok")
        assert hit["degraded"] == first["degraded"]
        assert hit["request_id"] != first["request_id"]
        assert hit["attempts"] == 1 and hit["fault"] is None
        assert set(hit) == ENVELOPE_KEYS
        assert sum(counter_values(
            service, "repro_server_requests_total")) == 2

    def test_chaos_and_lint_bodies_are_not_retained(self, service):
        service.handle("lint", {"source": SRC})
        service.handle("restructure",
                       {**self.BODY, "chaos": {"stall_s": 0.0}})
        assert len(service._results) == 0

    def test_faulted_and_retried_outcomes_are_not_retained(self, service):
        fault = {"outcome": "fault", "fault": {
            "label": "x", "kind": "internal", "error_type": "Boom",
            "message": "boom", "elapsed_s": 0.0, "traceback": "",
            "detail": {}}}
        asked = self.canned_attempts(service, [dict(fault)])
        env = service.handle("restructure", dict(self.BODY))
        assert env["status"] == "ok" and env["attempts"] == 2
        assert len(service._results) == 0
        self.canned_attempts(service, [dict(fault), dict(fault)])
        env = service.handle("restructure", dict(self.BODY))
        assert env["status"] == "error"
        assert len(service._results) == 0
        assert len(asked) == 2

    def test_worker_invalid_input_is_not_retained(self, service):
        env = service.handle("restructure", {"source": "not fortran"})
        assert env["status"] == "invalid-input"
        assert len(service._results) == 0

    def test_hit_under_open_store_breaker_reports_memory_only(
            self, service):
        calls = self.count_pool_calls(service)
        first = service.handle("restructure", dict(self.BODY))
        assert first["status"] == "ok"
        for _ in range(3):
            service.store_breaker.record_failure()
        assert service.store_breaker.state == "open"
        hit = service.handle("restructure", dict(self.BODY))
        assert len(calls) == 1
        assert hit["status"] == "degraded"
        assert hit["degraded"] == ["cache:memory-only"]
        assert hit["result"] == first["result"]

    def test_never_exceeds_its_cap_and_keeps_what_is_reused(
            self, service, monkeypatch):
        from repro.server import service as service_mod

        monkeypatch.setattr(service_mod, "RESULT_TABLE_CAP", 3)
        asked = self.canned_attempts(service)
        for i in range(10):
            service.handle("restructure", {"source": f"s{i}"})
            assert len(service._results) <= 3
            # s0 is asked for again between any two new bodies, so
            # eviction pressure never reaches it
            env = service.handle("restructure", {"source": "s0"})
            assert env["result"] == {"echo": "s0"}
        assert asked.count("s0") == 1
        # an evicted body is simply computed again
        env = service.handle("restructure", {"source": "s1"})
        assert env["result"] == {"echo": "s1"}
        assert asked.count("s1") == 2
        assert len(service._results) <= 3

    def test_pending_entries_are_never_evicted(self, monkeypatch):
        from repro.server import service as service_mod

        monkeypatch.setattr(service_mod, "RESULT_TABLE_CAP", 2)
        table = service_mod._ResultTable()
        a, a_leads = table.claim("a")
        b, b_leads = table.claim("b")
        assert a_leads and b_leads
        # both slots pending: a third key gets no entry, evicts nothing
        assert table.claim("c") == (None, True)
        assert len(table) == 2 and table.pending() == 2
        table.settle("a", a, {"payload": 1, "degraded": []})
        c, c_leads = table.claim("c")       # evicts settled a, not b
        assert c is not None and c_leads
        assert table.claim("b") == (b, False)
        assert table.claim("a") == (None, True)
        assert len(table) == 2 and table.pending() == 2

    def test_concurrent_mixed_keys_stress(self, service, monkeypatch):
        """More threads than cores over fewer slots than keys: every
        answer is the right one for its body, the table stays within
        its cap, nothing is left pending, every request is counted."""
        import sys
        import threading

        from repro.server import service as service_mod

        monkeypatch.setattr(service_mod, "RESULT_TABLE_CAP", 4)
        self.canned_attempts(service)
        service.queue.capacity = 64
        wrong, over_cap = [], []

        def client(i):
            for n in range(40):
                src = f"s{(i * 7 + n) % 9}"
                env = service.handle("restructure", {"source": src})
                if env["result"] != {"echo": src}:
                    wrong.append((src, env))
                if len(service._results) > 4:
                    over_cap.append(len(service._results))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == [] and over_cap == []
        assert service._results.pending() == 0
        assert sum(counter_values(
            service, "repro_server_requests_total")) == 8 * 40
