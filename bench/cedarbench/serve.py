"""The ``serve-mixed`` workload: a real ``python -m repro.server``
subprocess driven over real sockets by a closed loop of two connections.

One pass is a seeded schedule of requests — 55 % hot ``/restructure``
(the canonical sources, sent in identical pairs so concurrent duplicates
reach the in-flight dedup table), 25 % cold ``/restructure`` (the same
sources under a unique comment card, hence a new content address), 10 %
``/lint``, 5 % malformed and 5 % ``fault_scenario``.  The server is
long-lived, so it is warmed before timing.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

from cedarbench.common import (ROOT, Op, Tracer, child_env, percentile,
                               tree_peak_rss_mb)

PASS_REQUESTS = 160
SMOKE_REQUESTS = 60
SERVER_JOBS = 2
MIX = (("hot", 0.55), ("cold", 0.25), ("lint", 0.10), ("malformed", 0.05))
#: cold bodies whose result is recomputed in-process and compared, per run
COLD_RESULT_CHECKS = 22

HTTP_OF_STATUS = {"ok": 200, "degraded": 200, "invalid-input": 422,
                  "shed": 429, "error": 500}

MALFORMED_BODIES = (
    b"{nope",                                      # not JSON at all
    json.dumps({"source": "   "}).encode(),        # empty source
    json.dumps({"source": "n o t fortran\n"}).encode(),  # lint errors
)


@dataclass
class Request:
    kind: str
    path: str                  # URL path
    body: bytes
    expect: str                # envelope status class
    check_key: Optional[tuple] = None   # what to recompute in-process


@dataclass
class Response:
    http: int
    envelope: dict


class Connection:
    """A keep-alive HTTP/1.1 client: one ``sendall`` per request on a
    ``TCP_NODELAY`` socket, so the client adds no Nagle delay of its own."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode()
        self.sock.sendall(head + body)
        status = self.reader.readline().split()
        if len(status) < 2:
            raise ConnectionError("server closed the connection")
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.partition(b":")
            if key.lower() == b"content-length":
                length = int(value)
        return int(status[1]), self.reader.read(length)

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


class Server:
    """The server subprocess; ``ready_seconds`` is spawn (at
    ``spawned``, a ``perf_counter`` reading) → first 200 from ``/readyz``."""

    def __init__(self):
        t0 = self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0",
             "--jobs", str(SERVER_JOBS)],
            stderr=subprocess.PIPE, text=True, env=child_env(),
            cwd=str(ROOT))
        try:
            line = self.proc.stderr.readline().strip()
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            self.port = int(line.rsplit(":", 1)[1])
            # keep the pipe drained so the server never blocks on it
            self._drain = threading.Thread(
                target=lambda: [None for _ in self.proc.stderr], daemon=True)
            self._drain.start()
            conn = Connection(self.port)
            try:
                while conn.request("GET", "/readyz")[0] != 200:
                    time.sleep(0.01)
            finally:
                conn.close()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_seconds = time.perf_counter() - t0

    def metrics_text(self) -> str:
        conn = Connection(self.port)
        try:
            return conn.request("GET", "/metrics")[1].decode()
        finally:
            conn.close()

    def stop(self) -> None:
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._drain.join(10.0)


def counter_total(metrics_text: str, name: str) -> float:
    """Sum of one Prometheus counter over all its label sets."""
    return sum(float(line.rsplit(" ", 1)[1])
               for line in metrics_text.splitlines()
               if line.startswith(name)
               and line[len(name):len(name) + 1] in ("{", " "))


class ServeMixed:
    name = "serve-mixed"
    entry_module = "repro.server.__main__"
    repeats_ops = False         # every pass sends a new schedule

    def __init__(self, seed: int, smoke: bool = False):
        from repro.faults.plan import SCENARIO_SPECS, scenario
        from repro.workloads import validation_cases

        self.seed = seed
        self.requests_per_pass = SMOKE_REQUESTS if smoke else PASS_REQUESTS
        self._cases = validation_cases()
        self.names = sorted(self._cases)
        self.active_scenarios = [s for s in SCENARIO_SPECS
                                 if scenario(s).active]
        self.clients = min(2, os.cpu_count() or 1)
        self.server: Optional[Server] = None
        self.passes_built = 0

    # -- inputs --------------------------------------------------------

    def _body(self, name: str, card: str = "", **extra) -> bytes:
        source = self._cases[name].source
        if card:
            source = f"c {card}\n" + source
        return json.dumps({"source": source, "path": f"{name}.f",
                           **extra}).encode()

    def schedule(self, index: int) -> list[Request]:
        """The request list of pass ``index``: the mix is fixed, the
        seed picks which sources fill it, their order and the cards."""
        rng = random.Random(f"{self.seed}:{index}")
        n = self.requests_per_pass
        counts = {kind: round(share * n) for kind, share in MIX}
        counts["hot"] -= counts["hot"] % 2
        counts["fault"] = n - sum(counts.values())
        order = self.names[:]
        rng.shuffle(order)
        pick = itertools.cycle(order)
        slots: list[list[Request]] = []
        for _ in range(counts["hot"] // 2):
            name = next(pick)
            req = Request("hot", "/restructure", self._body(name), "ok",
                          ("restructure", name, "", None))
            slots.append([req, req])
        for i in range(counts["cold"]):
            name, card = next(pick), f"bench {self.seed} {index} {i}"
            slots.append([Request("cold", "/restructure",
                                  self._body(name, card), "ok",
                                  ("restructure", name, card, None))])
        for _ in range(counts["lint"]):
            name = next(pick)
            slots.append([Request("lint", "/lint", self._body(name), "ok",
                                  ("lint", name, "", None))])
        for i in range(counts["malformed"]):
            slots.append([Request(
                "malformed", "/restructure",
                MALFORMED_BODIES[i % len(MALFORMED_BODIES)],
                "invalid-input")])
        for _ in range(counts["fault"]):
            name, plan = next(pick), rng.choice(self.active_scenarios)
            slots.append([Request(
                "fault", "/restructure",
                self._body(name, fault_scenario=plan), "degraded",
                ("restructure", name, "", plan))])
        rng.shuffle(slots)
        return [req for slot in slots for req in slot]

    def inputs(self):
        return [[r.path, r.body.decode()] for r in self.schedule(0)]

    def sources(self):
        return [self._cases[n].source for n in self.names]

    # -- driving -------------------------------------------------------

    def start(self) -> None:
        self.server = Server()
        self.conns = [Connection(self.server.port)
                      for _ in range(self.clients)]
        # warm both workers: each connection walks every hot body twice,
        # half a lap apart so the two never send the same one at once
        # (identical concurrent bodies would coalesce onto one worker)
        lap = [Request("warm", "/restructure", self._body(n), "ok")
               for n in self.names]
        half = len(lap) // 2
        laps = [lap + lap, (lap[half:] + lap[:half]) * 2]
        self._drive([laps[i % 2] for i in range(self.clients)])

    def stop(self) -> None:
        for conn in getattr(self, "conns", []):
            conn.close()
        if self.server is not None:
            self.server.stop()
            self.server = None

    def _drive(self, per_client: list[list[Request]],
               tracer: Optional[Tracer] = None) -> list[list[tuple]]:
        """Closed loop: each client sends its next request when the
        previous one has been answered."""
        results: list[list[tuple]] = [[] for _ in per_client]
        errors: list[BaseException] = []

        def client(i: int) -> None:
            try:
                for req in per_client[i]:
                    t0 = time.perf_counter()
                    http, raw = self.conns[i].request("POST", req.path,
                                                      req.body)
                    t1 = time.perf_counter()
                    results[i].append((req, t0, t1, http, raw))
            except BaseException as exc:   # surfaced after the join
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(len(per_client))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if errors:
            raise errors[0]
        if tracer is not None:
            for i, rows in enumerate(results):
                for req, t0, t1, _, _ in rows:
                    tracer.spans.append({
                        "id": len(tracer.spans), "name": "server.roundtrip",
                        "start": t0, "end": t1, "parent": None,
                        "op": f"{req.kind}@conn{i}"})
        return results

    def run_pass(self, tracer: Optional[Tracer] = None) -> list[Op]:
        """One schedule, dealt alternately to the connections; the hot
        pairs therefore land on both at the same moment."""
        reqs = self.schedule(self.passes_built)
        self.passes_built += 1
        per_client = [reqs[i::self.clients] for i in range(self.clients)]
        ops = []
        for rows in self._drive(per_client, tracer):
            for req, t0, t1, http, raw in rows:
                try:
                    envelope = json.loads(raw)
                except ValueError:
                    envelope = {}
                # the server's own handling time is compute (worker
                # cell + pool hop); the rest of the round trip is HTTP,
                # loopback and the delayed-ACK wait
                ops.append(Op(req.kind, t0, t1 - t0,
                              (req, Response(http, envelope)),
                              kind=req.kind,
                              cpu_seconds=envelope.get("elapsed_s", 0.0)))
        return ops

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.server.proc.pid)

    # -- checking ------------------------------------------------------

    def expected_result(self, key: tuple):
        """What the server must have answered, built in-process from the
        same library call its worker makes."""
        from repro.experiments.ingest import ingest_source, source_payload
        from repro.lint.engine import lint_source, report_json

        endpoint, name, card, plan = key
        source = self._cases[name].source
        if card:
            source = f"c {card}\n" + source
        path = f"{name}.f"
        if endpoint == "lint":
            result = report_json([lint_source(source, path=path)])
        else:
            faults = None
            if plan:
                from repro.faults.plan import scenario

                faults = scenario(plan)
            table, _ = ingest_source(source, path, quick=False,
                                     faults=faults)
            result = {"experiment": source_payload(table, False)}
        return json.loads(json.dumps(result))

    @staticmethod
    def response_problem(req: Request, resp: Response,
                         expected=None) -> Optional[str]:
        status = resp.envelope.get("status")
        if status != req.expect:
            return f"{req.kind}: status {status!r}, expected {req.expect!r}"
        if resp.http != HTTP_OF_STATUS[req.expect]:
            return f"{req.kind}: HTTP {resp.http} for status {status!r}"
        if expected is not None and resp.envelope.get("result") != expected:
            return f"{req.kind}: result differs from the in-process one"
        return None

    def check(self, passes):
        problems: list[str] = []
        attempted = failed = 0
        memo: dict[tuple, object] = {}
        cold_budget = COLD_RESULT_CHECKS
        witness = {}
        for p in passes:
            for op in p.ops:
                req, resp = op.result
                attempted += 1
                expected = None
                if req.check_key is not None:
                    cold = req.kind == "cold"
                    if not cold or cold_budget > 0:
                        cold_budget -= cold
                        if req.check_key not in memo:
                            memo[req.check_key] = self.expected_result(
                                req.check_key)
                        expected = memo[req.check_key]
                problem = self.response_problem(req, resp, expected)
                if problem is not None:
                    failed += 1
                    problems.append(problem)
                witness.setdefault(req.kind, (req, resp))
        # negative controls: the checker must reject a malformed body
        # passed off as a success, and a tampered result
        bad_req, bad_resp = witness.get("malformed", (None, None))
        if bad_req is None or bad_resp.http != 422 or self.response_problem(
                Request("hot", "/restructure", b"", "ok"), bad_resp) is None:
            problems.append("serve control: a malformed body was not a 422 "
                            "the checker rejects")
        hot_req, hot_resp = witness["hot"]
        tampered = Response(hot_resp.http,
                            {**hot_resp.envelope, "result": {"experiment": {}}})
        if self.response_problem(hot_req, tampered,
                                 memo[hot_req.check_key]) is None:
            problems.append("serve control: a tampered result passed")
        return attempted, failed, problems

    # -- per-layer ------------------------------------------------------

    def replay_in_process(self, ops: list[Op], tracer: Tracer) -> list[float]:
        """Run the pass's well-formed bodies through the worker's own
        cell function in this process; returns the hot cells' seconds."""
        from repro.server.worker import run_request_cell

        hot = []
        for n, op in enumerate(ops):
            req, _ = op.result
            try:
                body = json.loads(req.body)
            except ValueError:
                continue
            if not isinstance(body.get("source"), str) \
                    or not body["source"].strip():
                continue            # refused before any worker sees it
            cell = {"request_id": f"replay-{n}",
                    "endpoint": req.path.lstrip("/"),
                    "source": body["source"],
                    "path": body.get("path") or "<request>",
                    "quick": False,
                    "fault_scenario": body.get("fault_scenario"),
                    "engine": None, "timeout_s": 30.0,
                    "server_pid": 0, "attempt": 1}
            tracer.op = req.kind
            with tracer.span("op") as rec:
                run_request_cell(cell)
            if req.kind == "hot":
                hot.append(rec["end"] - rec["start"])
        return hot

    def layer_metrics(self, plain: list[Op], traced: list[Op],
                      cells_hot: list[float]) -> dict:
        from cedarbench.probes import STATUS_CLASSES

        def ms(ops, kind, f=lambda op: op.seconds):
            return [f(op) * 1e3 for op in ops if op.kind == kind]

        ops = plain + traced
        handle = lambda op: op.result[1].envelope.get("elapsed_s", 0.0)
        roundtrip = percentile(ms(ops, "hot"), 50)
        handled = percentile(ms(ops, "hot", handle), 50)
        cell = percentile([s * 1e3 for s in cells_hot], 50)
        text = self.server.metrics_text()
        out = {
            "server.roundtrip_ms.p50": roundtrip,
            "server.cold_roundtrip_ms.p50": percentile(ms(ops, "cold"), 50),
            "server.handle_ms.p50": handled,
            "server.transport_ms.p50": percentile(
                ms(ops, "hot", lambda op: op.seconds - handle(op)), 50),
            "server.cell_ms.p50": cell,
            "server.pool_hop_ms.p50": handled - cell,
        }
        for cls in STATUS_CLASSES:
            out[f"server.status.{cls}"] = sum(
                1 for op in ops
                if op.result[1].envelope.get("status") == cls)
        for short, series in (("dedup", "repro_server_dedup_total"),
                              ("retries", "repro_server_retries_total"),
                              ("shed", "repro_server_shed_total"),
                              ("respawns",
                               "repro_server_worker_respawns_total")):
            out[f"server.{short}_total"] = counter_total(text, series)
        return out
