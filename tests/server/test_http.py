"""The HTTP front end: routes, status mapping, concurrent clients."""

import json
import re
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.engine.cache import get_cache
from repro.telemetry import MetricsRegistry

from repro.server.http import make_server
from repro.server.retry import RetryPolicy
from repro.server.service import RestructurerService

SRC = """      subroutine axpy(n, a, x, y)
      integer n, i
      real a, x(n), y(n)
      do 10 i = 1, n
         y(i) = y(i) + a * x(i)
   10 continue
      return
      end
"""


@pytest.fixture(scope="module")
def server_url():
    svc = RestructurerService(
        workers=1, registry=MetricsRegistry(),
        retry=RetryPolicy(max_attempts=2, base_delay_s=0.01))
    server = make_server(svc)       # port 0: a free port
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    svc.drain(timeout_s=5.0)
    get_cache().disk_error_hook = None


def post(url, path, body, raw=None):
    data = raw if raw is not None else json.dumps(body).encode()
    req = urllib.request.Request(
        url + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def get(url, path):
    try:
        with urllib.request.urlopen(url + path, timeout=30) as resp:
            return resp.status, resp.read().decode()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode()


class TestRoutes:
    def test_restructure_ok_is_200(self, server_url):
        code, env = post(server_url, "/restructure",
                         {"source": SRC, "quick": True})
        assert code == 200 and env["status"] == "ok"
        assert env["result"]["experiment"]["schema"] \
            == "repro-experiment/1"

    def test_lint_ok_is_200(self, server_url):
        code, env = post(server_url, "/lint", {"source": SRC})
        assert code == 200 and env["status"] == "ok"
        assert env["result"]["schema"] == "repro-lint/1"

    def test_invalid_input_is_422(self, server_url):
        code, env = post(server_url, "/restructure",
                         {"source": "garbage"})
        assert code == 422 and env["status"] == "invalid-input"

    def test_malformed_json_body_is_classified_422(self, server_url):
        code, env = post(server_url, "/restructure", None,
                         raw=b"this is not json{")
        assert code == 422 and env["status"] == "invalid-input"
        assert env["schema"] == "repro-server/1"

    def test_malformed_optional_field_is_422(self, server_url):
        code, env = post(server_url, "/restructure",
                         {"source": SRC, "quick": True,
                          "timeout_s": "soon"})
        assert code == 422 and env["status"] == "invalid-input"
        assert env["attempts"] == 1 and "timeout_s" in env["reason"]

    def test_unknown_path_is_404(self, server_url):
        code, _ = post(server_url, "/nope", {"source": SRC})
        assert code == 404
        code, _ = get(server_url, "/nope")
        assert code == 404

    def test_degraded_is_200_with_notes(self, server_url):
        code, env = post(server_url, "/restructure", {
            "source": SRC, "quick": True, "fault_scenario": "chaos"})
        assert code == 200 and env["status"] == "degraded"
        assert "fault-scenario:chaos" in env["degraded"]


class TestOperationalEndpoints:
    def test_healthz(self, server_url):
        code, body = get(server_url, "/healthz")
        h = json.loads(body)
        assert code == 200 and h["status"] == "ok"
        assert set(h["breakers"]) == {"store"}

    def test_readyz(self, server_url):
        code, body = get(server_url, "/readyz")
        assert code == 200 and json.loads(body) == {"ready": True}

    def test_metrics_prometheus_exposition(self, server_url):
        post(server_url, "/lint", {"source": SRC})
        code, text = get(server_url, "/metrics")
        assert code == 200
        assert "# TYPE repro_server_requests_total counter" in text
        assert 'endpoint="lint"' in text
        assert "repro_server_breaker_state" in text


class TestConcurrentClients:
    def test_parallel_posts_all_classified(self, server_url):
        results = []
        lock = threading.Lock()

        def client(i):
            if i % 3 == 2:
                code, env = post(server_url, "/restructure",
                                 {"source": "junk"})
            else:
                code, env = post(server_url, "/lint", {"source": SRC})
            with lock:
                results.append((code, env["status"]))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(9)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
        assert not any(t.is_alive() for t in threads), "client hung"
        assert len(results) == 9
        assert all(status in ("ok", "degraded", "shed",
                              "invalid-input")
                   for _, status in results)
        assert sum(1 for c, _ in results if c == 200) == 6
        assert sum(1 for c, _ in results if c == 422) == 3


def raw_exchange(url, request: bytes, timeout=10.0) -> bytes:
    """Send ``request`` verbatim; return everything the server writes
    until it closes the connection (or ``timeout`` passes)."""
    host, port = url[len("http://"):].split(":")
    with socket.create_connection((host, int(port)),
                                  timeout=timeout) as sock:
        sock.sendall(request)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def split_responses(stream: bytes) -> list[tuple[int, dict]]:
    """The ``(status code, JSON body)`` of each response in ``stream``."""
    out = []
    while stream:
        head, _, rest = stream.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        length = next(int(line.split(b":")[1]) for line in lines
                      if line.lower().startswith(b"content-length:"))
        out.append((int(lines[0].split()[1]), json.loads(rest[:length])))
        stream = rest[length:]
    return out


def post_head(path: str, content_length: str) -> bytes:
    return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n").encode()


class TestContentLength:
    """A refused or unparseable ``Content-Length`` is a classified 422
    and never leaves the connection's framing in doubt."""

    def test_oversized_body_is_refused_and_not_reparsed(self, server_url):
        from repro.server.http import MAX_BODY_BYTES

        # the refused body, pipelined, spells a second request: a
        # server that left it unread would answer it too
        body = post_head("/lint", "2") + b"{}"
        stream = raw_exchange(
            server_url,
            post_head("/restructure", str(MAX_BODY_BYTES + 1)) + body)
        responses = split_responses(stream)
        assert len(responses) == 1
        code, env = responses[0]
        assert code == 422 and env["status"] == "invalid-input"
        assert env["reason"] == \
            f"request body exceeds {MAX_BODY_BYTES} bytes"
        assert b"connection: close" in stream.lower()

    @pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
    def test_unusable_length_is_classified(self, server_url, value):
        # returns at all: rfile.read(-1) would block until the timeout
        stream = raw_exchange(server_url,
                              post_head("/restructure", value))
        (code, env), = split_responses(stream)
        assert code == 422 and env["status"] == "invalid-input"
        assert env["schema"] == "repro-server/1"
        assert "Content-Length" in env["reason"]


def exchange(url, method: str, path: str,
             body=None) -> tuple[int, dict, bytes]:
    """One request on its own connection: ``(status code, headers with
    lower-cased names, body bytes exactly as written)``."""
    data = b"" if body is None else json.dumps(body).encode()
    head = (f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
            "Connection: close\r\n")
    if body is not None:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(data)}\r\n")
    stream = raw_exchange(url, (head + "\r\n").encode() + data)
    head, _, payload = stream.partition(b"\r\n\r\n")
    lines = head.decode().split("\r\n")
    headers = dict((name.strip().lower(), value.strip()) for name, value
                   in (line.split(":", 1) for line in lines[1:]))
    return int(lines[0].split()[1]), headers, payload


def dedup_total(url) -> float:
    _, text = get(url, "/metrics")
    found = re.search(
        r'^repro_server_dedup_total\{endpoint="restructure"\} (\S+)$',
        text, re.M)
    return float(found.group(1)) if found else 0.0


class TestWireFormat:
    """Every JSON body is one compact line — what CPython's C encoder
    writes — and its ``Content-Length`` counts exactly those bytes."""

    @staticmethod
    def assert_compact(headers: dict, body: bytes) -> dict:
        assert int(headers["content-length"]) == len(body)
        assert headers["content-type"] == "application/json"
        parsed = json.loads(body)
        assert body == json.dumps(
            parsed, separators=(",", ":")).encode() + b"\n"
        return parsed

    def test_restructure_from_worker_then_from_result_table(
            self, server_url):
        body = {"source": "c wire format\n" + SRC, "quick": True}
        before = dedup_total(server_url)
        code, headers, first = exchange(server_url, "POST",
                                        "/restructure", body)
        assert code == 200
        assert dedup_total(server_url) == before      # a worker ran it
        env = self.assert_compact(headers, first)
        assert env["status"] == "ok"
        code, headers, again = exchange(server_url, "POST",
                                        "/restructure", body)
        assert code == 200
        assert dedup_total(server_url) == before + 1  # the table did
        hit = self.assert_compact(headers, again)
        assert hit["result"] == env["result"]

    @pytest.mark.parametrize("method,path,body,code", [
        ("POST", "/lint", {"source": SRC}, 200),
        ("POST", "/restructure", {"source": "garbage"}, 422),
        ("GET", "/healthz", None, 200),
        ("GET", "/readyz", None, 200),
        ("GET", "/nope", None, 404),
        ("POST", "/nope", {"source": SRC}, 404),
    ])
    def test_every_json_body_is_one_compact_line(
            self, server_url, method, path, body, code):
        got, headers, payload = exchange(server_url, method, path, body)
        assert got == code
        self.assert_compact(headers, payload)


class TestTransport:
    def test_accepted_connection_has_nagle_off(self):
        """Headers and body are two writes; with Nagle on, the second
        waits out the client's delayed ACK of the first."""
        svc = RestructurerService(workers=1, registry=MetricsRegistry())
        server = make_server(svc)
        seen = []

        class Recording(server.RequestHandlerClass):
            def setup(self):
                super().setup()
                seen.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))

        server.RequestHandlerClass = Recording
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            code, _ = get(f"http://{host}:{port}", "/readyz")
        finally:
            server.shutdown()
            server.server_close()
            svc.drain(timeout_s=5.0)
            get_cache().disk_error_hook = None
        assert code == 200
        assert seen and all(seen)


class TestLastDitchGuard:
    def test_a_raising_service_still_answers_an_error_envelope(self):
        svc = RestructurerService(workers=1, registry=MetricsRegistry())

        def broken(endpoint, request):
            raise RuntimeError("service bug")

        svc.handle = broken
        server = make_server(svc)
        thread = threading.Thread(target=server.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            code, env = post(f"http://{host}:{port}", "/lint",
                             {"source": SRC})
        finally:
            server.shutdown()
            server.server_close()
            svc.drain(timeout_s=5.0)
            get_cache().disk_error_hook = None
        assert code == 500 and env["status"] == "error"
        assert env["reason"] == "RuntimeError: service bug"
        assert env["fault"]["kind"] == "internal"
        assert env["fault"]["error_type"] == "RuntimeError"
        assert env["request_id"].startswith("req-")
