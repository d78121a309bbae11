"""The HTTP front end: stdlib ``ThreadingHTTPServer``, JSON in/out.

Routes::

    POST /restructure   {"source": "...", "quick": bool, ...} -> envelope
    POST /lint          {"source": "...", ...}                -> envelope
    GET  /healthz       liveness + breaker states + orphans
    GET  /readyz        admission readiness (503 while draining)
    GET  /metrics       Prometheus exposition of the telemetry registry

The envelope status maps onto HTTP codes — but the *envelope* is the
contract; every response body (including 4xx/5xx) is a classified
``repro-server/1`` document, never a bare stack trace:

=================  ====
``ok``             200
``degraded``       200
``invalid-input``  422
``shed``           429
``error``          500
=================  ====
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.faults.harness import run_isolated
from repro.telemetry.log import get_logger
from repro.server.service import RestructurerService

_LOG = get_logger("server.http")

_STATUS_HTTP = {"ok": 200, "degraded": 200, "invalid-input": 422,
                "shed": 429, "error": 500}

#: request bodies past this size are refused up front (terminal)
MAX_BODY_BYTES = 4 * 1024 * 1024


def _make_handler(service: RestructurerService):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # a response is written as headers, then body; with Nagle on,
        # the body segment waits for the client's (delayed, ~40 ms) ACK
        # of the headers
        disable_nagle_algorithm = True

        # route stdlib request logging into the structured log
        def log_message(self, fmt, *args):  # noqa: A003 - stdlib name
            _LOG.debug("http", line=fmt % args)

        def _send(self, code: int, content_type: str,
                  body: bytes) -> None:
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send_json(self, code: int, payload: dict) -> None:
            self._send(code, "application/json",
                       json.dumps(payload, indent=2).encode() + b"\n")

        def _send_envelope(self, envelope: dict) -> None:
            self._send_json(_STATUS_HTTP.get(envelope["status"], 500),
                            envelope)

        def do_GET(self):  # noqa: N802 - stdlib casing
            if self.path == "/healthz":
                self._send_json(200, service.healthz())
            elif self.path == "/readyz":
                ready = service.readyz()
                self._send_json(200 if ready["ready"] else 503, ready)
            elif self.path == "/metrics":
                self._send(200, "text/plain; version=0.0.4",
                           service.metrics_text().encode())
            else:
                self._send_json(404, {"error": "not found",
                                      "path": self.path})

        def do_POST(self):  # noqa: N802 - stdlib casing
            endpoint = self.path.lstrip("/")
            if endpoint not in ("restructure", "lint"):
                self._send_json(404, {"error": "not found",
                                      "path": self.path})
                return
            try:
                length = int(self.headers.get("Content-Length") or 0)
            except ValueError:
                length = -1
            problem = None
            if length < 0:
                problem = "Content-Length must be a non-negative integer"
            elif length > MAX_BODY_BYTES:
                problem = f"request body exceeds {MAX_BODY_BYTES} bytes"
            if problem is not None:
                # the body is left unread (its length is unknown or
                # refused), so the connection cannot carry another
                # request: whatever follows would be parsed as one
                self.close_connection = True
                self._send_envelope(service.reject(endpoint, problem))
                return
            try:
                request = json.loads(
                    self.rfile.read(length).decode("utf-8", "replace"))
            except (json.JSONDecodeError, ValueError):
                request = None      # -> classified invalid-input
            # the service classifies everything; isolating it too is
            # belt and braces, so a bug still yields an envelope, not a
            # bare 500 traceback
            envelope, fault = run_isolated(
                lambda: service.handle(endpoint, request), endpoint)
            if fault is not None:
                envelope = service.failed(endpoint, fault)
            self._send_envelope(envelope)

    return Handler


def make_server(service: RestructurerService, host: str = "127.0.0.1",
                port: int = 0) -> ThreadingHTTPServer:
    """Bind a threading HTTP server for ``service`` (``port=0`` picks a
    free port; read it back from ``server.server_address``)."""
    server = ThreadingHTTPServer((host, port), _make_handler(service))
    server.daemon_threads = True
    return server
