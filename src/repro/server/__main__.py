"""``python -m repro.server`` — run the restructurer service.

Shares the engine flags (``--jobs``, ``--cache-dir``, ``--telemetry``,
``--log-level``) with every sweep harness, plus the service knobs:
bind address, per-request watchdog budget, retry budget, admission
capacity, journal path, and the ``--chaos`` switch that lets request
bodies carry fault-injection directives (tests only — never enable it
on a server exposed to untrusted callers).

``SIGTERM``/``SIGINT`` trigger a graceful drain: admission stops
(``/readyz`` flips to 503, new requests are shed with reason
``draining``), in-flight requests finish (bounded), the
pool shuts down, telemetry finalizes, and the process exits 0.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading


def main(argv=None) -> int:
    from repro.experiments.common import (add_engine_args,
                                          configure_engine,
                                          finalize_telemetry,
                                          finite_seconds)
    from repro.server.http import make_server
    from repro.server.retry import RetryPolicy
    from repro.server.service import RestructurerService

    ap = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="serve the restructurer over JSON/HTTP "
                    "(fault-tolerant: supervised workers, retries, "
                    "a store circuit breaker, load shedding)")
    ap.add_argument("--host", default="127.0.0.1",
                    help="bind address (default 127.0.0.1)")
    ap.add_argument("--port", type=int, default=8757,
                    help="bind port; 0 picks a free one (default 8757)")
    ap.add_argument("--timeout", type=finite_seconds, default=30.0,
                    metavar="S",
                    help="per-request watchdog budget in seconds "
                         "(default 30)")
    ap.add_argument("--max-attempts", type=int, default=3, metavar="N",
                    help="retry budget per request (default 3)")
    ap.add_argument("--queue-depth", type=int, default=8, metavar="N",
                    help="admission capacity: max in-flight requests "
                         "(default 8)")
    ap.add_argument("--max-wait", type=float, default=5.0, metavar="S",
                    help="max seconds a request queues before being "
                         "shed (default 5)")
    ap.add_argument("--journal", default=None, metavar="FILE",
                    help="durability journal (JSONL); a restarted "
                         "server reports requests lost in flight")
    ap.add_argument("--retry-seed", type=int, default=0, metavar="N",
                    help="seed for the deterministic backoff jitter")
    ap.add_argument("--chaos", action="store_true",
                    help="honour fault-injection directives in request "
                         "bodies (tests only)")
    add_engine_args(ap)
    args = ap.parse_args(argv)
    jobs = configure_engine(args)

    service = RestructurerService(
        workers=jobs,
        retry=RetryPolicy(max_attempts=max(1, args.max_attempts),
                          seed=args.retry_seed),
        queue_capacity=args.queue_depth,
        max_wait_s=args.max_wait,
        default_timeout_s=args.timeout,
        journal_path=args.journal,
        chaos=args.chaos)
    server = make_server(service, args.host, args.port)
    host, port = server.server_address[:2]
    print(f"listening on http://{host}:{port}", file=sys.stderr,
          flush=True)

    stop = threading.Event()

    def _shutdown(signum, frame):
        stop.set()
        # shutdown() must not run on the serving thread
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        clean = service.drain(timeout_s=30.0)
        print("drained" if clean else "drain timed out",
              file=sys.stderr, flush=True)
        finalize_telemetry("repro.server")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
