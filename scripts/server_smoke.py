#!/usr/bin/env python3
"""End-to-end smoke test of ``python -m repro.server`` (CI job).

Starts a real server subprocess with chaos hooks enabled, drives it
with concurrent requests covering every classified outcome —

- a clean ``/restructure`` (``ok``, and byte-identical to the
  ``repro.experiments --source --json`` CLI path),
- a malformed ``.f`` (terminal ``invalid-input``, exactly one attempt),
- malformed optional fields — ``fault_scenario``, ``timeout_s``,
  ``deadline_s`` of an unusable type (the same, refused up front),
- an injected fault scenario (``degraded`` but correct),
- a worker SIGKILL mid-request (retried to ``ok``),

— validates every envelope with ``scripts/validate_experiment_json.py``
and ``/metrics`` for the expected series, checks that every JSON body
it read is a single line, then sends SIGTERM and asserts the graceful
drain (exit 0, "drained" on stderr).

Usage: ``python scripts/server_smoke.py`` from the repo root
(``src/`` is put on ``sys.path`` for the child automatically).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SAMPLE = REPO / "examples" / "sample.f"

sys.path.insert(0, str(REPO / "scripts"))
import validate_experiment_json as vej  # noqa: E402

_failures: list[str] = []
#: ``(label, raw body)`` of every JSON response read
_bodies: list[tuple[str, bytes]] = []


def check(cond: bool, label: str, detail: str = "") -> None:
    status = "ok" if cond else "FAIL"
    print(f"  [{status}] {label}" + (f" — {detail}" if detail else ""))
    if not cond:
        _failures.append(label)


def read_json(label: str, raw: bytes) -> dict:
    _bodies.append((label, raw))
    return json.loads(raw)


def post(base: str, path: str, body: dict) -> tuple[int, dict]:
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=300) as resp:
            return resp.status, read_json(path, resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, read_json(path, exc.read())


def get(base: str, path: str) -> tuple[int, bytes]:
    with urllib.request.urlopen(base + path, timeout=60) as resp:
        return resp.status, resp.read()


def get_json(base: str, path: str) -> tuple[int, dict]:
    code, raw = get(base, path)
    return code, read_json(path, raw)


def main() -> int:
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.server", "--port", "0",
         "--jobs", "2", "--chaos", "--max-attempts", "3",
         "--timeout", "60", "--retry-seed", "42"],
        stderr=subprocess.PIPE, text=True, env=env, cwd=str(REPO))

    # the listening line is printed before serving starts
    line = proc.stderr.readline().strip()
    print(f"server: {line}")
    assert line.startswith("listening on "), line
    base = line.split()[-1]

    # drain the rest of stderr in the background so the pipe never
    # fills up and blocks the server
    stderr_tail: list[str] = []
    drainer = threading.Thread(
        target=lambda: stderr_tail.extend(proc.stderr),
        daemon=True)
    drainer.start()

    source = SAMPLE.read_text()

    print("concurrent request burst:")
    requests = {
        "clean": ("/restructure", {"source": source,
                                   "path": str(SAMPLE),
                                   "quick": True}),
        "malformed": ("/restructure", {"source": "n o t fortran"}),
        "fault-plan": ("/restructure", {"source": source,
                                        "path": str(SAMPLE),
                                        "quick": True,
                                        "fault_scenario": "chaos"}),
        "worker-kill": ("/restructure", {"source": source,
                                         "path": str(SAMPLE),
                                         "quick": True,
                                         "chaos": {"kill_worker": 1}}),
        "lint": ("/lint", {"source": source, "path": str(SAMPLE)}),
    }
    # optional fields no request can run with: refused before any work
    malformed_fields = {
        "bad-fault-scenario": {"fault_scenario": ["x"]},
        "bad-timeout": {"timeout_s": "soon"},
        "bad-deadline": {"deadline_s": "later"},
    }
    for name, extra in malformed_fields.items():
        requests[name] = ("/restructure", {"source": source,
                                           "path": str(SAMPLE),
                                           "quick": True, **extra})
    results: dict[str, tuple[int, dict]] = {}

    def drive(name: str) -> None:
        path, body = requests[name]
        results[name] = post(base, path, body)

    threads = [threading.Thread(target=drive, args=(n,))
               for n in requests]
    for t in threads:
        t.start()
    for t in threads:
        t.join(600.0)
    check(len(results) == len(requests), "all requests returned",
          f"{len(results)}/{len(requests)}")

    for name, (code, envl) in sorted(results.items()):
        problems = vej.validate(envl)
        check(problems == [], f"{name}: envelope validates",
              "; ".join(problems[:3]))
        print(f"    {name}: http={code} status={envl['status']} "
              f"attempts={envl['attempts']}")

    code, envl = results["clean"]
    check(code == 200 and envl["status"] == "ok", "clean: ok/200")
    code, envl = results["malformed"]
    check(code == 422 and envl["status"] == "invalid-input",
          "malformed: invalid-input/422")
    check(envl["attempts"] == 1, "malformed: terminal, no retry",
          f"attempts={envl['attempts']}")
    for name, extra in malformed_fields.items():
        code, envl = results[name]
        field = next(iter(extra))
        check(code == 422 and envl["status"] == "invalid-input"
              and envl["attempts"] == 1,
              f"{name}: terminal invalid-input/422",
              f"http={code} attempts={envl['attempts']}")
        check(field in (envl["reason"] or ""),
              f"{name}: reason names {field}")
    code, envl = results["fault-plan"]
    check(code == 200 and envl["status"] == "degraded",
          "fault-plan: degraded/200")
    check("fault-scenario:chaos" in envl["degraded"],
          "fault-plan: degradation attributed")
    code, envl = results["worker-kill"]
    check(code == 200 and envl["status"] == "ok",
          "worker-kill: retried to ok/200")
    check(envl["retries"] >= 1, "worker-kill: at least one retry",
          f"retries={envl['retries']}")
    code, envl = results["lint"]
    check(code == 200 and envl["result"]["schema"] == "repro-lint/1",
          "lint: repro-lint/1 payload")

    print("byte-identity vs the CLI path:")
    served = json.dumps(results["clean"][1]["result"]["experiment"],
                        indent=2) + "\n"
    cli = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "--source",
         str(SAMPLE), "--quick", "--json"],
        capture_output=True, text=True, timeout=600, env=env,
        cwd=str(REPO))
    check(cli.returncode == 0, "CLI run succeeds", cli.stderr[-200:])
    check(served == cli.stdout, "served == CLI output",
          f"{len(served)} vs {len(cli.stdout)} bytes")

    print("operational endpoints:")
    code, health = get_json(base, "/healthz")
    check(code == 200 and health["status"] == "ok", "/healthz ok")
    code, ready = get_json(base, "/readyz")
    check(code == 200 and ready == {"ready": True}, "/readyz ready")
    code, raw = get(base, "/metrics")
    metrics = raw.decode()
    check(code == 200, "/metrics serves")
    for series in ("repro_server_requests_total",
                   "repro_server_breaker_state",
                   "repro_server_queue_depth",
                   "repro_server_retries_total",
                   "repro_server_worker_respawns_total"):
        check(series in metrics, f"/metrics exposes {series}")
    check('status="ok"' in metrics and 'status="invalid-input"'
          in metrics, "/metrics labels outcomes")

    print("wire format:")
    multi = [label for label, raw in _bodies
             if not raw.endswith(b"\n") or raw.count(b"\n") != 1]
    check(multi == [], f"all {len(_bodies)} JSON bodies are one line",
          ", ".join(multi))

    print("graceful shutdown:")
    proc.send_signal(signal.SIGTERM)
    try:
        rc = proc.wait(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        rc = -9
    drainer.join(10.0)
    check(rc == 0, "exit code 0 on SIGTERM", f"rc={rc}")
    check(any("drained" in ln for ln in stderr_tail),
          "drain confirmed on stderr")

    if _failures:
        print(f"\nserver smoke: {len(_failures)} FAILURE(S): "
              + ", ".join(_failures))
        return 1
    print("\nserver smoke: all checks passed")
    return 0


def _watchdog() -> None:
    time.sleep(900)
    print("server smoke: global watchdog fired — aborting",
          file=sys.stderr)
    os._exit(3)


if __name__ == "__main__":
    threading.Thread(target=_watchdog, daemon=True).start()
    sys.exit(main())
