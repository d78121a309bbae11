"""Telemetry CLI: ``python -m repro.telemetry``.

``python -m repro.telemetry report DIR|metrics.json [--sweep PAYLOAD]
[--cell N] [--json] [--top N]``
    Render a ``repro-metrics/1`` artifact: the session summary
    (per-stage breakdown, slowest cells, cache hit rates, worker
    utilization) followed by the per-cell "why was this slow, or wrong"
    attribution — host span time x worker queue delay x cache
    hits/misses x (with ``--sweep``) the simulated cycle/degradation
    side.  ``--cell N`` prints that cell's detail view instead;
    ``--json`` emits the attribution rows.  A directory argument is
    merged first if unprocessed shards remain, so every view works both
    on finished sessions and on the raw shard directory of a crashed
    sweep.

The artifact itself is validated by
``scripts/validate_experiment_json.py DIR/metrics.json``.

Exit status: 0 ok; 1 invalid JSON; 2 usage error (missing or
unrecognized input).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.telemetry.export import load_session
from repro.telemetry.report import correlate, render_report


def _cmd_report(ns: argparse.Namespace) -> int:
    payload = load_session(ns.path)
    sweep = None
    if ns.sweep:
        sweep = json.loads(Path(ns.sweep).read_text())
        if not isinstance(sweep, dict):
            raise ValueError(f"{ns.sweep}: expected a JSON object")
    if ns.as_json:
        rows = correlate(payload, sweep)
        if ns.cell is not None:
            rows = [r for r in rows if r["cell"] == ns.cell]
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        print(render_report(payload, sweep, cell=ns.cell, top=ns.top))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="host-side telemetry: the reader of a "
                    "repro-metrics/1 session")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="render a repro-metrics/1 artifact")
    p.add_argument("path", help="session directory or metrics.json")
    p.add_argument("--sweep", default=None, metavar="PAYLOAD",
                   help="the sweep's JSON payload (repro-experiment/1, "
                        "repro-validate/1 or repro-faults/1) to join "
                        "the simulated side")
    p.add_argument("--cell", type=int, default=None,
                   help="detail view of one cell index")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the per-cell attribution rows as JSON")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="slowest cells to list (default 10)")

    ns = ap.parse_args(argv)
    try:
        return _cmd_report(ns)
    except BrokenPipeError:
        sys.stderr.close()
        return 0
    except json.JSONDecodeError as exc:
        print(f"repro.telemetry: invalid JSON: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"repro.telemetry: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
