"""Telemetry CLI: ``python -m repro.telemetry``.

``python -m repro.telemetry report DIR|metrics.json [--top N]``
    Render the per-stage breakdown, slowest cells, cache hit rates and
    worker utilization of a ``repro-metrics/1`` artifact.  A directory
    argument is merged first if unprocessed shards remain, so the
    command works both on finished sessions and on the raw shard
    directory of a crashed sweep.

``python -m repro.telemetry explain DIR|metrics.json [--sweep PAYLOAD]``
    The cross-layer "why was this slow" join: per sweep cell, host span
    time x worker queue delay x cache hits/misses x (with ``--sweep``)
    the simulated cycle/degradation attribution.

``python -m repro.telemetry merge DIR``
    Fold per-process shards into ``metrics.json`` / ``spans.jsonl`` /
    ``metrics.prom`` without rendering (what instrumented harnesses do
    automatically at exit).

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


def _load(path_arg: str, *, merge_shards: bool = True) -> dict:
    """Resolve a DIR or metrics.json argument to a payload dict."""
    from repro.telemetry.export import merge_dir

    path = Path(path_arg)
    if path.is_dir():
        if merge_shards and (list(path.glob("spans-*.jsonl"))
                             or list(path.glob("metrics-*.json"))
                             or not (path / "metrics.json").exists()):
            return merge_dir(path)
        return json.loads((path / "metrics.json").read_text())
    return json.loads(path.read_text())


def _cmd_report(ns: argparse.Namespace) -> int:
    from repro.telemetry.report import render_report

    payload = _load(ns.path)
    print(render_report(payload, top=ns.top))
    return 0


def _cmd_explain(ns: argparse.Namespace) -> int:
    from repro.obs import explain

    payload = explain.load_metrics(ns.path)
    sweep = None
    if ns.sweep:
        sweep = json.loads(Path(ns.sweep).read_text())
        if not isinstance(sweep, dict):
            raise ValueError(f"{ns.sweep}: expected a JSON object")
    rows = explain.correlate(payload, sweep)
    if ns.as_json:
        if ns.cell is not None:
            rows = [r for r in rows if r["cell"] == ns.cell]
        json.dump(rows, sys.stdout, indent=2)
        print()
    else:
        print(explain.render(rows, cell=ns.cell))
    return 0


def _cmd_merge(ns: argparse.Namespace) -> int:
    from repro.telemetry.export import merge_dir

    payload = merge_dir(ns.path)
    s = payload["summary"]
    print(f"merged {ns.path}: {len(payload['spans'])} span(s), "
          f"{s['cells']} cell(s), {len(payload['pids'])} process(es)")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="host-side telemetry: metrics/span artifacts and "
                    "reports")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("report", help="render a repro-metrics/1 artifact")
    p.add_argument("path", help="session directory or metrics.json")
    p.add_argument("--top", type=int, default=10, metavar="N",
                   help="slowest cells to list (default 10)")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("explain",
                       help="per-cell slow-cell attribution join")
    p.add_argument("path", help="session directory or metrics.json")
    p.add_argument("--sweep", default=None, metavar="PAYLOAD",
                   help="the sweep's JSON payload (repro-experiment/1, "
                        "repro-validate/1 or repro-faults/1) to join "
                        "the simulated side")
    p.add_argument("--cell", type=int, default=None,
                   help="detail view of one cell index")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the joined rows as JSON")
    p.set_defaults(func=_cmd_explain)

    p = sub.add_parser("merge",
                       help="fold per-process shards into the artifact")
    p.add_argument("path", help="session directory")
    p.set_defaults(func=_cmd_merge)

    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
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
