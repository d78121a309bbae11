"""Terminal views of a profile document written by ``--profile DIR``.

``python -m repro.trace gantt DIR/NAME.profile.json [--pid N]``
    ASCII per-CE Gantt charts of every profiled run's parallel loops
    (``--pid N``: only the N-th run, Perfetto's process N in the
    ``NAME.trace.json`` written beside it).

``python -m repro.trace report DIR/NAME.profile.json``
    Per-run, per-loop utilization/imbalance table.

Exit status (shared CLI convention — see also ``repro.experiments``,
``repro.validate``, ``repro.faults``):
    0  success
    2  usage error (bad flags, unreadable or malformed profile)
    3  internal fault (unexpected exception — a harness bug)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.trace.profile import load_runs, render_gantt, render_utilization


def _cmd_gantt(ns: argparse.Namespace) -> int:
    _, runs = load_runs(ns.profile)
    if ns.pid is not None:
        runs = runs[ns.pid - 1:ns.pid] if ns.pid >= 1 else []
    loops = [rec for run in runs for rec in run["loops"]]
    print(render_gantt(loops, width=ns.width) if loops
          else "(no loop records in profile)")
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    experiment, runs = load_runs(ns.profile)
    for run in runs:
        print(f"== {experiment}/{run['workload']} "
              f"[{run['role']}]  total {run['total_cycles']:,.0f} cyc")
        print(render_utilization(run["loops"]))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace",
        description="Terminal rendering of a repro-profile/1 document.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gantt", help="ASCII per-CE Gantt charts")
    p.add_argument("profile")
    p.add_argument("--pid", type=int, default=None,
                   help="restrict to the N-th profiled run (1-based)")
    p.add_argument("--width", type=int, default=64)
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("report", help="per-loop utilization table")
    p.add_argument("profile")
    p.set_defaults(func=_cmd_report)

    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except BrokenPipeError:
        # output piped into head etc. — not an error
        sys.stderr.close()
        return 0
    except OSError as exc:
        # unreadable/missing input files are usage errors, not faults
        print(f"repro.trace: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError) as exc:
        print(f"repro.trace: malformed profile document: {exc!r}",
              file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"repro.trace: internal fault: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
