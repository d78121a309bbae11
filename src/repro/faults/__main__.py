"""Chaos-layer CLI: ``python -m repro.faults``.

``python -m repro.faults sweep [--quick]``
    Run the degradation oracle over the fault matrix (workloads ×
    scenarios), asserting monotone / attributed / bounded degradation
    and results that still validate with the plan dealing the
    iterations.  ``--json`` (or ``-o FILE``) emits the
    ``repro-faults/1`` payload.

``python -m repro.faults list``
    Print the scenario matrix (name, fault classes, parameters).

Exit status (shared CLI convention):
    0  every oracle cell passed
    1  a degradation invariant was violated
    2  usage error (unknown scenario/workload/flag)
    3  internal fault: a cell crashed or exceeded its wall-clock budget
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import ReproError
from repro.faults.plan import QUICK_SCENARIOS, SCENARIO_SPECS, scenario


def _cmd_list(ns: argparse.Namespace) -> int:
    from repro.faults.plan import FaultPlan

    width = max(len(n) for n in SCENARIO_SPECS)
    defaults = FaultPlan().to_dict()
    for name in SCENARIO_SPECS:
        plan = scenario(name)
        knobs = {k: v for k, v in plan.to_dict().items()
                 if k not in ("name", "seed") and v != defaults[k]}
        quick = "*" if name in QUICK_SCENARIOS else " "
        desc = ", ".join(f"{k}={v}" for k, v in knobs.items()) or "no-op"
        print(f"{quick} {name:<{width}}  {desc}")
    print("\n(* = in the --quick subset)")
    return 0


def _cmd_sweep(ns: argparse.Namespace) -> int:
    from repro.experiments.common import configure_engine
    from repro.faults.harness import SweepJournal
    from repro.faults.sweep import run_sweep

    jobs = configure_engine(ns)
    journal = SweepJournal(ns.journal) if ns.journal else None
    progress = (lambda msg: print(msg, file=sys.stderr)) \
        if not ns.as_json or ns.output else (lambda msg: None)
    try:
        payload = run_sweep(
            workloads=ns.workloads or None,
            scenarios=ns.scenarios or None,
            quick=ns.quick, timeout=ns.timeout,
            journal=journal, progress=progress, jobs=jobs,
            engine=ns.engine)
    except ReproError as exc:
        print(f"repro.faults: {exc}", file=sys.stderr)
        return 2
    finally:
        from repro.experiments.common import finalize_telemetry

        finalize_telemetry("repro.faults sweep")

    if ns.output:
        with open(ns.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if ns.as_json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        s = payload["summary"]
        print(f"fault sweep: {s['cells_run']}/{s['cells_expected']} cells, "
              f"{s['ok']} ok, {s['failed']} failed, "
              f"{s['harness_faults']} harness fault(s)")
        for r in payload["runs"]:
            if not r["ok"]:
                bad = ", ".join(c for c, v in r["checks"].items() if not v)
                print(f"  FAIL {r['workload']}:{r['scenario']} "
                      f"x{r['degradation']:.3f} (bound x{r['bound']:.2f}) "
                      f"-- {bad}")

    if payload["faults"]:
        return 3
    return 0 if payload["summary"]["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.common import (add_engine_args,
                                          add_interpreter_arg,
                                          finite_seconds)

    ap = argparse.ArgumentParser(
        prog="python -m repro.faults",
        description="deterministic fault injection: scenario matrix and "
                    "the graceful-degradation oracle")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sweep", help="run the degradation oracle")
    p.add_argument("--quick", action="store_true",
                   help="CI subset: fewer workloads/scenarios, small sizes")
    p.add_argument("--workloads", nargs="+", metavar="W",
                   help="override the workload list")
    p.add_argument("--scenarios", nargs="+", metavar="S",
                   choices=sorted(SCENARIO_SPECS),
                   help="override the scenario list")
    p.add_argument("--timeout", type=finite_seconds, default=120.0,
                   metavar="SEC",
                   help="wall-clock budget per cell (default 120; "
                        "0 disables)")
    p.add_argument("--journal", metavar="FILE", default=None,
                   help="JSONL checkpoint; rerun with the same file to "
                        "resume an interrupted sweep")
    p.add_argument("--json", action="store_true", dest="as_json",
                   help="emit the repro-faults/1 JSON payload on stdout")
    p.add_argument("-o", "--output", metavar="FILE",
                   help="write the JSON payload to FILE")
    add_engine_args(p)
    add_interpreter_arg(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("list", help="print the fault-scenario matrix")
    p.set_defaults(func=_cmd_list)

    ns = ap.parse_args(argv)
    try:
        return ns.func(ns)
    except BrokenPipeError:
        sys.stderr.close()
        return 0
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"repro.faults: internal fault: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
