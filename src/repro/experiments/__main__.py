"""Run every experiment and print the tables: ``python -m repro.experiments``.

``--quick`` shrinks data sizes for a fast smoke run; ``--json`` emits the
tables (plus cycle-attribution traces) as one JSON document on stdout;
``--trace`` appends the human-readable cycle/decision breakdown after
each table; ``--profile DIR`` additionally profiles every estimate and
writes, per experiment, a Perfetto-loadable ``<name>.trace.json`` and a
``repro-profile/1`` ``<name>.profile.json`` into DIR.

Resilience (repro.faults): ``--timeout SEC`` puts a wall-clock watchdog
around each experiment; ``--keep-going`` isolates crashes so one broken
experiment doesn't kill the run (failed experiments are reported as
structured faults); ``--journal FILE`` checkpoints completed experiments
to a JSONL file for resume.

Real-world sources: ``--source FILE.f`` ingests an on-disk Fortran 77
file instead of a named experiment — it is lint-gated through
``repro.lint`` (errors reject the file) and then estimated per program
unit, serial vs Cedar (see :mod:`repro.experiments.ingest`).

Exit status (shared with ``python -m repro.lint``):
    0  all requested experiments ran / source ingested clean
    1  ``--source`` file rejected by the linter
    2  usage error (unknown experiment/flag, unreadable source)
    3  internal fault: an experiment crashed or exceeded its budget
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import JSON_SCHEMA


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures")
    ap.add_argument("names", nargs="*",
                    help=f"experiments to run (default: all of "
                         f"{', '.join(ALL_EXPERIMENTS)})")
    ap.add_argument("--quick", action="store_true",
                    help="small data sizes (smoke run)")
    ap.add_argument("--json", action="store_true", dest="as_json",
                    help="emit one JSON document instead of text tables")
    ap.add_argument("--trace", action="store_true",
                    help="append the cycle-attribution/decision trace "
                         "after each table")
    ap.add_argument("--profile", metavar="DIR", default=None,
                    help="profile every estimate; write per-experiment "
                         "trace.json (Perfetto) + profile.json into DIR")
    ap.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="wall-clock budget per experiment (watchdog)")
    ap.add_argument("--keep-going", action="store_true",
                    help="isolate crashes: report a failed experiment as "
                         "a structured fault and continue with the rest")
    ap.add_argument("--journal", metavar="FILE", default=None,
                    help="JSONL checkpoint of completed experiments; "
                         "rerun with the same file to resume (implies "
                         "result caching for finished names)")
    ap.add_argument("--source", metavar="FILE.f", default=None,
                    help="ingest an on-disk Fortran 77 file instead of "
                         "a named experiment: lint-gate it (exit 1 on "
                         "errors, diagnostics on stderr), restructure "
                         "it, and report per-unit serial vs Cedar "
                         "estimates")
    from repro.experiments.common import add_engine_args, configure_engine

    add_engine_args(ap)
    args = ap.parse_args(argv)
    jobs = configure_engine(args)

    if args.source is not None:
        if args.names:
            print("--source does not combine with experiment names",
                  file=sys.stderr)
            return 2
        from repro.experiments.ingest import run_source

        return run_source(args)

    names = args.names or list(ALL_EXPERIMENTS)
    for name in names:
        if name not in ALL_EXPERIMENTS:
            print(f"unknown experiment {name!r}", file=sys.stderr)
            return 2

    if args.profile:
        os.makedirs(args.profile, exist_ok=True)

    from repro.engine.parallel import WorkerCrash, parallel_map
    from repro.experiments.worker import run_experiment_cell
    from repro.faults.harness import SweepJournal

    journal = SweepJournal(args.journal)
    fault_reports: list[dict] = []
    table_dicts: dict[str, dict] = {}
    texts: dict[str, str] = {}
    jobs_list: list[dict] = []

    for name in names:
        if args.journal and name in journal:
            table_dicts[name] = journal.payload(name)
            print(f"{name}: resumed from journal", file=sys.stderr)
            continue
        jobs_list.append({
            "name": name, "quick": args.quick, "trace": args.trace,
            "profile": args.profile, "timeout": args.timeout,
            # a parallel run always isolates: a crashing worker must
            # surface as a structured fault, not a broken pool
            "isolate": args.keep_going or bool(args.timeout) or jobs > 1,
        })

    hard_fault = False
    from repro.telemetry.log import get_logger

    log = get_logger("experiments")

    def merge(i: int, res) -> None:
        nonlocal hard_fault
        name = jobs_list[i]["name"]
        fd = res.to_fault_dict() if isinstance(res, WorkerCrash) \
            else res["fault"]
        if fd is not None:
            fault_reports.append(fd)
            cont = " -- continuing" if args.keep_going else ""
            print(f"{name}: FAULT ({fd['kind']}) {fd['message']}{cont}",
                  file=sys.stderr)
            log.warning("experiment_fault", name=name, kind=fd["kind"],
                        message=fd["message"])
            if not args.keep_going:
                hard_fault = True
            return
        texts[name] = res["text"]
        table_dicts[name] = res["table_dict"]
        journal.record(name, res["table_dict"])
        log.info("experiment_done", name=name)

    parallel_map(run_experiment_cell, jobs_list, jobs,
                 labels=[f"experiment {j['name']}" for j in jobs_list],
                 on_result=merge)
    from repro.experiments.common import finalize_telemetry

    finalize_telemetry("repro.experiments")
    if hard_fault:
        return 3

    if args.as_json:
        payload = {
            "schema": JSON_SCHEMA,
            "quick": args.quick,
            "experiments": table_dicts,
        }
        if fault_reports:
            payload["faults"] = fault_reports
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 3 if fault_reports else 0

    for name in names:
        if name in texts:
            print(texts[name])
            print()
        elif name in table_dicts:
            print(f"[{name}: resumed from journal — JSON payload only; "
                  f"rerun without --journal for the rendered table]")
            print()
    return 3 if fault_reports else 0


if __name__ == "__main__":
    raise SystemExit(main())
