"""Command-line translation validator.

``python -m repro.validate --all``
    Differentially validate every linalg and Perfect workload under the
    automatic and manual pipeline configurations, with the dynamic race
    detector attached.

``python -m repro.validate tridag TRFD``
    Validate a named subset.

``python -m repro.validate --quick``
    The fast CI subset.

``--json`` writes the ``repro-validate/1`` payload to stdout (or
``-o FILE``); the default output is a human-readable table.

Resilience (repro.faults): each workload runs under crash isolation and
an optional ``--timeout`` watchdog — one crashing or hanging workload is
reported as a structured fault and the sweep continues.  ``--journal
FILE`` checkpoints completed workloads to a JSONL file so an interrupted
sweep resumes where it stopped.

Exit status:
    0  every run validated clean
    1  at least one divergence, race, or modelled error
    2  usage error (bad workload/flag — argparse)
    3  internal fault: a workload crashed the harness or hit its
       wall-clock/step budget (its FaultReport is in the payload)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.engine.parallel import WorkerCrash, parallel_map
from repro.experiments.common import (add_engine_args,
                                      add_interpreter_arg,
                                      configure_engine)
from repro.validate.configs import PIPELINE_CONFIGS
from repro.validate.differential import DEFAULT_ATOL, DEFAULT_RTOL
from repro.validate.report import build_report_from_dicts, render_text_from_dicts
from repro.validate.worker import run_workload_cell
from repro.workloads import validation_cases

#: the CI smoke subset: one routine per obstacle family, all fast
QUICK_WORKLOADS = ("tridag", "cg", "sparse", "TRFD", "MDG", "TRACK")


def _crashed_workload_dict(case, config_names, kind: str,
                           message: str) -> dict:
    """Synthesize a schema-valid workload entry for a crashed run.

    Every selected configuration gets an ``error`` ConfigResult carrying
    the fault's message, so summary recounts and renderers need no
    special case.
    """
    return {
        "workload": case.name, "suite": case.suite, "entry": case.entry,
        "n": case.n, "seeds": [], "processors": [],
        "configs": [{
            "config": name, "stages": [], "status": "error",
            "divergences": [], "races": [],
            "error": f"harness fault ({kind}): {message}",
            "culprit_pass": None, "parallel_loops": 0, "loops_checked": 0,
            "compared_keys": [], "discharged": {},
        } for name in config_names],
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="differential translation validation with dynamic "
                    "race detection")
    ap.add_argument("workloads", nargs="*",
                    help="workload names (default: --all)")
    ap.add_argument("--all", action="store_true",
                    help="validate every workload")
    ap.add_argument("--quick", action="store_true",
                    help=f"fast subset: {', '.join(QUICK_WORKLOADS)}")
    ap.add_argument("--suite", choices=("linalg", "perfect"),
                    help="restrict to one workload suite")
    ap.add_argument("--config", action="append", dest="configs",
                    choices=sorted(PIPELINE_CONFIGS),
                    help="configuration(s) to validate (default: all)")
    ap.add_argument("--seeds", type=int, nargs="+", default=[3],
                    metavar="SEED", help="input seeds (default: 3)")
    ap.add_argument("--processors", type=int, nargs="+", default=[2, 8],
                    metavar="P",
                    help="simulated processor counts (default: 2 8)")
    ap.add_argument("--atol", type=float, default=DEFAULT_ATOL)
    ap.add_argument("--rtol", type=float, default=DEFAULT_RTOL)
    ap.add_argument("--no-bisect", action="store_true",
                    help="skip pass bisection on divergence")
    ap.add_argument("--timeout", type=float, default=None, metavar="SEC",
                    help="wall-clock budget per workload (watchdog; "
                         "a timed-out workload is isolated, not fatal)")
    ap.add_argument("--journal", metavar="FILE", default=None,
                    help="JSONL checkpoint of completed workloads; rerun "
                         "with the same file to resume an interrupted "
                         "sweep")
    ap.add_argument("--json", action="store_true",
                    help="emit the repro-validate/1 JSON payload")
    ap.add_argument("-o", "--output", metavar="FILE",
                    help="write the JSON payload to FILE")
    add_engine_args(ap)
    add_interpreter_arg(ap)
    ns = ap.parse_args(argv)
    jobs = configure_engine(ns)
    engine = ns.engine

    cases = validation_cases()
    if ns.workloads:
        unknown = [w for w in ns.workloads if w not in cases]
        if unknown:
            ap.error(f"unknown workload(s): {', '.join(unknown)} "
                     f"(known: {', '.join(sorted(cases))})")
        selected = [cases[w] for w in ns.workloads]
    elif ns.quick:
        selected = [cases[w] for w in QUICK_WORKLOADS]
    else:
        selected = [cases[w] for w in sorted(cases)]
    if ns.suite:
        selected = [c for c in selected if c.suite == ns.suite]
        if not selected:
            ap.error(f"no selected workload in suite {ns.suite!r}")

    config_names = ns.configs or sorted(PIPELINE_CONFIGS)

    from repro.faults.harness import SweepJournal

    journal = SweepJournal(ns.journal)
    wdicts: list[dict] = []
    fault_reports: list[dict] = []
    jobs_list: list[dict] = []
    positions: list[int] = []
    for case in selected:
        if ns.journal and case.name in journal:
            wdicts.append(journal.payload(case.name))
            if not ns.json:
                print(f"{case.name}: resumed from journal",
                      file=sys.stderr)
            continue
        wdicts.append({})                # placeholder, filled on merge
        positions.append(len(wdicts) - 1)
        jobs_list.append({
            "workload": case.name, "configs": config_names,
            "seeds": ns.seeds, "processors": ns.processors,
            "atol": ns.atol, "rtol": ns.rtol,
            "bisect": not ns.no_bisect, "timeout": ns.timeout,
            "engine": engine,
        })
    if jobs_list and not ns.json:
        print(f"validating {len(jobs_list)} workload(s), "
              f"jobs={jobs}, engine={engine} ...", file=sys.stderr)

    from repro.telemetry.log import get_logger

    log = get_logger("validate")

    def merge(i: int, res) -> None:
        # fires in submission order: results land in selection order and
        # the journal/fault lists grow deterministically — byte-identical
        # payloads whatever the job count
        name = jobs_list[i]["workload"]
        case = cases[name]
        if isinstance(res, WorkerCrash):
            fd = res.to_fault_dict()
        else:
            fd = res["fault"]
        if fd is not None:
            fault_reports.append(fd)
            wd = _crashed_workload_dict(case, config_names,
                                        fd["kind"], fd["message"])
            if not ns.json:
                print(f"{name}: FAULT ({fd['kind']}) {fd['message']}",
                      file=sys.stderr)
            log.warning("workload_fault", workload=name,
                        kind=fd["kind"], message=fd["message"])
            # not journaled: a resumed sweep retries faulted workloads
        else:
            wd = res["dict"]
            journal.record(name, wd)
            ok = all(c["status"] == "ok" for c in wd["configs"])
            if not ns.json:
                print(f"{name}: {'ok' if ok else 'NOT OK'}",
                      file=sys.stderr)
            log.info("workload_done", workload=name, ok=ok)
        wdicts[positions[i]] = wd

    parallel_map(run_workload_cell, jobs_list, jobs,
                 labels=[f"validate {j['workload']}" for j in jobs_list],
                 on_result=merge)
    from repro.experiments.common import finalize_telemetry

    finalize_telemetry("repro.validate")

    payload = build_report_from_dicts(wdicts, configs=config_names,
                                      quick=ns.quick, faults=fault_reports)
    if ns.output:
        with open(ns.output, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    if ns.json:
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(render_text_from_dicts(wdicts))

    if fault_reports:
        return 3
    all_ok = all(c["status"] == "ok"
                 for w in wdicts for c in w["configs"])
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
