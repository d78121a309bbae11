"""Command-line front end for the profiler.

``python -m repro.prof gantt TRACE.json``
    Re-render a ``trace.json`` written by ``--profile`` as ASCII per-CE
    Gantt charts, for terminals without Perfetto.

``python -m repro.prof report PROFILE.json``
    Per-loop utilization/imbalance summary from a profile document.

Exit status (shared CLI convention — see also ``repro.experiments``,
``repro.validate``, ``repro.faults``):
    0  success
    2  usage error (bad flags, malformed payloads)
    3  internal fault (unexpected exception — a harness bug)
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.prof.report import render_gantt, render_utilization
from repro.prof.timeline import CONTROL_TRACK, LoopRecord, Span


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def loops_from_trace(trace: dict, pid: int | None = None) -> list[LoopRecord]:
    """Rebuild :class:`LoopRecord`s from a Chrome trace document.

    ``pid`` selects one profiled run; ``None`` takes them all in pid
    order (they share one sequential clock per run).
    """
    events = trace.get("traceEvents", [])
    records: list[LoopRecord] = []
    envelopes = [e for e in events
                 if e.get("ph") == "X" and e.get("cat") == "loop"
                 and (pid is None or e.get("pid") == pid)]
    spans = [e for e in events
             if e.get("ph") == "X" and e.get("cat") != "loop"
             and (pid is None or e.get("pid") == pid)]
    for env in sorted(envelopes, key=lambda e: (e["pid"], e["ts"])):
        base, dur = env["ts"], env["dur"]
        label, tag = env["name"].rsplit(" ", 1)
        rec = LoopRecord(
            label=label, level=tag[:1], order=tag[1:],
            workers=int(env.get("args", {}).get("workers", 0)),
            base=base, total=dur,
            busy=float(env.get("args", {}).get("busy_time", 0.0)))
        for ev in spans:
            if ev["pid"] != env["pid"]:
                continue
            ts = ev["ts"]
            if not (base <= ts < base + dur or (dur == 0 and ts == base)):
                continue
            args = ev.get("args", {})
            worker = CONTROL_TRACK if ev["tid"] == 0 else ev["tid"] - 1
            rec.spans.append(Span(
                worker=worker, category=ev["cat"],
                start=ts - base, end=ts - base + ev["dur"],
                busy=bool(args.get("busy", True)),
                count=int(args.get("count", 1))))
        records.append(rec)
    return records


def _cmd_gantt(ns: argparse.Namespace) -> int:
    loops = loops_from_trace(_load(ns.trace), pid=ns.pid)
    if not loops:
        print("(no loop records in trace)")
        return 0
    print(render_gantt(loops, width=ns.width))
    return 0


def _cmd_report(ns: argparse.Namespace) -> int:
    doc = _load(ns.profile)
    for run in doc.get("runs", []):
        print(f"== {doc.get('experiment', '?')}/{run['workload']} "
              f"[{run['role']}]  total {run['total_cycles']:,.0f} cyc")
        recs = []
        for lp in run.get("loops", []):
            rec = LoopRecord(
                label=lp["label"], level=lp["level"], order=lp["order"],
                workers=lp["workers"], base=lp["base"],
                total=lp["total_time"], busy=lp["busy_time"])
            # worker_busy is stored; reconstruct one busy span per CE so
            # the utilization table works without full span data
            for w, b in enumerate(lp.get("worker_busy", [])):
                if b > 0:
                    rec.spans.append(Span(w, "chunk", 0.0, b))
            recs.append(rec)
        print(render_utilization(recs))
        print()
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.prof",
        description="Profiler utilities: terminal rendering of "
                    "traces and profile documents.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gantt", help="ASCII Gantt from a trace.json")
    p.add_argument("trace")
    p.add_argument("--pid", type=int, default=None,
                   help="restrict to one profiled run")
    p.add_argument("--width", type=int, default=64)
    p.set_defaults(func=_cmd_gantt)

    p = sub.add_parser("report", help="utilization table from a profile JSON")
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
        print(f"repro.prof: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"repro.prof: malformed JSON payload: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — CLI boundary
        print(f"repro.prof: internal fault: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
