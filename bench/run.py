#!/usr/bin/env python3
"""The repository benchmark: four user paths, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload as a user runs it, on a clock that
follows the shared host's speed (``cedarbench.common.HostClock``), and
prints every end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` replays it with a
span around each layer's public functions and prints every per-layer
metric.  Either way the outputs are checked after the timed section and
the last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``.  The exit code is non-zero when a check failed.
Without ``--workload`` every workload runs in turn, each in its own
process.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MIN_PASSES = 3


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="default: all, one process each")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measure at least this long (and never fewer "
                         f"than {MIN_PASSES} passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                    const=1, default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one pass, 60 requests: checks the harness, "
                         "measures nothing worth keeping")
    return ap.parse_args(argv)


def one_pass(workload, clear: bool, tracer=None):
    """One pass over the workload's inputs.  CLI users start every run
    with an empty in-memory compilation cache, so a sweep pass does too."""
    from cedarbench.common import Pass

    if clear:
        from repro.engine.cache import get_cache

        get_cache().clear()
    t0 = time.perf_counter()
    ops = workload.run_pass(tracer)
    return Pass(time.perf_counter() - t0, ops)


def timed_passes(run, seconds: float, min_passes: int) -> list:
    passes, t0 = [], time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - t0 < seconds:
        passes.append(run())
    return passes


def checked(workload, clock, passes, setup, rss):
    """The end-to-end metrics in nominal seconds (see ``HostClock``), the
    raw readings beside them in the log, and the output checks."""
    from cedarbench.common import end_to_end, median, on_host_clock

    print(f"# host clock: {clock.slowdown():.3f} host seconds per nominal "
          f"second; raw wall_s {median([p.wall for p in passes])!r}, "
          f"raw setup_s {median([s for _, s in setup])!r}")
    attempted, failed, problems = workload.check(passes)
    nominal_setup = [clock.elapsed(t0, t0 + s) for t0, s in setup]
    return (end_to_end(on_host_clock(passes, clock), nominal_setup,
                       attempted - failed, rss, workload.repeats_ops),
            attempted, failed, problems)


def measure_sweep(workload, args):
    from cedarbench.common import (HostClock, fresh_import_spans,
                                   self_peak_rss_mb)

    with HostClock() as clock:
        setup = fresh_import_spans(workload.entry_module)
        importlib.import_module(workload.entry_module)
        passes = timed_passes(lambda: one_pass(workload, clear=True),
                              args.seconds, 1 if args.smoke else MIN_PASSES)
    return checked(workload, clock, passes, setup, self_peak_rss_mb())


def measure_serve(workload, args):
    from cedarbench.common import SETUP_SAMPLES, HostClock
    from cedarbench.serve import Server

    # the server and its workers inherit the clock's CPU
    with HostClock() as clock:
        setup = []
        for _ in range(SETUP_SAMPLES):
            server = Server()
            setup.append((server.spawned, server.ready_seconds))
            server.stop()
        try:
            workload.start()
            passes = timed_passes(
                lambda: one_pass(workload, clear=False),
                args.seconds, 1 if args.smoke else MIN_PASSES)
            rss = workload.peak_rss_mb()
        finally:
            workload.stop()
    return checked(workload, clock, passes, setup, rss)


def traced(workload, args, tracer, metrics, passes):
    """Common tail of a traced run: the probes on the workload's sources,
    the output checks, the span file."""
    from cedarbench import probes
    from cedarbench.common import OUT_DIR

    more, problems = probes.source_probes(workload.sources(), workload.seed)
    metrics.update(more)
    attempted, failed, found = workload.check(passes)
    tracer.write(OUT_DIR / "trace.json",
                 {"workload": workload.name, "seed": args.seed})
    return metrics, attempted, failed, problems + found


def trace_sweep(workload, args):
    """The staged replay of a sweep: a cold untraced pass, the same pass
    with spans around every layer boundary, an uncleared (warm) pass,
    then the probes that call single layers on the workload's inputs."""
    from cedarbench import probes
    from cedarbench.common import Tracer, fresh_import_seconds, layer_spans
    from repro.engine.cache import cache_stats

    setup = fresh_import_seconds(workload.entry_module, samples=3)
    importlib.import_module(workload.entry_module)
    metrics = probes.import_seconds(workload.entry_module, setup)

    plain = one_pass(workload, clear=True)
    tracer, observer = Tracer(), probes.PassObserver()
    before = cache_stats()
    with layer_spans(tracer, observer):
        with tracer.span("pass"):
            spanned = one_pass(workload, clear=True, tracer=tracer)
    metrics.update(probes.cache_hit_shares(before, cache_stats()))
    warm = one_pass(workload, clear=False)
    metrics.update(probes.pass_metrics(tracer, observer))
    metrics.update({
        "traced_wall_s": spanned.wall,
        "trace_overhead_share": spanned.wall / plain.wall - 1.0,
        "engine.cache.warm_speedup": plain.wall / warm.wall,
    })
    metrics.update(probes.engine_seconds(workload.cases(), workload.seed))
    metrics.update(workload.layer_probes(plain, spanned, tracer))
    return traced(workload, args, tracer, metrics, [plain, spanned])


def trace_serve(workload, args):
    """The staged replay of the server workload: one plain pass and one
    with a client-side span per request over HTTP, then the first pass's
    bodies through the worker's cell function in this process, with
    spans around every layer boundary."""
    from cedarbench import probes
    from cedarbench.common import Tracer, layer_spans
    from cedarbench.serve import Server
    from repro.engine.cache import cache_stats, get_cache

    first = Server()
    first.stop()
    metrics = probes.import_seconds(workload.entry_module,
                                    [first.ready_seconds])
    tracer, observer = Tracer(), probes.PassObserver()
    try:
        workload.start()
        plain = one_pass(workload, clear=False)
        spanned = one_pass(workload, clear=False, tracer=tracer)
        get_cache().clear()
        before = cache_stats()
        with layer_spans(tracer, observer):
            with tracer.span("pass") as replay:
                cells_hot = workload.replay_in_process(plain.ops, tracer)
        metrics.update(probes.cache_hit_shares(before, cache_stats()))
        metrics.update(workload.layer_metrics(plain.ops, spanned.ops,
                                              cells_hot))
    finally:
        workload.stop()
    metrics.update(probes.pass_metrics(tracer, observer))
    metrics.update({
        "traced_wall_s": replay["end"] - replay["start"],
        "trace_overhead_share": spanned.wall / plain.wall - 1.0,
        "engine.cache.warm_speedup": (
            metrics["server.cold_roundtrip_ms.p50"]
            / metrics["server.roundtrip_ms.p50"]),
    })
    return traced(workload, args, tracer, metrics, [plain, spanned])


def run_workload(args) -> int:
    from cedarbench.common import digest, host_facts
    from cedarbench.serve import ServeMixed
    from cedarbench.sweeps import SWEEPS

    serve = args.workload == ServeMixed.name
    workload = (ServeMixed if serve else SWEEPS[args.workload])(
        args.seed, args.smoke)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace}")
    print(f"# host {json.dumps(host_facts())}")
    print(f"# inputs sha256 {digest(workload.inputs())}")
    flow = {(False, 0): measure_sweep, (False, 1): trace_sweep,
            (True, 0): measure_serve, (True, 1): trace_serve}
    measured, attempted, failed, problems = flow[serve, args.trace](
        workload, args)

    metrics = {}
    for m in declared:
        value = measured.get(m["name"], 0.0 if args.trace else None)
        if isinstance(value, tuple):
            value, samples = value
            note = f" (n={samples})"
        else:
            note = ""
        if value is None:
            problems.append(f"metric {m['name']} was not measured")
            continue
        print(f"{m['name']} {value!r} {m['unit']}{note}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    extra = sorted(set(measured) - {m["name"] for m in declared})
    if extra:
        problems.append(f"undeclared metrics: {', '.join(extra)}")
    print(f"failed_share {failed / max(attempted, 1)!r} ratio "
          f"({failed}/{attempted})")
    for problem in problems:
        print(f"# CHECK FAILED: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    args.seed = abs(args.seed)
    # measure the program, not the caller's shell: no REPRO_* switch
    # (engine, cache dir, telemetry, logging) survives into the run
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.workload is None:
        codes = []
        for name in WORKLOADS:
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            codes.append(subprocess.run(
                cmd + (["--smoke"] if args.smoke else [])).returncode)
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
