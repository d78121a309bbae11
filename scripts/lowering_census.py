#!/usr/bin/env python3
"""Census of what the compiled engine still runs on closures.

For each validation case x pipeline configuration, with and without a
``ShadowRecorder``: how many statement lists were compiled, how many of
their loop statements the lowerer took, and how many loop *executions*
ran as emitted NumPy source against how many ran on closures — a DO
through ``Compiler._do_loop``, a parallel loop through the interpreter's
worker-by-worker ``_parallel_do`` (instrumented, under a recorder).  A
recorder-aware function that hands its statement to the closure counts
as a closure execution.

Usage (repo root): ``PYTHONPATH=src python scripts/lowering_census.py
[--recorded-only] [case ...]`` — a Markdown table on stdout, all 22
cases by default.  Informational: nothing here is gated.
"""

from __future__ import annotations

import argparse
from collections import Counter

import numpy as np

from repro.cedar.nodes import ParallelDo
from repro.engine import cached_restructure
from repro.execmodel import compiled
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import ShadowRecorder
from repro.execmodel.source_jit import LOOPS
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases


def census(program, case, recorded: bool, processors: int = 8,
           seed: int = 2) -> Counter:
    """Run ``program`` once on the compiled engine and count (the
    defaults are one ``bench/run.py --workload validate-sweep --seed 2``
    cell)."""
    c: Counter = Counter()
    # set by a lowered function on entry; still set when a closure
    # starts only if that function handed its statement over
    entered = [False]

    def on_closure(kind: str) -> None:
        c[f"{kind} on closures"] += 1
        if entered[0]:
            entered[0] = False
            c[f"{kind} lowered"] -= 1

    def lowered(fn, kind: str):
        def run(scope):
            c[f"{kind} lowered"] += 1
            entered[0] = True
            try:
                return fn(scope)
            finally:
                entered[0] = False
        return run

    compile_list = compiled.Compiler._compile_list
    do_loop = compiled.Compiler._do_loop

    def counting_compile_list(self, stmts, unit):
        fns = compile_list(self, stmts, unit)
        c["lists"] += 1
        loops = [i for i, s in enumerate(stmts) if isinstance(s, LOOPS)]
        c["lists with a loop"] += bool(loops)
        for i in loops:
            if getattr(fns[i], "__name__", "") == f"_s{i}":
                c["loop statements lowered"] += 1
                kind = "parallel" if isinstance(stmts[i], ParallelDo) \
                    else "do"
                fns[i] = lowered(fns[i], kind)
            else:
                c["loop statements on closures"] += 1
        return fns

    def counting_do_loop(self, s, unit):
        fn = do_loop(self, s, unit)

        def run(scope):
            on_closure("do")
            return fn(scope)
        return run

    compiled.Compiler._compile_list = counting_compile_list
    compiled.Compiler._do_loop = counting_do_loop
    try:
        interp = Interpreter(program, processors=processors,
                             shadow=ShadowRecorder() if recorded else None,
                             engine="compiled")
        parallel_do = interp._parallel_do

        def counting_parallel_do(s, scope, unit):
            on_closure("parallel")
            return parallel_do(s, scope, unit)

        interp._parallel_do = counting_parallel_do
        args, _ = case.make_args(case.n, np.random.default_rng(seed))
        interp.call(case.entry, *args)
    finally:
        compiled.Compiler._compile_list = compile_list
        compiled.Compiler._do_loop = do_loop
    return c


COLUMNS = ("lists", "lists with a loop", "loop statements lowered",
           "loop statements on closures", "parallel lowered",
           "parallel on closures", "do lowered", "do on closures")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="*", help="validation cases "
                    "(default: all)")
    ap.add_argument("--recorded-only", action="store_true",
                    help="only the runs with a ShadowRecorder attached")
    ns = ap.parse_args(argv)
    cases = validation_cases()
    names = ns.cases or sorted(cases)
    print("| case/config | recorder | " + " | ".join(COLUMNS) + " |")
    print("|---|---|" + "---:|" * len(COLUMNS))
    totals: dict[bool, Counter] = {False: Counter(), True: Counter()}
    for name in names:
        for config in sorted(PIPELINE_CONFIGS):
            program, _ = cached_restructure(cases[name].source,
                                            PIPELINE_CONFIGS[config]())
            for recorded in (False, True):
                if ns.recorded_only and not recorded:
                    continue
                c = census(program, cases[name], recorded)
                totals[recorded].update(c)
                print(f"| {name}/{config} | {'yes' if recorded else 'no'} | "
                      + " | ".join(str(c[k]) for k in COLUMNS) + " |")
    for recorded, c in totals.items():
        if c:
            print(f"| **all {len(names)} cases** | "
                  f"{'yes' if recorded else 'no'} | "
                  + " | ".join(f"**{c[k]}**" for k in COLUMNS) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
