#!/usr/bin/env python3
"""Census of what the compiled engine runs as vector text, as scalar
text, and on the tree.

For each validation case x pipeline configuration, with and without a
``ShadowRecorder``: how many statement lists were compiled and how many
of them were left whole to the tree walk; how many loop statements got a
vector form and how many statements run on scalar text; and how many
loop *executions* ran as a whole grid against how many ran their scalar
text — a DO through its emitted ``for``, a parallel loop through the
interpreter's worker-by-worker ``_parallel_do`` (instrumented, under a
recorder).  A vector form that hands its loop over — inside a checked
iteration, under aliased array names — counts as a scalar execution.
Under a recorder, "unlogged" counts the parallel loop executions it
counted in ``loops_checked`` but opened no log for: those of fewer than
two iterations, which cannot conflict.

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
    shadow = ShadowRecorder() if recorded else None
    if recorded:
        open_loop = shadow.open_loop

        def counting_open_loop(label, n):
            ctx = open_loop(label, n)
            c["unlogged"] += ctx is None
            return ctx

        # both engines' loops, and the vector text's OPEN, call it here
        shadow.open_loop = counting_open_loop
    # set by a parallel loop's vector form on entry; still set when
    # ``_parallel_do`` starts only if that form handed the loop over
    entered = [False]

    def counted(fn, stmt):
        vector = fn.__name__.startswith("_v")
        if isinstance(stmt, ParallelDo):
            if not vector:
                return fn       # counted by ``_parallel_do`` itself

            def run(scope):
                c["parallel vector"] += 1
                entered[0] = True
                try:
                    return fn(scope)
                finally:
                    entered[0] = False
            return run

        def run(scope):
            # a DO's vector form hands over exactly when some enclosing
            # loop is recording
            grid = vector and not (recorded and shadow.recording)
            c["do vector" if grid else "do scalar"] += 1
            return fn(scope)
        return run

    compile_list = compiled.Compiler._compile_list

    def counting_compile_list(self, stmts, unit):
        fns = compile_list(self, stmts, unit)
        c["lists"] += 1
        for i, s in enumerate(stmts if fns is not None else ()):
            if isinstance(s, LOOPS):
                fns[i] = counted(fns[i], s)
        return fns

    compiled.Compiler._compile_list = counting_compile_list
    try:
        interp = Interpreter(program, processors=processors,
                             shadow=shadow, engine="compiled")
        parallel_do = interp._parallel_do

        def counting_parallel_do(s, scope, unit):
            c["parallel scalar"] += 1
            if entered[0]:
                entered[0] = False
                c["parallel vector"] -= 1
            return parallel_do(s, scope, unit)

        interp._parallel_do = counting_parallel_do
        args, _ = case.make_args(case.n, np.random.default_rng(seed))
        interp.call(case.entry, *args)
    finally:
        compiled.Compiler._compile_list = compile_list
    comp = interp._compiler
    c["tree lists"] = comp.tree_lists
    c["vector-text loops"] = comp.vectorized_loops
    c["scalar-text statements"] = comp.scalar_stmts
    return c


COLUMNS = ("lists", "tree lists", "vector-text loops",
           "scalar-text statements", "parallel vector", "parallel scalar",
           "do vector", "do scalar", "unlogged")


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
