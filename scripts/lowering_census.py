#!/usr/bin/env python3
"""Census of what the compiled engine runs as vector text, as scalar
text, and on the tree.

For each validation case x pipeline configuration, with and without a
``ShadowRecorder``: how many statement lists were compiled and how many
of them were left whole to the tree walk; how many loop statements got a
vector form (only DOALL-headed nests of the recorder-aware text do, so
unrecorded runs count none) and how many statements run on scalar text;
and how many loop *executions* ran as a whole grid against how many ran
their scalar text — a DO through its emitted ``for`` ("do scalar"), a
parallel loop through the interpreter's worker-by-worker
``_parallel_do`` (instrumented, under a recorder).  Of those parallel
loops, "parallel worker" counts the
unrecorded DOALL executions whose shares each ran as one worker
function of the text, "parallel scalar" the ones that ran each share's
statement lists iteration by iteration.  "promoted loops" counts the
executions of the unrecorded text that ran as a closed region — a
worker function's share, or a DO nest written inline, run on locals of
its scalars (the text's ``# closed region`` marker, counted by running
an instrumented copy of each module text).  A vector form that hands its
loop over — inside a checked iteration, under aliased array names,
under a deal that is not a partition — counts as a scalar execution.
Under a recorder, "unlogged" counts the parallel loop executions it
counted in ``loops_checked`` but opened no log for: those of fewer than
two iterations, which cannot conflict; and "recorder calls" the calls
both engines' access paths make into it — ``record_scalar``,
``record_array``, ``record_block``, ``logs_scalar_read`` and
``logs_array_read`` — each one paid whether or not it logs a row;
"read-only sets computed" the loop executions whose read-only keys
``Interpreter._read_only`` worked out afresh (its memo per loop site
missed), and "small logs" the closed logs ``ShadowRecorder._analyze``
checked on its plain-Python path (at most ``shadow.SMALL_LOG`` rows).

With ``--shapes`` a second table follows: the vector-text loops by the
shape of their vector form — ``plain``, ``strip-mine`` or ``partial-sum``
(``_LoopLowerer.shape``), the only three the lowerer takes.

Usage (repo root): ``PYTHONPATH=src python scripts/lowering_census.py
[--recorded-only] [--shapes] [case ...]`` — a Markdown table on stdout,
all 22 cases by default.  Informational: nothing here is gated.
"""

from __future__ import annotations

import argparse
import re
from collections import Counter

import numpy as np

from repro.cedar.nodes import ParallelDo
from repro.engine import cached_restructure
from repro.execmodel import compiled
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import ShadowRecorder
from repro.execmodel.source_jit import LOOPS, _LoopLowerer
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases


def census(program, case, recorded: bool, processors: int = 8,
           seed: int = 2) -> Counter:
    """Run ``program`` once on the compiled engine and count (the
    defaults are one ``bench/run.py --workload validate-sweep --seed 2``
    cell)."""
    c: Counter = Counter()
    shadow = ShadowRecorder() if recorded else None

    def counting(call):
        def run(*args, **kwargs):
            c["recorder calls"] += 1
            return call(*args, **kwargs)
        return run

    if recorded:
        open_loop = shadow.open_loop

        def counting_open_loop(label, n, read_only=frozenset()):
            ctx = open_loop(label, n, read_only)
            c["unlogged"] += ctx is None
            return ctx

        # both engines' loops, and the vector text's OPEN, call it here
        shadow.open_loop = counting_open_loop
        for name in RECORDER_CALLS:
            setattr(shadow, name, counting(getattr(shadow, name)))
    # set by a parallel loop's vector form on entry; still set when
    # ``_parallel_do`` starts only if that form handed the loop over
    entered = [False]

    def counted(fn, stmt):
        if isinstance(stmt, ParallelDo):
            if not fn.__name__.startswith("_v"):
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
            c["do scalar"] += 1
            return fn(scope)
        return run

    def counting_load(text: str):
        # one count per closed region the module's text enters
        ns = {"REGION": lambda: c.update(("promoted loops",))}
        exec(compile(REGION.sub(r"\1REGION()", text), "<jit-source>",
                     "exec"), ns)
        return ns["make"]

    compile_list = compiled.Compiler._compile_list
    load = compiled._load

    def counting_compile_list(self, stmts, unit):
        fns = compile_list(self, stmts, unit)
        c["lists"] += 1
        for i, s in enumerate(stmts if fns is not None else ()):
            if fns[i].__name__.startswith("_v"):
                shape = _LoopLowerer(self.interp, s, unit).shape
                c[f"shape {shape}"] += 1
            if isinstance(s, LOOPS):
                fns[i] = counted(fns[i], s)
        return fns

    compiled.Compiler._compile_list = counting_compile_list
    compiled._load = counting_load
    try:
        interp = Interpreter(program, processors=processors,
                             shadow=shadow, engine="compiled")
        parallel_do = interp._parallel_do

        def counting_parallel_do(s, scope, unit, worker=None):
            # unrecorded, a DOALL the text writes whole passes its
            # worker function, which runs every share
            c["parallel worker" if worker and not recorded
              else "parallel scalar"] += 1
            if entered[0]:
                entered[0] = False
                c["parallel vector"] -= 1
            return parallel_do(s, scope, unit, worker)

        interp._parallel_do = counting_parallel_do
        if recorded:
            read_keys = interp._read_keys

            def counting_read_keys(s, scope):
                c["read-only sets computed"] += 1
                return read_keys(s, scope)

            scan_small = shadow._scan_small

            def counting_scan_small(w, r):
                c["small logs"] += 1
                return scan_small(w, r)

            interp._read_keys = counting_read_keys
            shadow._scan_small = counting_scan_small
        args, _ = case.make_args(case.n, np.random.default_rng(seed))
        interp.call(case.entry, *args)
    finally:
        compiled.Compiler._compile_list = compile_list
        compiled._load = load
    comp = interp._compiler
    c["tree lists"] = comp.tree_lists
    c["vector-text loops"] = comp.vectorized_loops
    c["scalar-text statements"] = comp.scalar_stmts
    return c


COLUMNS = ("lists", "tree lists", "vector-text loops",
           "scalar-text statements", "parallel vector", "parallel worker",
           "parallel scalar", "do scalar", "promoted loops",
           "unlogged", "recorder calls", "read-only sets computed",
           "small logs")

#: the shapes a vector form takes (``_LoopLowerer.shape``)
SHAPES = ("plain", "strip-mine", "partial-sum")

#: the recorder's per-access entry points: the engines call them on the
#: instance, and the emitted text binds them when a list is compiled
RECORDER_CALLS = ("record_scalar", "record_array", "record_block",
                  "logs_scalar_read", "logs_array_read")

#: the line a closed region of the module text starts with
REGION = re.compile(r"^( *)# closed region$", re.M)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("cases", nargs="*", help="validation cases "
                    "(default: all)")
    ap.add_argument("--recorded-only", action="store_true",
                    help="only the runs with a ShadowRecorder attached")
    ap.add_argument("--shapes", action="store_true",
                    help="also count the vector-text loops by shape")
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
    if ns.shapes:
        c = totals[False] + totals[True]
        print()
        print("| vector form shape | vector-text loops |")
        print("|---|---:|")
        for shape in SHAPES:
            print(f"| {shape} | {c[f'shape {shape}']} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
