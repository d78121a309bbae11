#!/usr/bin/env python
"""Explore the Cedar machine model: clusters, prefetch, memory placement.

Uses the Conjugate Gradient workload to reproduce, interactively, the
three Cedar-specific effects of §4.2: the prefetch unit (Figure 6),
global-memory bandwidth saturation vs data partitioning (Figure 8), and
the SDOALL/CDOALL startup gap (Figure 9's root cause).

Run:  python examples/machine_exploration.py
"""

from repro.execmodel.perf import PerfEstimator
from repro.experiments.common import restructured_estimate
from repro.fortran.parser import parse_program
from repro.machine.config import cedar_config1
from repro.machine.scheduler import LoopScheduler
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer
from repro.workloads.linalg import LINALG_ROUTINES


def prefetch_effect() -> None:
    print("== prefetch unit (cf. Figure 6) ==")
    cg = LINALG_ROUTINES["cg"]
    b = cg.bindings(400)
    machine = cedar_config1()
    for prefetch in (False, True):
        res, _, _ = restructured_estimate(
            cg.source, cg.entry, b, machine,
            RestructurerOptions.automatic(), prefetch=prefetch)
        print(f"  prefetch {'on ' if prefetch else 'off'}: "
              f"{res.total:12.0f} cycles")


def cluster_scaling() -> None:
    print("\n== cluster scaling and placement (cf. Figure 8) ==")
    cg = LINALG_ROUTINES["cg"]
    b = cg.bindings(400)
    sf, _ = Restructurer(RestructurerOptions.automatic()).run(
        parse_program(cg.source))
    print(f"  {'clusters':>8} {'global data':>14} {'matrix local':>14}")
    for c in (1, 2, 3, 4):
        machine = cedar_config1().with_clusters(c)
        g = PerfEstimator(sf, machine).estimate(cg.entry, b)
        p = PerfEstimator(sf, machine,
                          placements={"a": "cluster"}).estimate(cg.entry, b)
        print(f"  {c:>8} {g.total:>13.0f}  {p.total:>13.0f}")
    print("  (global placement saturates the memory system; partitioning "
          "the matrix keeps scaling)")


def startup_costs() -> None:
    print("\n== parallel loop startup costs (cf. §4.2.4, Figure 9) ==")
    cedar = cedar_config1()
    sched_c = LoopScheduler(cedar)
    print(f"  {'loop kind':>10} {'trips':>6} {'iter ops':>9} "
          f"{'cedar cycles':>13}")
    for kind, level in (("CDOALL", "C"), ("SDOALL", "S"), ("XDOALL", "X")):
        for trips in (16, 256, 4096):
            t = sched_c.run(level, trips, iter_cost=40.0)
            print(f"  {kind:>10} {trips:>6} {40:>9} {t.total_time:>13.0f}")
    print("  (an SDOALL only pays off with enough work per start — the "
          "reason Figure 9's fusion wins 2x on Cedar)")


if __name__ == "__main__":
    prefetch_effect()
    cluster_scaling()
    startup_costs()
