"""Figure 6: effect of compiler-inserted prefetch instructions.

The paper: "an improvement of up to 100% in CG, TRFD exhibits only a 15%
gain, primarily because vector lengths are large in CG and small in TRFD.
In addition, the manually optimized version of TRFD has a high percentage
of its references privatized (diverted to cluster memory)" — prefetch
helps only global vector streams.

We time the restructured programs with the prefetch unit disabled and
enabled; the figure's bars are speeds relative to the no-prefetch run.
"""

from __future__ import annotations

from repro.experiments.common import restructured_estimate
from repro.experiments.report import Table
from repro.machine.config import cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.workloads.linalg import LINALG_ROUTINES
from repro.workloads.perfect import PERFECT_PROGRAMS

#: paper bar heights (speed relative to no-prefetch)
PAPER = {"cg": 2.0, "trfd": 1.15}


def run(quick: bool = False) -> Table:
    machine = cedar_config1()
    t = Table(
        title="Figure 6: effect of compiler-inserted prefetch "
              "(speed relative to no-prefetch)",
        columns=["program", "paper gain", "measured gain"],
    )

    cg = LINALG_ROUTINES["cg"]
    n = 100 if quick else cg.paper_n
    off, _, _ = restructured_estimate(cg.source, cg.entry, cg.bindings(n),
                                      machine,
                                      RestructurerOptions.automatic(),
                                      prefetch=False)
    on, _, _ = restructured_estimate(cg.source, cg.entry, cg.bindings(n),
                                     machine,
                                     RestructurerOptions.automatic(),
                                     prefetch=True)
    t.add("CG", PAPER["cg"], off.total / on.total)

    trfd = PERFECT_PROGRAMS["TRFD"]
    n = 24 if quick else trfd.paper_n
    # the paper measured the *manually optimized* TRFD, whose references
    # are largely privatized — exactly what limits its prefetch gain
    opts = RestructurerOptions.manual()
    off, _, _ = restructured_estimate(trfd.source, trfd.entry,
                                      trfd.bindings(n), machine, opts,
                                      prefetch=False)
    on, _, _ = restructured_estimate(trfd.source, trfd.entry,
                                     trfd.bindings(n), machine, opts,
                                     prefetch=True)
    t.add("TRFD", PAPER["trfd"], off.total / on.total)
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
