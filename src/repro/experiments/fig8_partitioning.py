"""Figure 8: data partitioning in the Conjugate Gradient algorithm.

Speed of CG relative to a 1-cluster variant with its data in cluster
memory, for 1-4 clusters:

- **global placement** (solid curve): the automatic compilation puts the
  data in global memory.  One cluster gains ~1.6× from the higher global
  transfer rate + prefetch, but past two clusters the program saturates
  the global memory system and the curve flattens (~4 at 4 clusters).
- **data distribution** (dashed): half the references are localized to
  cluster memory; slower on one cluster, near-linear through four.
"""

from __future__ import annotations

from repro.experiments.common import direct_estimate
from repro.experiments.report import Table
from repro.fortran.parser import parse_program
from repro.machine.config import cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer
from repro.workloads.linalg import LINALG_ROUTINES

#: paper series, speed relative to the 1-cluster cluster-memory variant
PAPER = {
    "global": {1: 1.6, 2: 3.1, 3: 3.8, 4: 4.1},
    "partitioned": {1: 1.35, 2: 2.6, 3: 3.9, 4: 5.0},
}

#: localizing the matrix (the bulk of the references) models the paper's
#: "50% of its data references localized to the cluster memory"
PARTITIONED_PLACEMENTS = {"a": "cluster"}


def run(quick: bool = False) -> Table:
    cg = LINALG_ROUTINES["cg"]
    n = 100 if quick else cg.paper_n
    b = cg.bindings(n)
    opts = RestructurerOptions.automatic()

    sf, _ = Restructurer(opts).run(parse_program(cg.source))

    # baseline: 1 cluster, data in cluster memory
    base_machine = cedar_config1().with_clusters(1)
    base = direct_estimate(sf, cg.entry, b, base_machine, "cg-1cluster",
                           placements={"a": "cluster", "b": "cluster",
                                       "x": "cluster", "r": "cluster",
                                       "p": "cluster", "q": "cluster"})

    t = Table(
        title="Figure 8: data partitioning in Conjugate Gradient "
              "(speed relative to 1-cluster, cluster-memory variant)",
        columns=["clusters", "global (paper)", "global (measured)",
                 "partitioned (paper)", "partitioned (measured)"],
    )
    for c in (1, 2, 3, 4):
        machine = cedar_config1().with_clusters(c)
        g = direct_estimate(sf, cg.entry, b, machine, f"cg-global-{c}cl")
        part = direct_estimate(sf, cg.entry, b, machine,
                               f"cg-partitioned-{c}cl",
                               placements=PARTITIONED_PLACEMENTS)
        t.add(c, PAPER["global"][c], base.total / g.total,
              PAPER["partitioned"][c], base.total / part.total)
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
