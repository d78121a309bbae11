"""Table 1: speedups of automatically restructured linear-algebra routines
on Configuration 1 of the 32-processor Cedar.

Speedup = serial (scalar, data in one cluster's memory) time divided by
the automatically parallelized Cedar version's time, at the paper's data
sizes.  mprove's outlier comes from the serial version thrashing (its two
1000×1000 matrices exceed one cluster's physical memory) while the
parallel version's data fits in global memory.
"""

from __future__ import annotations

from repro.experiments.common import estimate_pair
from repro.experiments.report import Table
from repro.machine.config import cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.workloads.linalg import LINALG_ROUTINES


def run(quick: bool = False) -> Table:
    """Regenerate Table 1.  ``quick`` shrinks sizes (for smoke tests)."""
    machine = cedar_config1()
    options = RestructurerOptions.automatic()
    t = Table(
        title="Table 1: speedups of automatically restructured linear "
              "algebra routines (Cedar Configuration 1)",
        columns=["routine", "size", "paper speedup", "measured speedup"],
    )
    t.meta["trace"] = {}
    for r in LINALG_ROUTINES.values():
        n = max(16, r.paper_n // 8) if quick else r.paper_n
        res = estimate_pair(r.source, r.entry, r.bindings(n),
                            machine, options)
        t.add(r.name, n, r.paper["cedar_auto"], res.speedup)
        t.meta["trace"][r.name] = res.trace_entry()
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
