"""Figure 7: data privatization vs expansion in MDG's major loop.

Two variants of the same parallelized loop:

- **privatization** — the distance workspace lives in loop-local
  (cluster-memory / cache) storage, one copy per processor;
- **expansion** — the same data expanded by one dimension and placed in
  global memory (``dr(j)`` → ``dr(j, iproc)``), paying global latency
  plus the extra addressing.

The paper measures the expanded variant at half the speed of the
privatized one.
"""

from __future__ import annotations

from repro.cedar.nodes import ParallelDo
from repro.experiments.common import direct_estimate
from repro.experiments.report import Table
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.machine.config import cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer
from repro.workloads.perfect import PERFECT_PROGRAMS

#: work arrays of the MDG proxy loop
WORK_ARRAYS = ("dr", "r2")

PAPER_RATIO = 0.5  # expanded variant runs at half speed


def _strip_locals(sf: F.SourceFile, names: tuple[str, ...]) -> None:
    """Remove given names from every ParallelDo's loop-local declarations,
    so they resolve to the unit-level (shared) arrays instead."""
    for u in sf.units:
        for s in F.stmts_walk(u.body):
            if isinstance(s, ParallelDo):
                kept = []
                for decl in s.locals_:
                    if isinstance(decl, F.TypeDecl):
                        decl.entities = [e for e in decl.entities
                                         if e.name not in names]
                        if decl.entities:
                            kept.append(decl)
                    else:
                        kept.append(decl)
                s.locals_ = kept


def run(quick: bool = False) -> Table:
    machine = cedar_config1()
    p = PERFECT_PROGRAMS["MDG"]
    n = 32 if quick else p.paper_n
    b = p.bindings(n)
    opts = RestructurerOptions.manual()

    # privatized variant: the manual restructuring as-is
    sf_priv, _ = Restructurer(opts).run(parse_program(p.source))
    priv = direct_estimate(sf_priv, p.entry, b, machine, "mdg-privatized")

    # expanded variant: same code, work arrays shared and global (the
    # extra expansion dimension's addressing is ~0.5 op per access, which
    # the estimator already charges through the subscript cost)
    sf_exp, _ = Restructurer(opts).run(parse_program(p.source))
    _strip_locals(sf_exp, WORK_ARRAYS)
    placements = {w: "global" for w in WORK_ARRAYS}
    exp = direct_estimate(sf_exp, p.entry, b, machine, "mdg-expanded",
                          placements=placements)

    t = Table(
        title="Figure 7: data privatization vs expansion in MDG "
              "(speed relative to the privatized variant)",
        columns=["variant", "paper speed", "measured speed"],
    )
    t.add("privatization", 1.0, 1.0)
    t.add("expansion", PAPER_RATIO, priv.total / exp.total)
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
