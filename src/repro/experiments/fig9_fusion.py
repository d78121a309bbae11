"""Figure 9: combining multiple parallel loops into a single parallel loop
(FLO52).

Three program variants, timed on the Alliant FX/80 and on Cedar:

- **a** — inner loops parallel only (the first compiler version);
- **b** — the two outer loops parallelized (array privatization);
- **c** — the two outer loops fused into one parallel loop (replicating
  the scalar code between them).

The paper: a→c gains ~50% on the FX/80 but ~100% on Cedar, because SDOALL
startup (through global memory) dwarfs CDOALL startup — fewer, larger
spread loops win big on Cedar (§4.2.4).
"""

from __future__ import annotations

from dataclasses import replace

from repro.experiments.common import restructured_estimate
from repro.experiments.report import Table
from repro.machine.config import alliant_fx80, cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.workloads.perfect import PERFECT_PROGRAMS

#: paper bar heights, speed relative to variant a
PAPER = {
    "fx80": {"a": 1.0, "b": 1.3, "c": 1.5},
    "cedar": {"a": 1.0, "b": 1.5, "c": 2.0},
}


def _variant_options(variant: str) -> RestructurerOptions:
    manual = RestructurerOptions.manual()
    if variant == "a":
        # without array privatization the outer loops stay serial and only
        # the small inner loops run parallel
        return replace(manual, array_privatization=False, loop_fusion=False)
    if variant == "b":
        return replace(manual, loop_fusion=False)
    return manual  # c: fusion on


def run(quick: bool = False) -> Table:
    p = PERFECT_PROGRAMS["FLO52"]
    n = 32 if quick else p.paper_n
    b = p.bindings(n)
    t = Table(
        title="Figure 9: combining multiple parallel loops into one "
              "(FLO52; speed relative to variant a)",
        columns=["machine", "variant", "paper speed", "measured speed"],
    )
    for label, machine in (("fx80", alliant_fx80()),
                           ("cedar", cedar_config1())):
        times = {}
        for v in ("a", "b", "c"):
            res, _, _ = restructured_estimate(
                p.source, p.entry, b, machine, _variant_options(v))
            times[v] = res.total
        for v in ("a", "b", "c"):
            t.add(label, v, PAPER[label][v], times["a"] / times[v])
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
