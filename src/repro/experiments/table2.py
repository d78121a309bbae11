"""Table 2: Perfect Benchmarks proxies — automatic vs manually-improved
speedups on the Alliant FX/80 and Cedar.

"Automatic" runs the baseline 1991 restructurer configuration;
"manual" switches on the hand-applied techniques of §4.1 (array
privatization, generalized induction variables, run-time dependence
tests, array/multi-statement reductions, critical sections, inline
expansion, fusion).  The paper's headline: the
manual codes average 4.5× the automatic ones on the FX/80 and 17.2× on
Cedar.
"""

from __future__ import annotations

from repro.experiments.common import estimate_pair
from repro.experiments.report import Table
from repro.machine.config import alliant_fx80, cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.workloads.perfect import PERFECT_PROGRAMS


def run(quick: bool = False, n_override: int | None = None) -> Table:
    """Regenerate Table 2."""
    fx80 = alliant_fx80()
    t = Table(
        title="Table 2: Perfect Benchmarks proxies — speedups vs serial "
              "(automatic / manually improved)",
        columns=["program",
                 "fx80 auto", "cedar auto", "fx80 manual", "cedar manual",
                 "paper fx80 auto", "paper cedar auto",
                 "paper fx80 manual", "paper cedar manual"],
    )
    auto = RestructurerOptions.automatic()
    manual = RestructurerOptions.manual()
    ratios_fx = []
    ratios_cedar = []
    t.meta["trace"] = {}
    for name, p in PERFECT_PROGRAMS.items():
        n = n_override or (max(16, p.paper_n // 4) if quick else p.paper_n)
        b = p.bindings(n)
        cells = {}
        for mach_label, machine in (("fx80", fx80),
                                    ("cedar", cedar_config1())):
            for opt_label, opts in (("auto", auto), ("manual", manual)):
                res = estimate_pair(p.source, p.entry, b, machine, opts)
                cells[f"{mach_label} {opt_label}"] = res.speedup
                if mach_label == "cedar" and opt_label == "manual":
                    t.meta["trace"][name] = res.trace_entry()
        t.add(name,
              cells["fx80 auto"], cells["cedar auto"],
              cells["fx80 manual"], cells["cedar manual"],
              p.paper["fx80_auto"], p.paper["cedar_auto"],
              p.paper["fx80_manual"], p.paper["cedar_manual"])
        ratios_fx.append(cells["fx80 manual"] / max(cells["fx80 auto"], 1e-9))
        ratios_cedar.append(cells["cedar manual"]
                            / max(cells["cedar auto"], 1e-9))
    avg_fx = sum(ratios_fx) / len(ratios_fx)
    avg_cedar = sum(ratios_cedar) / len(ratios_cedar)
    t.notes.append(f"average manual improvement: FX/80 {avg_fx:.1f}x "
                   f"(paper 4.5x), Cedar {avg_cedar:.1f}x (paper 17.2x)")
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
