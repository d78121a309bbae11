"""The QCD footnote ablation (Table 2, footnote 1).

"A random number generator produces a dependence cycle in QCD which
serializes half of the computation.  The speedup value from the table
(1.8) is the result when both halves of the cycle are serialized.  If
only the lexically forward dependence is serialized with a critical
section, then a speedup of 4.5 is obtained.  If the dependence is not
serialized at all (for instance, if the random number is replaced with a
parallel random number generator), then a speedup of 20.8 is obtained.
Only when the cycle is completely serialized does the code pass the
Perfect Benchmarks validation test."

Three variants of the QCD proxy on Cedar:

- **serialized** — the restructurer's answer: the RNG loop stays serial
  (our critical-section pass *refuses* the order-sensitive seed
  recurrence), only the measurement loop parallelizes;
- **critical** — the validation-breaking hand variant: the RNG update is
  forced behind an unordered lock and the whole loop runs parallel (built
  by hand here, exactly as the authors did);
- **parallel-rng** — the seed recurrence replaced by a splittable
  per-iteration generator, making the loop fully parallel.
"""

from __future__ import annotations

from repro.cedar.nodes import LockStmt, ParallelDo, UnlockStmt
from repro.experiments.common import (direct_estimate, estimate_pair,
                                      serial_estimate)
from repro.experiments.report import Table
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.machine.config import cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer
from repro.workloads.perfect import PERFECT_PROGRAMS

PAPER = {"serialized": 1.81, "critical": 4.5, "parallel-rng": 20.8}

#: the parallel-RNG rewrite: each iteration derives its own stream value
PARALLEL_RNG_SOURCE = """
      subroutine qcd(n, m, seed, link, action, plaq)
      integer n, m, seed
      real link(n), action, plaq(n)
      real wph(1024)
      real r, trial, dact
      integer i, k, si
      do i = 1, n
         si = mod((seed + i) * 16807, 2147483647)
         r = si * 4.6566e-10
         trial = link(i) + (r - 0.5) * 0.4
         dact = exp(trial * trial) - exp(link(i) * link(i))
         if (exp(-dact) .gt. r) then
            link(i) = trial
         end if
      end do
      do i = 1, n
         do k = 1, m
            wph(k) = 0.01 * k * link(i)
         end do
         plaq(i) = 0.0
         do k = 1, m
            plaq(i) = plaq(i) + link(i) * cos(wph(k))
         end do
      end do
      end
"""


def _critical_variant(source: str) -> F.SourceFile:
    """Hand-parallelize the RNG loop with the seed updates behind a lock —
    the variant the paper notes fails validation."""
    sf, _ = Restructurer(RestructurerOptions.manual()).run(
        parse_program(source))
    unit = sf.unit("qcd")
    for idx, s in enumerate(unit.body):
        if isinstance(s, F.DoLoop):
            # the (still serial) RNG loop: protect only the seed update —
            # "the lexically forward dependence" — with the lock, let the
            # Metropolis arithmetic run in parallel, and promote to XDOALL
            body: list[F.Stmt] = []
            for st in s.body:
                touches_seed = any(isinstance(n, F.Var) and n.name == "seed"
                                   for n in st.walk()) \
                    and not isinstance(st, F.IfBlock)
                if touches_seed:
                    body.append(LockStmt(name="rng"))
                    body.append(st)
                    body.append(UnlockStmt(name="rng"))
                else:
                    body.append(st)
            unit.body[idx] = ParallelDo(
                level="X", order="doall", var=s.var,
                start=s.start, end=s.end, step=s.step, body=body)
            break
    return sf


def run(quick: bool = False) -> Table:
    machine = cedar_config1()
    p = PERFECT_PROGRAMS["QCD"]
    n = 512 if quick else p.paper_n
    b = p.bindings(n)

    serial = serial_estimate(p.source, p.entry, b, machine)

    # variant 1: the restructurer's fully-serialized-cycle answer
    res = estimate_pair(p.source, p.entry, b, machine,
                        RestructurerOptions.manual())
    serialized = res.speedup

    # variant 2: hand-built critical section (validation-breaking)
    sf_crit = _critical_variant(p.source)
    crit = direct_estimate(sf_crit, p.entry, b, machine, "qcd-critical")
    critical = serial.total / crit.total

    # variant 3: parallel RNG
    res3 = estimate_pair(PARALLEL_RNG_SOURCE, p.entry, b, machine,
                         RestructurerOptions.manual())
    parallel_rng = serial.total / res3.parallel.total

    t = Table(
        title="QCD footnote ablation: serializing the RNG dependence cycle "
              "(Cedar speedups vs serial)",
        columns=["variant", "paper speedup", "measured speedup",
                 "passes validation"],
    )
    t.add("serialized", PAPER["serialized"], serialized, "yes")
    t.add("critical", PAPER["critical"], critical, "no")
    t.add("parallel-rng", PAPER["parallel-rng"], parallel_rng, "no")
    return t


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
