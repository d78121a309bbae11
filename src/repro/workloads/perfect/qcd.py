"""QCD proxy: lattice gauge theory Monte Carlo.

Auto 1.1/0.5 → manual 2.0/1.81: the linear-congruential random number
generator forms a true dependence cycle through the accept/reject logic
("a random number generator produces a dependence cycle which serializes
half of the computation").  The feedback from the acceptance step back
into the seed keeps even loop distribution from splitting the cycle, so
only the independent measurement loop parallelizes — both versions stay
near serial, with the automatic Cedar attempt slower than serial.
"""

from __future__ import annotations

NAME = "QCD"
ENTRY = "qcd"
VALIDATE_N = 16
PAPER_N = 4096
PAPER = {"fx80_auto": 1.1, "cedar_auto": 0.5,
         "fx80_manual": 2.0, "cedar_manual": 1.81}
TECHNIQUES = ("critical_sections", "array_privatization")

SOURCE = """
      subroutine qcd(n, m, seed, link, action, plaq)
      integer n, m, seed
      real link(n), action, plaq(n)
      real wph(1024)
      real r, trial, dact
      integer i, k
      do i = 1, n
         seed = mod(seed * 16807, 2147483647)
         r = seed * 4.6566e-10
         trial = link(i) + (r - 0.5) * 0.4
         dact = exp(trial * trial) - exp(link(i) * link(i))
         if (exp(-dact) .gt. r) then
            link(i) = trial
            seed = seed + i
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


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    link = rng.standard_normal(n) * 0.1
    return (n, 6, 12345, link, 0.0, np.zeros(n)), None


def bindings(n: int) -> dict:
    return {"n": n, "m": 6, "seed": 12345}
