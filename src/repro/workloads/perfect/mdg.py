"""MDG proxy: molecular dynamics of liquid water.

Auto 1.0/1.0 → manual 7.3/20.6: "in MDG, very little speedup is possible
without [the parallel reduction transformation]" — the pair-interaction
loop accumulates forces into array elements with multiple statements and
needs its distance workspace privatized.  This is also the Figure 7 loop
(privatized workspace vs globally expanded workspace).
"""

from __future__ import annotations

NAME = "MDG"
ENTRY = "mdg"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 1.0, "cedar_auto": 1.0,
         "fx80_manual": 7.3, "cedar_manual": 20.6}
TECHNIQUES = ("array_privatization", "array_reductions",
              "multi_stmt_reductions", "critical_sections")

SOURCE = """
      subroutine mdg(n, x, f, epot)
      integer n
      real x(n), f(n), epot
      real dr(1024), r2(1024)
      integer i, j
      do i = 1, n
         do j = 1, n
            dr(j) = x(i) - x(j)
            r2(j) = dr(j) * dr(j) + 0.2
         end do
         do j = 1, n
            f(j) = f(j) + dr(j) / r2(j)
            f(j) = f(j) - dr(j) / (r2(j) * r2(j))
            epot = epot + 1.0 / r2(j)
            epot = epot - 0.5 / (r2(j) * r2(j) * r2(j))
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    x = rng.standard_normal(n)
    return (n, x, np.zeros(n), 0.0), None
