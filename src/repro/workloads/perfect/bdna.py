"""BDNA proxy: molecular dynamics of DNA with water.

Auto 1.9/1.8 → manual 5.6/8.5: the paper lists BDNA under **array
privatization** and **parallel reductions** — the outer particle loop
computes per-particle work arrays and accumulates multi-statement energy
sums.
"""

from __future__ import annotations

NAME = "BDNA"
ENTRY = "bdna"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 1.9, "cedar_auto": 1.8,
         "fx80_manual": 5.6, "cedar_manual": 8.5}
TECHNIQUES = ("array_privatization", "multi_stmt_reductions")

SOURCE = """
      subroutine bdna(n, x, y, z, fx, e)
      integer n
      real x(n), y(n), z(n), fx(n), e
      real dx(1024), dy(1024), dz(1024), r2(1024)
      real s
      integer i, j
      do i = 1, n
         do j = 1, n
            dx(j) = x(i) - x(j)
            dy(j) = y(i) - y(j)
            dz(j) = z(i) - z(j)
            r2(j) = dx(j) * dx(j) + dy(j) * dy(j) + dz(j) * dz(j) + 0.1
         end do
         s = 0.0
         do j = 1, n
            s = s + dx(j) / r2(j)
         end do
         fx(i) = s
         do j = 1, n
            e = e + 1.0 / r2(j)
            e = e + 0.5 / (r2(j) * r2(j))
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    z = rng.standard_normal(n)
    return (n, x, y, z, np.zeros(n), 0.0), None
