"""TRFD proxy: two-electron integral transformation.

Auto 2.2/0.8 → manual 16.0/43.2: the packed-triangle index ``k`` is a
**triangular generalized induction variable** (§4.1.4, "in the program
TRFD, we found generalized induction variables of the second type") —
``k = k + 1`` inside ``do i / do j = 1, i``.  Replacing it by its closed
form (and knowing it is strictly monotonic, so writes through it never
collide) parallelizes the transformation loops.
"""

from __future__ import annotations

NAME = "TRFD"
ENTRY = "trfd"
DEFAULT_N = 128
PAPER = {"fx80_auto": 2.2, "cedar_auto": 0.8,
         "fx80_manual": 16.0, "cedar_manual": 43.2}
TECHNIQUES = ("generalized_induction",)

SOURCE = """
      subroutine xpair(k, xi, xj, s, xij)
      integer k
      real xi, xj, s, xij(*)
      k = k + 1
      xij(k) = xi * xj + s * 0.001
      end

      subroutine trfd(n, x, xij, v, xrsiq)
      integer n
      real x(n), xij(n * (n + 1) / 2), v(n), xrsiq(n * (n + 1) / 2)
      real s
      integer i, j, k, m
      k = 0
      do i = 1, n
         do j = 1, i
            s = 0.0
            do m = 1, n
               s = s + x(m) * v(m) * (0.1 * i + 0.2 * j)
            end do
            call xpair(k, x(i), x(j), s, xij)
         end do
      end do
      k = 0
      do i = 1, n
         do j = 1, i
            k = k + 1
            xrsiq(k) = xij(k) * 2.0 + v(i) * v(j)
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    x = rng.standard_normal(n)
    v = rng.standard_normal(n)
    tri = n * (n + 1) // 2
    return (n, x, np.zeros(tri), v, np.zeros(tri)), None


def bindings(n: int) -> dict:
    return {"n": n}
