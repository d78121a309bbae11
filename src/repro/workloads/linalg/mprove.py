"""Iterative improvement of a linear solution (Table 1: size 1000,
speedup 1079).

The headline anomaly: the serial version holds **two** n×n matrices (the
original ``a`` and its factorization ``alud``) in one cluster's memory,
which pages/thrashes past size ≈800 on Cedar Configuration 1, while the
parallel version's data lives in the 64 MB global memory and fits —
hence a speedup far beyond the machine's processor count.
"""

from __future__ import annotations

NAME = "mprove"
ENTRY = "mprove"
VALIDATE_N = 20
PAPER_N = 1000
PAPER = {"cedar_auto": 1079.0}

SOURCE = """
      subroutine mprove(n, a, alud, b, x, r)
      integer n
      real a(n, n), alud(n, n), b(n), x(n), r(n)
      real s
      integer i, j
      do i = 1, n
         s = -b(i)
         do j = 1, n
            s = s + a(i, j) * x(j)
         end do
         r(i) = s
      end do
      do i = 1, n
         s = r(i)
         do j = 1, i - 1
            s = s - alud(i, j) * r(j)
         end do
         r(i) = s
      end do
      do i = n, 1, -1
         s = r(i)
         do j = i + 1, n
            s = s - alud(i, j) * r(j)
         end do
         r(i) = s / alud(i, i)
      end do
      do i = 1, n
         x(i) = x(i) - r(i)
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    a = rng.standard_normal((n, n))
    a += np.eye(n) * (np.abs(a).sum(axis=1) + 1.0)
    # Doolittle LU of a (no pivoting; a is diagonally dominant)
    alud = a.copy()
    for k in range(n):
        alud[k + 1:, k] /= alud[k, k]
        alud[k + 1:, k + 1:] -= np.outer(alud[k + 1:, k], alud[k, k + 1:])
    xs = rng.standard_normal(n)
    b = a @ xs
    x = xs + rng.standard_normal(n) * 1e-4  # slightly wrong solution
    return (n, np.asfortranarray(a), np.asfortranarray(alud),
            b.copy(), x.copy(), np.zeros(n)), (a, b, xs, x.copy())


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a, b, xs, x0 = aux
    x1 = result["x"]
    e0 = np.linalg.norm(x0 - xs)
    e1 = np.linalg.norm(x1 - xs)
    return bool(e1 < e0 * 0.5 or e1 < 1e-8)
