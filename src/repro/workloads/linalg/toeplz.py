"""Toeplitz system solver, Levinson-style recursion (Table 1: size 800,
speedup 1.3).

The outer order-recursion is inherently sequential and its update loop's
reflective subscripts (``x(j)`` vs ``x(k-j)``) defeat parallelization —
the paper's near-1 speedup.
"""

from __future__ import annotations

NAME = "toeplz"
ENTRY = "toeplz"
VALIDATE_N = 20
PAPER_N = 800
PAPER = {"cedar_auto": 1.3}

SOURCE = """
      subroutine toeplz(n, r, x, y, g, h)
      integer n
      real r(2 * n - 1), x(n), y(n), g(n), h(n)
      real sxn, sd, sgn, shn, sgd, t1, t2
      integer k, j, m
      x(1) = y(1) / r(n)
      if (n .eq. 1) return
      g(1) = r(n - 1) / r(n)
      h(1) = r(n + 1) / r(n)
      do m = 1, n - 1
         sxn = -y(m + 1)
         sd = -r(n)
         do j = 1, m
            sxn = sxn + r(n + m + 1 - j) * x(j)
            sd = sd + r(n + m + 1 - j) * g(m - j + 1)
         end do
         x(m + 1) = sxn / sd
         do j = 1, m
            x(j) = x(j) - x(m + 1) * g(m - j + 1)
         end do
         if (m + 1 .lt. n) then
            sgn = -r(n - m - 1)
            shn = -r(n + m + 1)
            sgd = -r(n)
            do j = 1, m
               sgn = sgn + r(n + j - m - 1) * g(j)
               shn = shn + r(n + m + 1 - j) * h(j)
               sgd = sgd + r(n + j - m - 1) * h(m - j + 1)
            end do
            t1 = sgn / sgd
            t2 = shn / sd
            do j = 1, m
               g(j) = g(j) - t1 * h(m - j + 1)
               h(m + 1 - j) = h(m + 1 - j) - t2 * g(m + 1 - j)
            end do
            g(m + 1) = t1
            h(m + 1) = t2
         end if
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    c = rng.standard_normal(2 * n - 1) * 0.1
    c[n - 1] = 2.0 * n ** 0.5  # dominant diagonal
    # r holds the Toeplitz diagonals: T[i,j] = r(n + i - j)
    t = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            t[i, j] = c[(n - 1) + (i - j)]
    xs = rng.standard_normal(n)
    y = t @ xs
    return (n, c.copy(), np.zeros(n), y.copy(),
            np.zeros(n), np.zeros(n)), (t, xs)


def verify(n: int, aux, result) -> bool:
    import numpy as np

    t, xs = aux
    return bool(np.allclose(result["x"], xs,
                            atol=1e-3 * (1 + np.abs(xs).max())))
