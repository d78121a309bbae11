"""Tridiagonal solver, Thomas algorithm (Table 1: size 800, speedup 2.1).

Both sweeps are first-order recurrences; the forward sweep's coupled
``bet``/``u`` recursion resists the simple linear-recurrence library
idiom, so the routine stays near-serial — the paper's 2.1.
"""

from __future__ import annotations

NAME = "tridag"
ENTRY = "tridag"
VALIDATE_N = 24
PAPER_N = 800
PAPER = {"cedar_auto": 2.1}

SOURCE = """
      subroutine tridag(n, a, b, c, r, u, gam)
      integer n
      real a(n), b(n), c(n), r(n), u(n), gam(n)
      real bet
      integer j
      bet = b(1)
      u(1) = r(1) / bet
      do j = 2, n
         gam(j) = c(j - 1) / bet
         bet = b(j) - a(j) * gam(j)
         u(j) = (r(j) - a(j) * u(j - 1)) / bet
      end do
      do j = n - 1, 1, -1
         u(j) = u(j) - gam(j + 1) * u(j + 1)
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    a = rng.standard_normal(n) * 0.3
    c = rng.standard_normal(n) * 0.3
    b = np.abs(rng.standard_normal(n)) + 2.0
    a[0] = 0.0
    c[-1] = 0.0
    t = np.diag(b) + np.diag(a[1:], -1) + np.diag(c[:-1], 1)
    xs = rng.standard_normal(n)
    r = t @ xs
    return (n, a.copy(), b.copy(), c.copy(), r.copy(),
            np.zeros(n), np.zeros(n)), (t, xs)


def verify(n: int, aux, result) -> bool:
    import numpy as np

    t, xs = aux
    return bool(np.allclose(result["u"], xs,
                            atol=1e-4 * (1 + np.abs(xs).max())))
