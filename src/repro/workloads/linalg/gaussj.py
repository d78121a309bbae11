"""Gauss-Jordan elimination (Table 1: size 600, speedup 10).

The pivot row is hoisted into a shared temporary before the elimination
sweep — the style that lets the dependence tester prove the row loop
parallel (the raw ``a(i,j) -= f*a(k,j)`` form aliases row ``k``
symbolically).  Pivoting is omitted; inputs are diagonally dominant.
"""

from __future__ import annotations

NAME = "gaussj"
ENTRY = "gaussj"
VALIDATE_N = 24
PAPER_N = 600
PAPER = {"cedar_auto": 10.0}

SOURCE = """
      subroutine gaussj(n, a, b, rowk)
      integer n
      real a(n, n), b(n), rowk(n)
      real piv, bk, f
      integer i, j, k
      do k = 1, n
         piv = 1.0 / a(k, k)
         do j = 1, n
            a(k, j) = a(k, j) * piv
            rowk(j) = a(k, j)
         end do
         b(k) = b(k) * piv
         bk = b(k)
         do i = 1, n
            if (i .ne. k) then
               f = a(i, k)
               do j = 1, n
                  a(i, j) = a(i, j) - f * rowk(j)
               end do
               b(i) = b(i) - f * bk
            end if
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    a = rng.standard_normal((n, n))
    a += np.eye(n) * (np.abs(a).sum(axis=1) + 1.0)
    xs = rng.standard_normal(n)
    b = a @ xs
    return (n, np.asfortranarray(a.copy()), b.copy(), np.zeros(n)), (a, xs)


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a, xs = aux
    return bool(np.allclose(result["b"], xs,
                            atol=1e-4 * (1 + np.abs(xs).max())))
