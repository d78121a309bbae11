"""LU back substitution (Table 1: size 1000, speedup 6.8).

Both sweeps carry a recurrence on ``b`` in the outer loop; parallelism
comes from the inner dot-product reductions — hence a lower speedup than
the fully parallel routines.
"""

from __future__ import annotations

NAME = "lubksb"
ENTRY = "lubksb"
VALIDATE_N = 24
PAPER_N = 1000
PAPER = {"cedar_auto": 6.8}

SOURCE = """
      subroutine lubksb(n, a, b)
      integer n
      real a(n, n), b(n)
      real s
      integer i, j
      do i = 1, n
         s = b(i)
         do j = 1, i - 1
            s = s - a(i, j) * b(j)
         end do
         b(i) = s
      end do
      do i = n, 1, -1
         s = b(i)
         do j = i + 1, n
            s = s - a(i, j) * b(j)
         end do
         b(i) = s / a(i, i)
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    a = rng.standard_normal((n, n))
    a += np.eye(n) * (np.abs(a).sum(axis=1) + 1.0)
    l = np.tril(a, -1) + np.eye(n)
    u = np.triu(a)
    xs = rng.standard_normal(n)
    b = (l @ (u @ xs))
    return (n, np.asfortranarray(a.copy()), b.copy()), (a, xs)


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a, xs = aux
    return bool(np.allclose(result["b"], xs, atol=1e-5 * (1 + np.abs(xs).max())))
