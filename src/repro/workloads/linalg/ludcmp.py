"""LU decomposition, Doolittle form (Table 1: size 1000, speedup 9.2).

The outer ``k`` loop is sequential; the row/column update loops over
``j``/``i`` are parallel with dot-product inner reductions — the
structure behind the paper's moderate speedup.

Pivoting is omitted (inputs are made diagonally dominant) to keep the
loop structure clean — the NR version's pivot search adds a max-reduction
that the restructurer also handles, exercised separately in the tests.
"""

from __future__ import annotations

NAME = "ludcmp"
ENTRY = "ludcmp"
VALIDATE_N = 24
PAPER_N = 1000
PAPER = {"cedar_auto": 9.2}

SOURCE = """
      subroutine ludcmp(n, a)
      integer n
      real a(n, n)
      real s
      integer i, j, k, m
      do k = 1, n
         do j = k, n
            s = a(k, j)
            do m = 1, k - 1
               s = s - a(k, m) * a(m, j)
            end do
            a(k, j) = s
         end do
         do i = k + 1, n
            s = a(i, k)
            do m = 1, k - 1
               s = s - a(i, m) * a(m, k)
            end do
            a(i, k) = s / a(k, k)
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    a = rng.standard_normal((n, n))
    a += np.eye(n) * (np.abs(a).sum(axis=1) + 1.0)  # diagonally dominant
    return (n, np.asfortranarray(a.copy())), a


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a0 = aux
    lu = result["a"]
    l = np.tril(lu, -1) + np.eye(n)
    u = np.triu(lu)
    return bool(np.allclose(l @ u, a0, atol=1e-6 * np.abs(a0).max() * n))
