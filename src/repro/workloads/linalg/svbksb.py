"""SVD back substitution (Table 1: size 200, speedup 32).

``x = V diag(1/w) U^T b`` — two fully parallel outer loops with
dot-product inner reductions; the near-ideal structure behind the high
speedup at a small size.
"""

from __future__ import annotations

NAME = "svbksb"
ENTRY = "svbksb"
VALIDATE_N = 16
PAPER_N = 200
PAPER = {"cedar_auto": 32.0}

SOURCE = """
      subroutine svbksb(m, n, u, w, v, b, x, tmp)
      integer m, n
      real u(m, n), w(n), v(n, n), b(m), x(n), tmp(n)
      real s
      integer i, j, k
      do j = 1, n
         s = 0.0
         if (w(j) .ne. 0.0) then
            do i = 1, m
               s = s + u(i, j) * b(i)
            end do
            s = s / w(j)
         end if
         tmp(j) = s
      end do
      do j = 1, n
         s = 0.0
         do k = 1, n
            s = s + v(j, k) * tmp(k)
         end do
         x(j) = s
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    m = n
    a = rng.standard_normal((m, n)) + np.eye(n) * 2.0
    u, w, vt = np.linalg.svd(a)
    u = u[:, :n]
    v = vt.T
    xs = rng.standard_normal(n)
    b = a @ xs
    return (m, n, np.asfortranarray(u), w.copy(), np.asfortranarray(v),
            b.copy(), np.zeros(n), np.zeros(n)), (a, xs)


def bindings(n: int) -> dict:
    return {"n": n, "m": n}


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a, xs = aux
    return bool(np.allclose(result["x"], xs,
                            atol=1e-4 * (1 + np.abs(xs).max())))
