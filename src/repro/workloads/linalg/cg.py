"""Conjugate Gradient (paper [23]; Table 1 row 1, size 400, speedup 163).

Dense symmetric positive-definite system.  The hot loops: the matrix-
vector product (outer loop parallel, inner loop a dot product), the
``dotproduct`` reductions the Cedar library parallelizes in two steps
(§3.3), and the vector updates.
"""

from __future__ import annotations

NAME = "cg"
ENTRY = "cg"
VALIDATE_N = 24
PAPER_N = 400
PAPER = {"cedar_auto": 163.0}

SOURCE = """
      subroutine cg(n, niter, a, b, x, r, p, q)
      integer n, niter
      real a(n, n), b(n), x(n), r(n), p(n), q(n)
      real rho, rhonew, alpha, beta, pq, s
      integer it, i, j
      do i = 1, n
         x(i) = 0.0
         r(i) = b(i)
         p(i) = b(i)
      end do
      rho = 0.0
      do i = 1, n
         rho = rho + r(i) * r(i)
      end do
      do it = 1, niter
         do i = 1, n
            s = 0.0
            do j = 1, n
               s = s + a(i, j) * p(j)
            end do
            q(i) = s
         end do
         pq = 0.0
         do i = 1, n
            pq = pq + p(i) * q(i)
         end do
         alpha = rho / pq
         do i = 1, n
            x(i) = x(i) + alpha * p(i)
            r(i) = r(i) - alpha * q(i)
         end do
         rhonew = 0.0
         do i = 1, n
            rhonew = rhonew + r(i) * r(i)
         end do
         beta = rhonew / rho
         rho = rhonew
         do i = 1, n
            p(i) = r(i) + beta * p(i)
         end do
      end do
      end
"""


def make_inputs(n: int, rng: np.random.Generator):
    import numpy as np

    m = rng.standard_normal((n, n))
    a = (m @ m.T) / n + np.eye(n) * n * 0.1  # SPD, well conditioned
    xs = rng.standard_normal(n)
    b = a @ xs
    return a, b, xs


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    a, b, xs = make_inputs(n, rng)
    niter = min(2 * n, 60)
    return (n, niter, np.asfortranarray(a), b,
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)), (a, b, xs)


def bindings(n: int) -> dict:
    return {"n": n, "niter": min(2 * n, 60)}


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a, b, xs = aux
    x = result["x"]
    return bool(np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-4)
