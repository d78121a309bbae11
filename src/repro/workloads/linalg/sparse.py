"""Sparse linear solver: conjugate gradient with CSR matvec
(Table 1: size 800, speedup 29).

The indirect subscripts ``x(col(k))`` defeat exact dependence testing on
reads, but reads never block parallelization; the outer matvec row loop
stays parallel with a privatized accumulator.
"""

from __future__ import annotations

NAME = "sparse"
ENTRY = "sparsecg"
VALIDATE_N = 24
PAPER_N = 800
PAPER = {"cedar_auto": 29.0}

SOURCE = """
      subroutine spmv(n, rowptr, col, val, x, y)
      integer n
      integer rowptr(n + 1), col(*)
      real val(*), x(n), y(n)
      real s
      integer i, k
      do i = 1, n
         s = 0.0
         do k = rowptr(i), rowptr(i + 1) - 1
            s = s + val(k) * x(col(k))
         end do
         y(i) = s
      end do
      end

      subroutine sparsecg(n, niter, rowptr, col, val, b, x, r, p, q)
      integer n, niter
      integer rowptr(n + 1), col(*)
      real val(*), b(n), x(n), r(n), p(n), q(n)
      real rho, rhonew, alpha, beta, pq
      integer it, i
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
         call spmv(n, rowptr, col, val, p, q)
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


def make_csr(n: int, rng: np.random.Generator):
    """SPD pentadiagonal-ish sparse matrix in CSR (1-based indices)."""
    import numpy as np

    rowptr = np.zeros(n + 1, dtype=np.int64)
    cols: list[int] = []
    vals: list[float] = []
    band = 3
    rowptr[0] = 1
    dense = np.zeros((n, n))
    for i in range(n):
        for off in range(-band, band + 1):
            j = i + off
            if 0 <= j < n:
                v = 2.0 * band + 1.5 if off == 0 else -0.5
                cols.append(j + 1)
                vals.append(v)
                dense[i, j] = v
        rowptr[i + 1] = len(cols) + 1
    return (rowptr, np.array(cols, dtype=np.int64),
            np.array(vals), dense)


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    rowptr, col, val, dense = make_csr(n, rng)
    xs = rng.standard_normal(n)
    b = dense @ xs
    niter = min(2 * n, 50)
    return (n, niter, rowptr, col, val, b,
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)), (dense, b, xs)


def bindings(n: int) -> dict:
    return {"n": n, "niter": min(2 * n, 50)}


def verify(n: int, aux, result) -> bool:
    import numpy as np

    dense, b, xs = aux
    x = result["x"]
    return bool(np.linalg.norm(dense @ x - b) / np.linalg.norm(b) < 1e-4)
