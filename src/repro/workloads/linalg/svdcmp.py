"""Singular value decomposition via one-sided Jacobi sweeps
(Table 1: size 200, speedup 7.2).

The sweep/pair loops carry dependences (columns are rotated in place);
parallelism lives in the column-length inner loops (dot products and
rotation updates) — matching the paper's middling speedup.
"""

from __future__ import annotations

NAME = "svdcmp"
ENTRY = "svdcmp"
VALIDATE_N = 16
PAPER_N = 200
PAPER = {"cedar_auto": 7.2}

SOURCE = """
      subroutine svdcmp(m, n, nsweep, a, w)
      integer m, n, nsweep
      real a(m, n), w(n)
      real alpha, beta, gamma, zeta, t, c, s, tmp
      integer sw, p, q, i
      do sw = 1, nsweep
         do p = 1, n - 1
            do q = p + 1, n
               alpha = 0.0
               beta = 0.0
               gamma = 0.0
               do i = 1, m
                  alpha = alpha + a(i, p) * a(i, p)
                  beta = beta + a(i, q) * a(i, q)
                  gamma = gamma + a(i, p) * a(i, q)
               end do
               if (abs(gamma) .gt. 1.0e-12 * sqrt(alpha * beta)) then
                  zeta = (beta - alpha) / (2.0 * gamma)
                  t = sign(1.0, zeta)
     &                / (abs(zeta) + sqrt(1.0 + zeta * zeta))
                  c = 1.0 / sqrt(1.0 + t * t)
                  s = c * t
                  do i = 1, m
                     tmp = a(i, p)
                     a(i, p) = c * tmp - s * a(i, q)
                     a(i, q) = s * tmp + c * a(i, q)
                  end do
               end if
            end do
         end do
      end do
      do q = 1, n
         gamma = 0.0
         do i = 1, m
            gamma = gamma + a(i, q) * a(i, q)
         end do
         w(q) = sqrt(gamma)
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    m = n
    a = rng.standard_normal((m, n))
    nsweep = 10
    return (m, n, nsweep, np.asfortranarray(a.copy()), np.zeros(n)), a


def bindings(n: int) -> dict:
    return {"n": n, "m": n, "nsweep": 10}


def verify(n: int, aux, result) -> bool:
    import numpy as np

    a0 = aux
    w = np.sort(result["w"])[::-1]
    ref = np.linalg.svd(a0, compute_uv=False)
    return bool(np.allclose(w, ref, atol=1e-3 * (1 + ref.max())))
