"""ADM proxy: pseudospectral air-pollution model.

Auto 1.2/0.6 → manual 7.1/10.1: the column loop calls a smoothing
subroutine per column; without **inline expansion** the call is opaque
and the loop stays serial (on Cedar the parallel overhead even made it
*slower* than serial — auto 0.6).
"""

from __future__ import annotations

NAME = "ADM"
ENTRY = "adm"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 1.2, "cedar_auto": 0.6,
         "fx80_manual": 7.1, "cedar_manual": 10.1}
TECHNIQUES = ("inline_expansion", "array_privatization")

SOURCE = """
      subroutine smooth(m, qcol, wcol)
      integer m
      real qcol(m), wcol(m)
      integer k
      wcol(1) = qcol(1)
      wcol(m) = qcol(m)
      do k = 2, m - 1
         wcol(k) = 0.25 * qcol(k - 1) + 0.5 * qcol(k)
     &             + 0.25 * qcol(k + 1)
      end do
      end

      subroutine adm(n, m, q, p)
      integer n, m
      real q(m, n), p(m, n)
      real qcol(1024), wcol(1024)
      integer i, k
      do i = 1, n
         do k = 1, m
            qcol(k) = q(k, i)
         end do
         call smooth(m, qcol, wcol)
         do k = 1, m
            p(k, i) = wcol(k) * 2.0 - q(k, i)
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    m = n
    q = rng.standard_normal((m, n))
    return (n, m, np.asfortranarray(q),
            np.zeros((m, n), order="F")), None


def bindings(n: int) -> dict:
    return {"n": n, "m": n}
