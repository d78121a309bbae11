"""OCEAN proxy: 2-D ocean circulation via spectral methods.

Auto 1.4/0.7 → manual 8.9/16.7.  Two documented obstacles (§4.1.4,
§4.1.5):

- 65% of serial time in loops indexing 1-D arrays with *linearized*
  subscripts ``wk(i + lda*(j-1))`` — only a **run-time dependence test**
  proves the ``j`` iterations disjoint;
- a multiplicative (geometric) **generalized induction variable** in the
  wave-amplitude loop whose recognition unlocked a 15.8× loop speedup.
"""

from __future__ import annotations

NAME = "OCEAN"
ENTRY = "ocean"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 1.4, "cedar_auto": 0.7,
         "fx80_manual": 8.9, "cedar_manual": 16.7}
TECHNIQUES = ("runtime_dependence_test", "generalized_induction")

SOURCE = """
      subroutine ocean(ni, nj, lda, decay, wk, d, wave)
      integer ni, nj, lda
      real decay
      real wk(*), d(ni), wave(ni, nj)
      real amp
      integer i, j
      do j = 1, nj
         do i = 1, ni
            wk(i + lda * (j - 1)) = wk(i + lda * (j - 1)) * 0.5 + d(i)
         end do
      end do
      amp = 1.0
      do j = 1, nj
         amp = amp * decay
         do i = 1, ni
            wave(i, j) = wave(i, j) * amp + wk(i + lda * (j - 1))
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    ni = n
    nj = n
    lda = n  # rows exactly adjacent: parallel-safe, provable only at run time
    wk = rng.standard_normal(lda * nj)
    d = rng.standard_normal(ni)
    wave = rng.standard_normal((ni, nj))
    return (ni, nj, lda, 0.98, wk, d, np.asfortranarray(wave)), None


def bindings(n: int) -> dict:
    return {"ni": n, "nj": n, "lda": n, "decay": 0.98}
