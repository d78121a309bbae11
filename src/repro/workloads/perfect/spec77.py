"""SPEC77 proxy: spectral global weather model.

Auto 2.4/2.4 → manual 10.2/15.7: the spectral-transform loops accumulate
Fourier coefficients with **multiple accumulation statements per
statement group** (§4.1.3 names SPEC77 among the programs needing the
parallel-reduction transformation) over privatizable work arrays.
"""

from __future__ import annotations

NAME = "SPEC77"
ENTRY = "spec77"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 2.4, "cedar_auto": 2.4,
         "fx80_manual": 10.2, "cedar_manual": 15.7}
TECHNIQUES = ("array_privatization", "array_reductions",
              "multi_stmt_reductions")

SOURCE = """
      subroutine spec77(nlat, nwave, grid, cosw, sinw,
     &                  coefa, coefb, flux)
      integer nlat, nwave
      real grid(nlat, nwave), cosw(nlat, nwave), sinw(nlat, nwave)
      real coefa(nwave), coefb(nwave), flux(nlat)
      real gw(1024)
      integer i, k
      do i = 1, nlat
         do k = 1, nwave
            gw(k) = grid(i, k) * (1.0 + 0.01 * i)
         end do
         do k = 1, nwave
            coefa(k) = coefa(k) + gw(k) * cosw(i, k)
            coefb(k) = coefb(k) + gw(k) * sinw(i, k)
         end do
      end do
      do i = 1, nlat
         flux(i) = 0.0
         do k = 1, nwave
            flux(i) = flux(i) + grid(i, k) * grid(i, k)
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    nlat = n
    nwave = n
    grid = rng.standard_normal((nlat, nwave))
    cosw = np.cos(np.outer(np.arange(1, nlat + 1),
                           np.arange(1, nwave + 1)) * 0.01)
    sinw = np.sin(np.outer(np.arange(1, nlat + 1),
                           np.arange(1, nwave + 1)) * 0.01)
    return (nlat, nwave, np.asfortranarray(grid), np.asfortranarray(cosw),
            np.asfortranarray(sinw), np.zeros(nwave), np.zeros(nwave),
            np.zeros(nlat)), None


def bindings(n: int) -> dict:
    return {"nlat": n, "nwave": n}
