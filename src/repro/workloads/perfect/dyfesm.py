"""DYFESM proxy: explicit finite-element structural dynamics.

Auto 3.9/2.2 → manual 10.3/11.4: the element loop gathers nodal data into
private element arrays, computes, then scatters forces back through an
index map — an **array-element reduction** (``f(ix(..)) += ...``) plus
**array privatization** of the element workspace.
"""

from __future__ import annotations

NAME = "DYFESM"
ENTRY = "dyfesm"
VALIDATE_N = 16
PAPER_N = 2048
PAPER = {"fx80_auto": 3.9, "cedar_auto": 2.2,
         "fx80_manual": 10.3, "cedar_manual": 11.4}
TECHNIQUES = ("array_privatization", "array_reductions")

SOURCE = """
      subroutine dyfesm(ne, nn, ix, xn, f)
      integer ne, nn
      integer ix(4, ne)
      real xn(nn), f(nn)
      real xe(4), fe(4)
      real vol
      integer e, k
      do e = 1, ne
         do k = 1, 4
            xe(k) = xn(ix(k, e))
         end do
         vol = (xe(1) + xe(2) + xe(3) + xe(4)) * 0.25
         do k = 1, 4
            fe(k) = (xe(k) - vol) * 2.0
         end do
         do k = 1, 4
            f(ix(k, e)) = f(ix(k, e)) + fe(k)
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    ne = n
    nn = max(16, n // 16)  # many elements share few nodes (real meshes)
    ix = np.zeros((4, ne), dtype=np.int64, order="F")
    for e in range(ne):
        for k in range(4):
            ix[k, e] = (e + k * 2) % nn + 1
    xn = rng.standard_normal(nn)
    return (ne, nn, ix, xn, np.zeros(nn)), None


def bindings(n: int) -> dict:
    return {"ne": n, "nn": max(16, n // 16)}
