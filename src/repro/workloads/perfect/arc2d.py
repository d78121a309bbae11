"""ARC2D proxy: 2-D implicit fluid-dynamics sweeps.

The paper's best automatic result (8.7 FX/80, 13.5 Cedar): the sweep
loops are clean and the 1991 restructurer already parallelized them.
Manual improvement (10.6 / 20.8) came from larger-grain restructuring —
here, fusing the adjacent sweep loops.
"""

from __future__ import annotations

NAME = "ARC2D"
ENTRY = "arc2d"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 8.7, "cedar_auto": 13.5,
         "fx80_manual": 10.6, "cedar_manual": 20.8}
TECHNIQUES = ("loop_fusion",)

SOURCE = """
      subroutine arc2d(nx, ny, nt, u, v, w)
      integer nx, ny, nt
      real u(nx, ny), v(nx, ny), w(nx, ny)
      integer t, i, j
      do t = 1, nt
         do j = 2, ny - 1
            do i = 2, nx - 1
               v(i, j) = 0.25 * (u(i - 1, j) + u(i + 1, j)
     &                   + u(i, j - 1) + u(i, j + 1))
            end do
         end do
         do j = 2, ny - 1
            do i = 2, nx - 1
               w(i, j) = v(i, j) * 0.9 + w(i, j) * 0.1
            end do
         end do
         do j = 2, ny - 1
            do i = 2, nx - 1
               u(i, j) = u(i, j) + 0.5 * (w(i, j) - u(i, j))
            end do
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    u = rng.standard_normal((n, n))
    v = np.zeros((n, n))
    w = np.zeros((n, n))
    nt = 5
    return (n, n, nt, np.asfortranarray(u), np.asfortranarray(v),
            np.asfortranarray(w)), None


def bindings(n: int) -> dict:
    return {"nx": n, "ny": n, "nt": 5}
