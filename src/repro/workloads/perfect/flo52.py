"""FLO52 proxy: transonic-flow multigrid smoother — the Figure 9 program.

The major routine is two outer loops, each a sequence of *small* inner
loops communicating through a work array, with loop-invariant scalar code
between the outer loops.  Without array privatization the outer loops
cannot run parallel (the work array carries false dependences), so the
automatic version parallelizes only the small inner loops (Figure 9
variant a).  Array privatization makes the outer loops SDOALLs (variant
b); fusing them — replicating the scalar code between — yields one big
parallel loop (variant c).
"""

from __future__ import annotations

NAME = "FLO52"
ENTRY = "flo52"
VALIDATE_N = 16
PAPER_N = 256
PAPER = {"fx80_auto": 9.0, "cedar_auto": 5.5,
         "fx80_manual": 14.6, "cedar_manual": 15.3}
TECHNIQUES = ("array_privatization", "loop_fusion")

SOURCE = """
      subroutine flo52(n, m, nt, q, f, g)
      integer n, m, nt
      real q(n, m), f(n, m), g(n, m)
      real fw(1024)
      real scale
      integer t, i, j
      do t = 1, nt
         do j = 2, m - 1
            do i = 1, n
               fw(i) = q(i, j) * 0.5 + q(i, j - 1) * 0.25
     &                 + q(i, j + 1) * 0.25
            end do
            do i = 2, n - 1
               f(i, j) = fw(i + 1) - 2.0 * fw(i) + fw(i - 1)
            end do
         end do
         scale = 1.0 / (4.0 + 0.01 * t)
         do j = 2, m - 1
            do i = 2, n - 1
               g(i, j) = q(i, j) - scale * f(i, j)
            end do
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    q = rng.standard_normal((n, n))
    f = np.zeros((n, n))
    g = np.zeros((n, n))
    nt = 4
    return (n, n, nt, np.asfortranarray(q), np.asfortranarray(f),
            np.asfortranarray(g)), None


def bindings(n: int) -> dict:
    return {"n": n, "m": n, "nt": 4}
