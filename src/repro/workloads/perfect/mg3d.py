"""MG3D proxy: 3-D seismic migration.

Auto 1.5/0.9 → manual 13.3/48.8: depth-extrapolation loops call a
per-trace filter routine (**inline expansion** needed) and use
large per-trace workspaces (**array privatization**).  The very large
manual Cedar speedup reflects the big data set exceeding one cluster's
memory in the serial run.
"""

from __future__ import annotations

NAME = "MG3D"
ENTRY = "mg3d"
DEFAULT_N = 256
PAPER = {"fx80_auto": 1.5, "cedar_auto": 0.9,
         "fx80_manual": 13.3, "cedar_manual": 48.8}
TECHNIQUES = ("inline_expansion", "array_privatization")

SOURCE = """
      subroutine filtrc(m, tin, tout)
      integer m
      real tin(m), tout(m)
      integer k
      tout(1) = tin(1)
      do k = 2, m
         tout(k) = 0.7 * tin(k) + 0.3 * tin(k - 1)
      end do
      end

      subroutine mg3d(nt, m, nz, trace, image)
      integer nt, m, nz
      real trace(m, nt), image(m, nt)
      real tw(1024), tf(1024)
      integer iz, it, k
      do iz = 1, nz
         do it = 1, nt
            do k = 1, m
               tw(k) = trace(k, it) * 0.99
            end do
            call filtrc(m, tw, tf)
            do k = 1, m
               image(k, it) = image(k, it) + tf(k)
               trace(k, it) = tf(k)
            end do
         end do
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    m = n
    nt = n
    nz = 3
    trace = rng.standard_normal((m, nt))
    return (nt, m, nz, np.asfortranarray(trace),
            np.zeros((m, nt), order="F")), None


def bindings(n: int) -> dict:
    return {"nt": n, "m": n, "nz": 3}
