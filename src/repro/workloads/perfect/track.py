"""TRACK proxy: missile-tracking with shared observation tables.

Auto 1.0/0.4 → manual 4.0/5.2: the candidate-matching loop is parallel
except for appending hits to a shared list (``nhit = nhit + 1`` /
``hits(nhit) = i``) — an **unordered critical section** (§4.1.6); the
automatic restructurer serializes the whole loop (and on Cedar the
attempt cost made it 2.5× slower than serial).
"""

from __future__ import annotations

NAME = "TRACK"
ENTRY = "track"
VALIDATE_N = 16
PAPER_N = 4096
PAPER = {"fx80_auto": 1.0, "cedar_auto": 0.4,
         "fx80_manual": 4.0, "cedar_manual": 5.2}
TECHNIQUES = ("critical_sections", "doacross")
PERMUTATION_OK = True

SOURCE = """
      subroutine track(n, m, obs, tgt, thresh, hits, nhit)
      integer n, m, nhit
      real obs(n), tgt(m), thresh
      integer hits(n)
      real d, best
      integer i, k
      do i = 1, n
         best = 1.0e30
         do k = 1, m
            d = abs(obs(i) - tgt(k))
            if (d .lt. best) best = d
         end do
         if (best .lt. thresh) then
            nhit = nhit + 1
            hits(nhit) = i
         end if
      end do
      end
"""


def make_args(n: int, rng: np.random.Generator):
    import numpy as np

    m = 64
    obs = rng.standard_normal(n) * 10.0
    tgt = rng.standard_normal(m) * 10.0
    return (n, m, obs, tgt, 0.5, np.zeros(n, dtype=np.int64), 0), None


def bindings(n: int) -> dict:
    return {"n": n, "m": 64, "thresh": 0.5}
