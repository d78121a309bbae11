"""Table 1 linear-algebra routines.

Each submodule defines one routine: its Fortran 77 source (rewritten from
the textbook algorithm — Numerical Recipes code is copyrighted), the data
size and speedup the paper reports, input builders, and a numpy-based
verifier used by the correctness tests.
"""

from __future__ import annotations

from repro.workloads.linalg import (
    cg,
    gaussj,
    lubksb,
    ludcmp,
    mprove,
    sparse,
    svbksb,
    svdcmp,
    toeplz,
    tridag,
)
from repro.workloads.record import Workload, declared

LINALG_ROUTINES: dict[str, Workload] = {
    m.NAME: declared(m, "linalg") for m in (
        cg, ludcmp, lubksb, sparse, gaussj,
        svbksb, svdcmp, mprove, toeplz, tridag,
    )
}
