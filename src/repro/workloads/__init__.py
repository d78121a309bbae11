"""Workloads: the paper's experimental programs.

- :mod:`repro.workloads.linalg` — the linear-algebra routines of Table 1
  (conjugate gradient plus Numerical-Recipes-style routines, rewritten in
  clean Fortran 77).
- :mod:`repro.workloads.perfect` — proxy kernels for the Perfect
  Benchmarks of Table 2; each embeds the parallelization obstacles the
  paper documents for that program (§4.1).
- :mod:`repro.workloads.synthetic` — small loops used by unit tests, and
  the fault sweep's ``cascade`` row.

Every program is one :class:`~repro.workloads.record.Workload` record.
"""

from repro.workloads.linalg import LINALG_ROUTINES
from repro.workloads.perfect import PERFECT_PROGRAMS
from repro.workloads.record import Workload


def validation_cases() -> dict[str, Workload]:
    """The 22 linalg and perfect records, keyed by name."""
    return {**LINALG_ROUTINES, **PERFECT_PROGRAMS}


__all__ = ["LINALG_ROUTINES", "PERFECT_PROGRAMS", "Workload",
           "validation_cases"]
