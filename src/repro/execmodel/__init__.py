"""Execution of Fortran 77 / Cedar Fortran ASTs.

Two engines:

- :mod:`repro.execmodel.interp` — a functional interpreter (numpy-backed)
  used to verify that restructured programs compute the same results as
  the originals;
- :mod:`repro.execmodel.perf` — a performance estimator that walks an AST
  with concrete parameter bindings and a machine configuration, pricing
  every operation, memory access, parallel loop and synchronization
  through the :mod:`repro.machine` models.
"""

from repro._lazy import lazy_exports
from repro.execmodel.perf import PerfEstimator, PerfResult

# the estimator prices a program without running it: only a command that
# executes one loads the interpreter, and NumPy with it
__getattr__, __dir__ = lazy_exports(
    globals(), {"repro.execmodel.interp": ("Interpreter",)})

__all__ = ["Interpreter", "PerfEstimator", "PerfResult"]
