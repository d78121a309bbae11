"""repro — reproduction of *Restructuring Fortran Programs for Cedar* (ICPP 1991).

The package provides:

- :mod:`repro.fortran` — a Fortran 77 front end (fixed-form lexer, parser,
  AST, symbol tables, unparser).
- :mod:`repro.cedar` — the Cedar Fortran dialect (parallel loop nodes,
  GLOBAL/CLUSTER declarations, vector statements, the Cedar-optimized
  library) and its unparser.
- :mod:`repro.analysis` — program analyses: affine expression algebra,
  control/data flow, data-dependence testing, induction variables (including
  generalized IVs), reduction recognition, scalar/array privatization,
  and run-time dependence test synthesis.
- :mod:`repro.restructurer` — the source-to-source parallelizer that turns
  sequential Fortran 77 into Cedar Fortran (the paper's KAP-derived
  restructurer, rebuilt from scratch).
- :mod:`repro.machine` — a parametric performance model of the Cedar machine
  (clusters, memory hierarchy, prefetch, paging, microtasking scheduler) and
  of the Alliant FX/80.
- :mod:`repro.execmodel` — a functional interpreter (correctness) and a
  performance estimator (timing) for both dialects.
- :mod:`repro.workloads` — the linear-algebra routines of Table 1 and proxy
  kernels for the Perfect Benchmarks of Table 2.
- :mod:`repro.experiments` — drivers that regenerate every table and figure
  of the paper's evaluation section.
- :mod:`repro.trace` — observability: hierarchical cycle-attribution
  ledgers charged by the machine model and structured decision events
  emitted by the restructurer (see the README's Observability section).

Quickstart::

    from repro import restructure_source
    cedar_source, report = restructure_source('''
          subroutine saxpy(n, a, x, y)
          integer n
          real a, x(n), y(n)
          do 10 i = 1, n
             y(i) = y(i) + a * x(i)
    10    continue
          end
    ''')
    print(cedar_source)
"""

from repro._lazy import lazy_exports
from repro._version import __version__

# the convenience API pulls in the parser; ``import repro.<package>``
# (every CLI does it) should not
__getattr__, __dir__ = lazy_exports(globals(), {"repro.api": (
    "parse_source", "restructure", "restructure_source", "unparse_cedar",
    "unparse_f77")})

__all__ = [
    "__version__",
    "parse_source",
    "restructure",
    "restructure_source",
    "unparse_cedar",
    "unparse_f77",
]
