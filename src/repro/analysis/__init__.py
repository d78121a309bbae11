"""Program analyses feeding the Cedar restructurer.

Submodules:

- :mod:`repro.analysis.expr` — affine (linear) expression algebra and a
  constant folder/simplifier over the AST.
- :mod:`repro.analysis.refs` — reference collection (reads/writes of scalars
  and array elements) with loop-nest context.
- :mod:`repro.analysis.dataflow` — structured data-flow walkers
  (definite assignment, liveness) over the GOTO-free statement subset.
- :mod:`repro.analysis.depend` — data-dependence testing (ZIV/SIV exact
  tests, GCD, Banerjee with direction vectors) and the loop dependence
  graph.
- :mod:`repro.analysis.induction` — induction variables, including the
  paper's *generalized* induction variables (geometric and triangular).
- :mod:`repro.analysis.reductions` — reduction recognition (scalar sums,
  min/max, dot products, array-element accumulators, multiple statements).
- :mod:`repro.analysis.privatization` — scalar and array privatization.
- :mod:`repro.analysis.nest` — one lazily filled record of these per nest.
- :mod:`repro.analysis.runtime_test` — run-time dependence test synthesis
  for linearized subscripts (paper §4.1.5).
"""
