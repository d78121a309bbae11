"""Experiment drivers regenerating every table and figure of the paper.

- :mod:`repro.experiments.table1` — speedups of the automatically
  restructured linear-algebra routines (Table 1);
- :mod:`repro.experiments.table2` — Perfect Benchmarks proxies, automatic
  vs manually-improved, on the Alliant FX/80 and Cedar (Table 2);
- :mod:`repro.experiments.fig6_prefetch` — compiler-inserted prefetch in
  CG and TRFD (Figure 6);
- :mod:`repro.experiments.fig7_privatization` — privatization vs global
  expansion in MDG's major loop (Figure 7);
- :mod:`repro.experiments.fig8_partitioning` — global placement vs data
  partitioning in CG across 1-4 clusters (Figure 8);
- :mod:`repro.experiments.fig9_fusion` — inner-parallel vs outer-parallel
  vs fused FLO52 (Figure 9).

Every driver returns a :class:`repro.experiments.report.Table` carrying
paper values next to measured values; ``python -m repro.experiments``
prints them all.
"""

from repro._lazy import lazy_exports
from repro.experiments.report import Table

# the seven drivers bring the 22 workload modules with them; ``--source``
# ingestion and the server's request cell import this package for
# ``ingest`` and ``common`` and run none of them
__getattr__, __dir__ = lazy_exports(
    globals(), {"repro.experiments.worker": ("ALL_EXPERIMENTS",)})

__all__ = ["Table", "ALL_EXPERIMENTS"]
