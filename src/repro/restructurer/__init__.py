"""The Cedar restructurer: fortran77 → Cedar Fortran (paper §3).

The pipeline mirrors the paper's KAP-derived pass structure:

1. interprocedural summaries + optional inline expansion (§4.1.1, §3.2);
2. per-nest scalar analyses — induction variables (incl. GIVs, §4.1.4),
   reductions (§3.3, §4.1.3), scalar & array privatization (§3.2, §4.1.2);
3. dependence testing (§3) and run-time test synthesis (§4.1.5);
4. the planner: enumerate loop-nest execution alternatives (which level
   runs as SDOALL/CDOALL/XDOALL/DOACROSS, stripmining), score them with
   the machine cost model, keep the best of at most ``max_versions``
   candidates (§3.4);
5. transformation passes that realize the chosen plan;
6. globalization: GLOBAL/CLUSTER placement of every variable (§3.2).

Loop interchange (§3.4) and loop distribution (§3.3) are not applied.

Entry point: :class:`repro.restructurer.pipeline.Restructurer`.
"""

from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer, RestructureReport

__all__ = ["RestructurerOptions", "Restructurer", "RestructureReport"]
