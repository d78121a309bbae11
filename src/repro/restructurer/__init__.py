"""The Cedar restructurer: fortran77 → Cedar Fortran (paper §3).

The pipeline mirrors the paper's KAP-derived pass structure:

1. optional inline expansion (§3.2) — the only way a loop that calls a
   user routine parallelizes: §4.1.1's interprocedural analysis is not
   modelled, so such a call keeps every level of its nest serial;
2. per-nest scalar analyses — induction variables (incl. GIVs, §4.1.4),
   reductions (§3.3, §4.1.3), scalar & array privatization (§3.2, §4.1.2);
3. dependence testing (§3) and run-time test synthesis (§4.1.5);
4. the planner: enumerate loop-nest execution alternatives (which level
   runs as SDOALL/CDOALL/XDOALL/DOACROSS, stripmining), score them with
   the machine cost model, keep the best (§3.4);
5. transformation passes that realize the chosen plan;
6. globalization: GLOBAL/CLUSTER placement of every variable (§3.2).

Loop interchange (§3.4) and loop distribution (§3.3) are not applied.

Entry point: :class:`repro.restructurer.pipeline.Restructurer`.
"""

from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer, RestructureReport

__all__ = ["RestructurerOptions", "Restructurer", "RestructureReport"]
