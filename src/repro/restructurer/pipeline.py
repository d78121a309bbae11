"""The fortran77 → Cedar Fortran restructuring pipeline (paper Figure 2).

:class:`Restructurer` drives the whole translation:

1. parse-level preparation: symbol tables, PARAMETER constants and
   optional inline expansion;
2. per-unit, per-nest planning and transformation (the
   :class:`LoopPlanner`), optionally preceded by loop fusion;
3. globalization (GLOBAL/CLUSTER placement).

The :class:`RestructureReport` records, per unit and loop, which version
won, what the analyses found, and why loops stayed serial — the raw
material of the paper's hand-analysis methodology (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.expr import const_value
from repro.cedar.nodes import ParallelDo
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable, build_symbol_table
from repro.restructurer.fusion import fuse_everywhere
from repro.restructurer.globalize import PlacementResult, globalize_unit
from repro.restructurer.inline import inline_calls
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.planner import LoopPlanner, NestPlan
from repro.trace.events import DecisionEvent, TraceRecorder

#: The canonical, ordered list of restructurer passes: (stage label,
#: option fields that enable it).  Stage order follows the pipeline —
#: inline expansion and fusion, then per-nest scalar analyses, then the
#: version builders.  ``repro.validate`` bisects over prefixes of this
#: list to name the pass that introduced an output divergence; keep new
#: passes registered here when adding option switches, each with a
#: program whose output it changes (``STAGE_WITNESSES`` in
#: tests/restructurer/test_pipeline.py).
PASS_STAGES: list[tuple[str, tuple[str, ...]]] = [
    ("inline-expansion", ("inline_expansion",)),
    ("loop-fusion", ("loop_fusion",)),
    ("induction-substitution", ("basic_induction",)),
    ("generalized-induction", ("generalized_induction",)),
    ("recurrence-recognition", ("recurrence_recognition",)),
    ("reduction-recognition", ("simple_reductions",)),
    ("array-reductions", ("array_reductions", "multi_stmt_reductions")),
    ("scalar-privatization", ("scalar_privatization",)),
    ("array-privatization", ("array_privatization",)),
    ("stripmine-vectorize", ("stripmining",)),
    ("doacross", ("doacross",)),
    ("runtime-test", ("runtime_dependence_test",)),
    ("critical-sections", ("critical_sections",)),
    ("cluster-mapping", ("cluster_mapping",)),
]


def stages_for(options: RestructurerOptions) -> list[str]:
    """The ``PASS_STAGES`` labels enabled by an options object."""
    return [label for label, fields in PASS_STAGES
            if all(getattr(options, f) for f in fields)]


@dataclass
class UnitReport:
    """Restructuring outcome of one program unit."""

    name: str
    plans: list[NestPlan] = field(default_factory=list)
    fused_loops: int = 0
    inlined_calls: int = 0
    placement: Optional[PlacementResult] = None

    @property
    def parallelized_loops(self) -> int:
        return sum(1 for p in self.plans if p.parallelized)

    @property
    def total_loops(self) -> int:
        return len(self.plans)

    def to_dict(self) -> dict:
        return {
            "unit": self.name,
            "parallelized_loops": self.parallelized_loops,
            "total_loops": self.total_loops,
            "fused_loops": self.fused_loops,
            "inlined_calls": self.inlined_calls,
            "global_names": list(self.placement.global_names)
            if self.placement else [],
            "plans": [p.to_dict() for p in self.plans],
        }


@dataclass
class RestructureReport:
    """Whole-translation report."""

    units: dict[str, UnitReport] = field(default_factory=dict)
    #: every pass/planner decision, in emission order (the trace)
    events: list[DecisionEvent] = field(default_factory=list)

    def summary(self) -> str:
        lines = []
        for name, u in self.units.items():
            lines.append(f"{name}: {u.parallelized_loops}/{u.total_loops} "
                         f"loop nests parallelized"
                         + (f", {u.fused_loops} fused" if u.fused_loops else "")
                         + (f", {u.inlined_calls} calls inlined"
                            if u.inlined_calls else ""))
            for p in u.plans:
                lines.append(f"  {p.loop_id} -> {p.chosen}")
        return "\n".join(lines)

    def events_for(self, unit: str) -> list[DecisionEvent]:
        return [e for e in self.events if e.unit == unit]

    def rejections(self) -> list[DecisionEvent]:
        return [e for e in self.events
                if e.action in ("rejected", "declined", "failed")]

    def to_dict(self) -> dict:
        return {
            "units": {name: u.to_dict() for name, u in self.units.items()},
            "decisions": [e.to_dict() for e in self.events],
        }


class Restructurer:
    """Drives fortran77 → Cedar Fortran translation of a source file."""

    def __init__(self, options: RestructurerOptions | None = None):
        self.opt = options or RestructurerOptions()

    def run(self, sf: F.SourceFile) -> tuple[F.SourceFile, RestructureReport]:
        """Restructure every unit of ``sf`` (the tree is transformed in
        place and also returned, with Cedar nodes spliced in)."""
        report = RestructureReport()
        # every decision event lands on ``report.events``
        self._sink = TraceRecorder()

        # inline expansion must see the *original* callees: units are
        # restructured in file order, and inlining an already-transformed
        # callee would splice Cedar nodes into a pre-translation tree
        pristine = F.SourceFile([u.clone() for u in sf.units]) \
            if self.opt.inline_expansion else sf

        for unit in sf.units:
            report.units[unit.name] = self._run_unit(unit, pristine)
        report.events = self._sink.events
        return sf, report

    # ------------------------------------------------------------------

    def _run_unit(self, unit: F.ProgramUnit,
                  sf: F.SourceFile) -> UnitReport:
        ur = UnitReport(unit.name)

        if self.opt.inline_expansion:
            res = inline_calls(unit, sf, sink=self._sink)
            ur.inlined_calls = res.expanded

        symtab = build_symbol_table(unit)
        params = self._parameter_values(symtab)

        if self.opt.loop_fusion:
            ur.fused_loops = fuse_everywhere(unit.body, params,
                                             sink=self._sink, unit=unit.name)

        planner = LoopPlanner(self.opt, unit, symtab, params,
                              sink=self._sink)
        self._plan_region(unit.body, planner, ur)

        ur.placement = globalize_unit(unit, symtab, sink=self._sink)
        return ur

    def _plan_region(self, stmts: list[F.Stmt], planner: LoopPlanner,
                     ur: UnitReport) -> None:
        """Plan every outermost loop in a statement region (in place).

        Loops the planner leaves serial are descended into, so the nests
        inside a sequential time/convergence loop still parallelize —
        startup costs then recur per outer iteration, as on the machine.
        """
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, F.DoLoop):
                plan = planner.plan(s)
                ur.plans.append(plan)
                stmts[i:i + 1] = plan.replacement
                for r in plan.replacement:
                    if isinstance(r, F.DoLoop) and not isinstance(r, ParallelDo):
                        self._plan_region(r.body, planner, ur)
                i += len(plan.replacement)
                continue
            if isinstance(s, F.IfBlock):
                for _, body in s.arms:
                    self._plan_region(body, planner, ur)
            i += 1

    @staticmethod
    def _parameter_values(symtab: SymbolTable) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, sym in symtab.symbols.items():
            if sym.is_parameter and sym.param_value is not None:
                v = const_value(sym.param_value)
                if isinstance(v, (int, bool)):
                    out[name] = int(v)
        return out
