"""One analysis record per loop nest.

Privatization, reduction and induction recognition, dependence testing,
fusion legality and the version builders all ask the same questions of a
nest: which references does it make, which loops and statements does it
contain, how is each scalar used within an iteration, what does the
dependence graph look like, is a variable live after it.
:class:`NestRecord` answers each of them from at most one walk, lazily,
for as long as its owner (the planner for the nest it is planning, the
fusion pass for the loops it is comparing) keeps the record.

The single invalidation rule: a transformation that rewrites the loop's
body *in place* calls :meth:`NestRecord.invalidate` on the record it was
handed.  Everything else builds new loops (clones, fused bodies), and a
new loop gets a new record.  Nothing is keyed on ``id()`` outside a
record, so no fact can outlive its nest.
"""

from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional

from repro.analysis.dataflow import RegionUsage, regions_after
from repro.analysis.depend.graph import DependenceGraph, build_dependence_graph
from repro.analysis.refs import EffectsOracle, LoopInfo, Ref, RefCollector
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable


class NestRecord:
    """Lazily computed facts about ``loop`` (the outermost of a nest).

    ``unit``/``symtab`` give liveness its context (without a unit every
    variable counts as live-out); ``params`` and ``effects`` are the
    PARAMETER constants and the interprocedural MOD/REF oracle the
    dependence graph is built with.
    """

    def __init__(self, loop: F.DoLoop,
                 unit: Optional[F.ProgramUnit] = None,
                 symtab: Optional[SymbolTable] = None,
                 params: Mapping[str, int] | None = None,
                 effects: EffectsOracle | None = None):
        self.loop = loop
        self.unit = unit
        self.symtab = symtab
        self.params = params
        self.effects = effects

    @classmethod
    def of(cls, loop: "F.DoLoop | NestRecord", *context) -> "NestRecord":
        """``loop`` itself when it already is a record (its own context
        wins), else a fresh record over it."""
        return loop if isinstance(loop, cls) else cls(loop, *context)

    def invalidate(self) -> None:
        """Forget every fact: the loop's body was rewritten in place."""
        context = (self.loop, self.unit, self.symtab, self.params,
                   self.effects)
        self.__dict__.clear()
        self.__init__(*context)

    # -- references ---------------------------------------------------------

    def _collect(self, effects: EffectsOracle | None) -> RefCollector:
        rc = RefCollector(effects)
        rc.collect(self.loop.body, (LoopInfo.of(self.loop),))
        return rc

    @cached_property
    def collector(self) -> RefCollector:
        """References with every CALL treated conservatively — what the
        scalar analyses and the run-time test synthesis read."""
        return self._collect(None)

    @cached_property
    def oracle_collector(self) -> RefCollector:
        """References with CALLs resolved through ``effects`` — what the
        dependence graph is built from."""
        return (self.collector if self.effects is None
                else self._collect(self.effects))

    @property
    def refs(self) -> list[Ref]:
        return self.collector.refs

    @cached_property
    def by_name(self) -> dict[str, list[Ref]]:
        out: dict[str, list[Ref]] = {}
        for r in self.refs:
            out.setdefault(r.name, []).append(r)
        return out

    @cached_property
    def written(self) -> set[str]:
        """Names assigned anywhere in the nest (conservative for calls)."""
        return {r.name for r in self.refs if r.is_write}

    # -- structure ----------------------------------------------------------

    @cached_property
    def _statements(self) -> tuple[list[F.Stmt], dict[int, int]]:
        stmts: list[F.Stmt] = []
        top: dict[int, int] = {}
        for i, s in enumerate(self.loop.body):
            for n in s.walk():
                if isinstance(n, F.Stmt):
                    stmts.append(n)
                    top[id(n)] = i
        return stmts, top

    @property
    def stmts(self) -> list[F.Stmt]:
        """Every statement node under the body, pre-order."""
        return self._statements[0]

    def top_index(self, stmt: F.Stmt) -> Optional[int]:
        """Index of the top-level body statement containing ``stmt``."""
        return self._statements[1].get(id(stmt))

    @cached_property
    def inner_loops(self) -> list[F.DoLoop]:
        return [s for s in self.stmts if isinstance(s, F.DoLoop)]

    @cached_property
    def inner_vars(self) -> set[str]:
        return {s.var for s in self.inner_loops}

    # -- data flow ----------------------------------------------------------

    @cached_property
    def usage(self) -> RegionUsage:
        """Per-iteration definite-assignment summary of every scalar."""
        return RegionUsage(self.loop.body)

    @cached_property
    def graph(self) -> DependenceGraph:
        return build_dependence_graph(self.loop, self.params,
                                      refs=self.oracle_collector.refs)

    @cached_property
    def after_usages(self) -> Optional[list[RegionUsage]]:
        """Usage of each region control may reach after the loop (None:
        the loop is not where the unit says it should be)."""
        regions = regions_after(self.unit.body, self.loop)
        return None if regions is None else [RegionUsage(r) for r in regions]

    def live_after(self, name: str) -> bool:
        """Conservative liveness of ``name`` after the loop: dummy
        arguments, COMMON and SAVE variables escape to callers; anything
        else is live when a later region observes it."""
        if self.unit is None:
            return True  # unknown context: assume observable
        sym = self.symtab.lookup(name) if self.symtab is not None else None
        if sym is not None and (sym.is_dummy or sym.common_block is not None
                                or sym.saved):
            return True
        return self.after_usages is None or any(  # None: stay safe
            u.observes(name) for u in self.after_usages)
