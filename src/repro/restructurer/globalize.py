"""Globalization pass (paper §3.2).

Decides the memory placement of every variable of a unit:

- variables referenced inside S- or X-level parallel loops are visible to
  processors on *different clusters* → ``GLOBAL`` (one copy in global
  memory);
- everything else defaults to ``CLUSTER`` (one copy per cluster, fast
  cluster memory + cache);
- *interface data* (COMMON blocks, dummy arguments) follows the
  user-settable default placement, since its usage may cross routine
  boundaries the compiler cannot see; explicit GLOBAL/CLUSTER declarations
  win.

The pass emits :class:`GlobalDecl`/:class:`ClusterDecl` statements at the
top of the unit's specification part and records the placement on the
symbol table for the machine model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cedar.nodes import ClusterDecl, GlobalDecl, ParallelDo
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable
from repro.trace.events import NULL_SINK, DecisionEvent


@dataclass
class PlacementResult:
    """Placement of every variable of one unit."""

    global_names: list[str] = field(default_factory=list)
    cluster_names: list[str] = field(default_factory=list)

    def placement_of(self, name: str) -> str:
        if name in self.global_names:
            return "global"
        return "cluster"


def _names_in(stmts: list[F.Stmt]) -> set[str]:
    out: set[str] = set()
    for node in F.stmts_walk(stmts):
        if isinstance(node, (F.Var, F.ArrayRef, F.Apply)):
            out.add(node.name)
        elif isinstance(node, (F.DoLoop, ParallelDo)):
            out.add(node.var)
    return out


def _local_names(loop: ParallelDo) -> set[str]:
    out: set[str] = set()
    for decl in loop.locals_:
        for node in decl.walk():
            if isinstance(node, F.EntityDecl):
                out.add(node.name)
    return out


def globalize_unit(unit: F.ProgramUnit, symtab: SymbolTable,
                   default_placement: str = "cluster",
                   sink=NULL_SINK) -> PlacementResult:
    """Run the globalization pass over a (restructured) unit.

    Mutates ``unit.specs`` (prepends the declarations) and annotates
    ``symtab`` symbol placements.
    """
    cross_cluster: set[str] = set()
    for s in F.stmts_walk(unit.body):
        if isinstance(s, ParallelDo) and s.level in ("S", "X"):
            used = _names_in(s.preamble + s.body + s.postamble) | {s.var}
            for e in (s.start, s.end, s.step):
                if e is not None:
                    for n in e.walk():
                        if isinstance(n, F.Var):
                            used.add(n.name)
            used -= _local_names(s)
            cross_cluster |= used

    result = PlacementResult()
    for name, sym in sorted(symtab.symbols.items()):
        if sym.is_function or sym.is_external or sym.is_parameter:
            continue
        interface = sym.is_dummy or sym.common_block is not None
        if name in cross_cluster:
            placement = "global"
        elif interface:
            placement = default_placement
        else:
            placement = "cluster"
        sym.placement = placement
        if placement == "global":
            result.global_names.append(name)
            sink.emit(DecisionEvent(
                kind="pass", unit=unit.name, technique="globalize",
                action="applied", loop=name,
                reason="referenced inside an S/X-level parallel loop: "
                       "processors on different clusters need one copy"
                if name in cross_cluster else
                f"interface data placed {default_placement} by option"))
        else:
            result.cluster_names.append(name)

    if result.global_names:
        unit.specs.append(GlobalDecl(names=list(result.global_names)))
    if result.cluster_names:
        unit.specs.append(ClusterDecl(names=list(result.cluster_names)))
    return result
