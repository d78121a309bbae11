"""Scalar expansion (paper §3.2).

In vector loops a privatizable scalar cannot stay scalar — each strip
element needs its own cell — so the scalar is expanded into a
strip-length array (``t`` → ``t(strip)``).  In concurrent (non-vector)
loops privatization is used instead; the restructurer "creates temporary
storage using a combination of privatization and scalar expansion" (§3.2).

This pass only *plans* expansion: it decides which scalars need it for a
given loop and allocates names; the actual subscript rewriting happens in
:mod:`repro.restructurer.stripmine`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.nest import NestRecord
from repro.analysis.privatization import analyze_scalar
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import type_of
from repro.restructurer.names import NamePool


@dataclass
class ExpansionPlan:
    """Scalars to expand for one vector loop."""

    mapping: dict[str, str]       # scalar name → expanded array name
    types: dict[str, str]         # scalar name → Fortran type
    blocked: list[str]            # scalars that prevent vectorization

    @property
    def ok(self) -> bool:
        return not self.blocked


def plan_expansion(nest: NestRecord, pool: NamePool) -> ExpansionPlan:
    """Decide scalar expansion for vectorizing ``nest.loop`` (the record
    carries the unit and symbol table liveness and types come from).

    Every scalar assigned in the body must be privatizable (def before use
    each iteration, not live out); such scalars expand.  Anything else
    blocks vectorization of this loop.
    """
    symtab = nest.symtab
    assigned = {s.target.name for s in nest.stmts
                if isinstance(s, F.Assign) and isinstance(s.target, F.Var)}
    assigned |= nest.inner_vars

    mapping: dict[str, str] = {}
    types: dict[str, str] = {}
    blocked: list[str] = []
    for name in sorted(assigned):
        if name == nest.loop.var:
            continue
        res = analyze_scalar(nest, name)
        if not res.privatizable or res.needs_last_value:
            blocked.append(name)
            continue
        # the expanded array keeps the scalar's name, declared loop-local
        # (shadowing), exactly as in the paper's §3.2 example
        mapping[name] = name
        types[name] = type_of(symtab, name)
    return ExpansionPlan(mapping, types, blocked)
