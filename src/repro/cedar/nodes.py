"""AST nodes for the Cedar Fortran extensions (paper §2.1, Figures 3-5).

These nodes live alongside the plain Fortran 77 nodes so one tree can mix
both; the restructurer replaces sequential ``DoLoop`` nodes with
:class:`ParallelDo` and inserts visibility declarations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.fortran import ast_nodes as F

#: Loop level prefixes: Cluster, Spread, Cross-cluster (paper Figure 3).
LEVELS = ("C", "S", "X")

#: Loop ordering forms.
ORDERS = ("doall", "doacross")


@dataclass
class ParallelDo(F.Stmt):
    """A Cedar parallel loop: {C,S,X} × {DOALL, DOACROSS}.

    ``level``:

    - ``'C'`` — all processors of one cluster join (hardware microtasking);
    - ``'S'`` — one processor per cluster joins (spread loop);
    - ``'X'`` — all processors of all clusters join.

    ``locals_`` holds loop-local declarations (each processor gets a private
    copy for C/X loops; cluster-visible for S loops).  ``preamble`` runs once
    per joining processor before its first iteration; ``postamble`` (S/X
    only) once after its last.
    """

    level: str = "C"
    order: str = "doall"
    var: str = ""
    start: F.Expr = None  # type: ignore[assignment]
    end: F.Expr = None  # type: ignore[assignment]
    step: Optional[F.Expr] = None
    locals_: list[F.Stmt] = field(default_factory=list)
    preamble: list[F.Stmt] = field(default_factory=list)
    body: list[F.Stmt] = field(default_factory=list)
    postamble: list[F.Stmt] = field(default_factory=list)

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"bad parallel loop level {self.level!r}")
        if self.order not in ORDERS:
            raise ValueError(f"bad parallel loop order {self.order!r}")

    @property
    def keyword(self) -> str:
        return f"{self.level}{'DOALL' if self.order == 'doall' else 'DOACROSS'}".lower()


@dataclass
class GlobalDecl(F.Stmt):
    """``GLOBAL var, var…`` — one copy in global memory, visible everywhere."""
    names: list[str] = field(default_factory=list)


@dataclass
class ClusterDecl(F.Stmt):
    """``CLUSTER var, var…`` — one copy per cluster, in cluster memory."""
    names: list[str] = field(default_factory=list)


@dataclass
class ProcessCommonStmt(F.Stmt):
    """``PROCESS COMMON /name/ vars`` — a COMMON block in global memory."""
    block: str = ""
    entities: list[F.EntityDecl] = field(default_factory=list)


@dataclass
class WhereStmt(F.Stmt):
    """Fortran 90 WHERE for masked vector assignment (paper §2.1)."""
    mask: F.Expr = None  # type: ignore[assignment]
    body: list[F.Stmt] = field(default_factory=list)
    elsewhere: list[F.Stmt] = field(default_factory=list)


@dataclass
class AwaitStmt(F.Stmt):
    """``call await(point, distance)`` — wait for iteration i-distance."""
    point: int = 1
    distance: int = 1


@dataclass
class AdvanceStmt(F.Stmt):
    """``call advance(point)`` — signal completion of the synchronized region."""
    point: int = 1


@dataclass
class LockStmt(F.Stmt):
    """``call lock(name)`` — enter an unordered critical section (§4.1.6)."""
    name: str = "lck"


@dataclass
class UnlockStmt(F.Stmt):
    """``call unlock(name)`` — leave an unordered critical section."""
    name: str = "lck"


def contains_parallelism(stmts: list[F.Stmt]) -> bool:
    """True if any statement in the subtree is a parallel loop."""
    for s in F.stmts_walk(stmts):
        if isinstance(s, ParallelDo):
            return True
    return False
