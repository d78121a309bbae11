"""Cedar Fortran dialect: parallel-loop AST nodes, declarations, library.

Cedar Fortran (paper §2) extends Fortran 77 with:

- three classes of parallel loops — cluster (``CDOALL``/``CDOACROSS``),
  spread (``SDOALL``), and cross-cluster (``XDOALL``/``XDOACROSS``) — each
  with loop-local declarations and optional preamble/postamble blocks;
- memory-visibility declarations ``GLOBAL``, ``CLUSTER`` and
  ``PROCESS COMMON``;
- Fortran 90 vector (array-section) assignments and the ``WHERE`` statement;
- ``await``/``advance`` cascade synchronization and lock intrinsics;
- a library of Cedar-optimized reduction/recurrence routines.
"""

from repro.cedar.nodes import (
    AdvanceStmt,
    AwaitStmt,
    ClusterDecl,
    GlobalDecl,
    LockStmt,
    ParallelDo,
    ProcessCommonStmt,
    UnlockStmt,
    WhereStmt,
)
from repro.cedar.unparse import CedarUnparser, unparse_cedar
from repro.cedar.library import CEDAR_LIBRARY, LibraryRoutine

__all__ = [
    "ParallelDo",
    "GlobalDecl",
    "ClusterDecl",
    "ProcessCommonStmt",
    "WhereStmt",
    "AwaitStmt",
    "AdvanceStmt",
    "LockStmt",
    "UnlockStmt",
    "CedarUnparser",
    "unparse_cedar",
    "CEDAR_LIBRARY",
    "LibraryRoutine",
]
