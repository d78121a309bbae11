"""Restructurer-side cost model for ranking candidate loop versions.

This is the *compile-time* estimate (paper §3.3-§3.4), deliberately much
coarser than the machine performance model in :mod:`repro.machine`: it uses
nominal per-level startup costs, an operation count per iteration, and the
paper's **synchronization delay factor** for DOACROSS loops — the size of
the synchronized region as a fraction of one iteration, divided by the
number of processors that may execute it concurrently.
"""

from __future__ import annotations

from repro.analysis.expr import const_value
from repro.fortran import ast_nodes as F

#: Nominal startup cost in "operation units" for entering each loop kind.
STARTUP = {
    "serial": 2.0,
    "vector": 12.0,      # pipeline fill
    "cdoall": 60.0,      # concurrency bus dispatch (fast, §4.2.4)
    "cdoacross": 80.0,
    "sdoall": 1200.0,    # cross-cluster via global memory (slow, §4.2.4)
    "xdoall": 1500.0,
    "xdoacross": 1800.0,
}

#: Per-iteration scheduling overhead (self-scheduling dispatch).
DISPATCH = {
    "serial": 0.0,
    "vector": 0.0,
    "cdoall": 3.0,
    "cdoacross": 4.0,
    "sdoall": 30.0,
    "xdoall": 12.0,
    "xdoacross": 16.0,
}

#: await/advance signalling cost per synchronized region execution.
SYNC_SIGNAL = 10.0


#: iterations assumed for a DO of unknown bounds
DEFAULT_TRIP = 1000


def estimate_body_ops(stmts: list[F.Stmt]) -> float:
    """Rough operation count of one execution of ``stmts``, a DO of
    unknown bounds taken to run :data:`DEFAULT_TRIP` iterations."""
    total = 0.0
    for s in stmts:
        total += _stmt_ops(s)
    return total


def _expr_ops(e: F.Expr) -> float:
    ops = 0.0
    for n in e.walk():
        if isinstance(n, F.BinOp):
            ops += 4.0 if n.op in ("/", "**") else 1.0
        elif isinstance(n, F.UnOp):
            ops += 0.5
        elif isinstance(n, (F.FuncCall, F.Apply)):
            ops += 8.0
        elif isinstance(n, F.ArrayRef):
            ops += 1.0 + 0.5 * (len(n.subscripts) - 1)  # addressing
        elif isinstance(n, F.Var):
            ops += 0.25
    return ops


def trip_count(loop: F.DoLoop) -> float:
    """Estimated iteration count (constant bounds, else the default)."""
    lo, hi = const_value(loop.start), const_value(loop.end)
    step = 1 if loop.step is None else const_value(loop.step)
    if lo is not None and hi is not None and step:
        n = (hi - lo + step) // step if step > 0 else (lo - hi - step) // (-step)
        return float(max(0, n))
    return float(DEFAULT_TRIP)


def _stmt_ops(s: F.Stmt) -> float:
    if isinstance(s, F.Assign):
        return 1.0 + _expr_ops(s.value) + _expr_ops(s.target)
    if isinstance(s, F.DoLoop):
        inner = estimate_body_ops(s.body)
        return STARTUP["serial"] + trip_count(s) * (inner + 1.0)
    if isinstance(s, F.IfBlock):
        arms = [estimate_body_ops(b) for _, b in s.arms]
        conds = sum(_expr_ops(c) for c, _ in s.arms if c is not None)
        return conds + (max(arms) + min(arms)) / 2.0 if arms else conds
    if isinstance(s, F.LogicalIf):
        return _expr_ops(s.cond) + 0.5 * _stmt_ops(s.stmt)
    if isinstance(s, F.CallStmt):
        return 20.0 + 2.0 * len(s.args)
    return 0.5


class CostModel:
    """Scores loop-nest execution alternatives on Cedar's shape: 4
    clusters of 8 processors."""

    clusters = 4
    ppc = 8                      # processors per cluster
    total_p = clusters * ppc

    # -- individual shapes -------------------------------------------------

    def serial(self, trips: float, body_ops: float) -> float:
        return STARTUP["serial"] + trips * (body_ops + 1.0)

    def vectorized(self, trips: float, body_ops: float) -> float:
        # vector pipeline: ~1 op/element after fill, per statement stream
        return STARTUP["vector"] + trips * max(0.35 * body_ops, 1.0)

    def parallel(self, kind: str, trips: float, body_ops: float,
                 processors: int) -> float:
        chunks = max(1.0, trips / processors)
        return (STARTUP[kind]
                + chunks * (body_ops + DISPATCH[kind]))

    def doacross(self, kind: str, trips: float, body_ops: float,
                 sync_region_ops: float, processors: int) -> float:
        """Paper §3.3: lower the parallel benefit by the sync delay factor.

        delay factor = (sync region size / iteration size) / processors.
        Effective parallelism shrinks accordingly; the serialized region
        also bounds the critical path (trips * region).
        """
        base = self.parallel(kind, trips, body_ops, processors)
        serial_path = trips * (sync_region_ops + SYNC_SIGNAL)
        delay_factor = (sync_region_ops / max(body_ops, 1.0)) / processors
        return max(base * (1.0 + delay_factor), serial_path)
