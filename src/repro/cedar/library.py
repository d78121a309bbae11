"""The Cedar-optimized runtime library (paper §3.3).

The restructurer replaces recognized reduction/recurrence loops with calls
into this library; each routine records how the Cedar implementation
distributes work (two-step cluster/cross-cluster combining for reductions,
cyclic reduction for linear recurrences) so the performance model can charge
realistic costs, and names its NumPy-backed reference semantics for the
functional interpreter (:mod:`repro.cedar.kernels`, loaded when a program
first calls one — pricing a call never imports NumPy).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class LibraryRoutine:
    """One routine of the Cedar library.

    ``parallel_ops(n, p)`` returns the op count of the critical path when
    ``n`` elements are processed by ``p`` processors; the serial loop would
    execute ``serial_ops_per_elem * n`` operations.
    """

    name: str
    kind: str                      # 'reduction' | 'recurrence' | 'scan'
    serial_ops_per_elem: float
    combine_steps: int = 2         # within-cluster then cross-cluster (§3.3)

    @functools.cached_property
    def fn(self) -> Callable:
        """The reference kernel, bound on first use: only the execution
        engines ask, so a call after the first is a plain attribute."""
        from repro.cedar import kernels

        return getattr(kernels, self.name)

    def parallel_ops(self, n: int, p: int) -> float:
        """Critical-path operation count on ``p`` processors."""
        if p <= 1:
            return self.serial_ops_per_elem * n
        if self.kind == "reduction":
            # local partial results + log-tree combining at two levels
            local = self.serial_ops_per_elem * math.ceil(n / p)
            combine = self.combine_steps * math.ceil(math.log2(p))
            return float(local + combine)
        if self.kind == "recurrence":
            # cyclic reduction: ~2.5x total work, log-depth critical path
            total = 2.5 * self.serial_ops_per_elem * n
            return float(total / p + math.ceil(math.log2(max(n, 2))))
        if self.kind == "scan":
            total = 2.0 * self.serial_ops_per_elem * n
            return float(total / p + math.ceil(math.log2(max(n, 2))))
        raise ValueError(self.kind)


#: name → routine.  Names carry a ``ces_`` prefix (Cedar scientific library).
CEDAR_LIBRARY: dict[str, LibraryRoutine] = {
    "ces_dotproduct": LibraryRoutine("ces_dotproduct", "reduction", 2.0),
    "ces_sum": LibraryRoutine("ces_sum", "reduction", 1.0),
    "ces_maxval": LibraryRoutine("ces_maxval", "reduction", 1.0),
    "ces_minval": LibraryRoutine("ces_minval", "reduction", 1.0),
    "ces_maxloc": LibraryRoutine("ces_maxloc", "reduction", 1.0),
    "ces_minloc": LibraryRoutine("ces_minloc", "reduction", 1.0),
    "ces_linrec": LibraryRoutine("ces_linrec", "recurrence", 2.0),
    "ces_prefix_sum": LibraryRoutine("ces_prefix_sum", "scan", 1.0),
}
