"""One record per program: :class:`Workload`.

A workload module declares its facts once, as upper-case constants next
to its ``SOURCE`` (:data:`MODULE_FACTS` names them) and as the functions
``make_args``, ``bindings`` and ``verify``; :func:`declared` reads them
into the record.  The Table 1 routines, the Table 2 proxies, the
synthetic DOACROSS row of the fault sweep and the generated fuzz
programs are all this one record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


def bind_n(n: int) -> dict:
    """The estimator bindings of a program whose one size symbol is
    ``n`` — the default of :attr:`Workload.bindings`."""
    return {"n": n}


@dataclass(frozen=True)
class Workload:
    """One program and every fact the harnesses read off it."""

    name: str
    suite: str                    # "linalg" | "perfect" | "synthetic" | "fuzz"
    source: str
    entry: str                    # the routine to call and estimate
    make_args: Callable           # (n, rng) -> (args, aux)
    n: int                        # the validation size
    bindings: Callable = bind_n   # (n) -> {symbol: value} for the estimator
    #: outputs compare only up to a permutation (an unordered critical
    #: section's hit list)
    permutation_ok: bool = False
    verify: Optional[Callable] = None  # (n, aux, result) -> bool, if any
    #: the size the paper's table runs at (Table 1's size column; a
    #: Table 2 proxy's full size)
    paper_n: Optional[int] = None
    #: the paper's speedups: ``cedar_auto`` for a Table 1 routine, the
    #: four ``{fx80,cedar}_{auto,manual}`` columns for a Table 2 proxy
    paper: Optional[dict] = None
    #: the §4.1 techniques a proxy's manual version needs
    techniques: tuple[str, ...] = ()


#: module constant -> the record field it declares; the last two are
#: optional, the rest every linalg and perfect module defines
MODULE_FACTS = {
    "NAME": "name", "ENTRY": "entry", "SOURCE": "source",
    "VALIDATE_N": "n", "PAPER_N": "paper_n", "PAPER": "paper",
    "TECHNIQUES": "techniques", "PERMUTATION_OK": "permutation_ok",
}


def declared(module, suite: str) -> Workload:
    """The record a workload module declares."""
    facts = {field: getattr(module, const)
             for const, field in MODULE_FACTS.items()
             if hasattr(module, const)}
    facts.update((fn, getattr(module, fn))
                 for fn in ("make_args", "bindings", "verify")
                 if hasattr(module, fn))
    return Workload(suite=suite, **facts)
