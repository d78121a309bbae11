"""Negative controls for the functional half of the degradation oracle.

Each control breaks exactly the property one check claims to test and
asserts that check — and the cell it should name — goes red.  An oracle
that stays green here is testing nothing.
"""

import copy

import pytest

from repro.execmodel.interp import cyclic_deal
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan, all_scenarios
from repro.faults.sweep import (ESTIMATE_N_QUICK, _WorkloadHarness,
                                run_cell)
from repro.fortran import ast_nodes as F
from repro.workloads import validation_cases


def _harness(workload: str) -> _WorkloadHarness:
    case = validation_cases()[workload]
    return _WorkloadHarness(case, estimate_n=ESTIMATE_N_QUICK[case.suite])


class _LossyPlan(FaultPlan):
    """``dead-ce`` done wrong: the dead CE's share is dropped, not
    redistributed over the survivors."""

    deal_key = ("lossy",)

    def deal(self, n, p):
        return [[] if w in self.dead_ces else list(share)
                for w, share in enumerate(cyclic_deal(n, p))]


class _DuplicatingPlan(FaultPlan):
    """One iteration is handed out twice (a chunk re-dispatched after
    its first owner already ran it)."""

    deal_key = ("duplicating",)

    def deal(self, n, p):
        shares = [list(share) for share in cyclic_deal(n, p)]
        shares[-1].append(0)
        return shares


# MDG's one DOALL is a single strip at validation size, so worker 0 is
# the only one to join it.  MDG and cg run every DOALL as one whole
# grid, which no deal could reach before the vector forms asked whether
# theirs is a partition.  (A dropped strip leaves MDG dividing by zero.)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("workload,dead", [("cg", 1), ("TRFD", 1),
                                           ("sparse", 1), ("MDG", 0)])
def test_lossy_deal_fails_recovery(workload, dead):
    h = _harness(workload)
    run = run_cell(h, _LossyPlan(name="lossy", dead_ces=(dead,)))
    assert not run.checks["recovery_ok"]
    # the honest version of the same fault recovers
    assert run_cell(h, FaultPlan(name="dead", dead_ces=(dead,))).ok


@pytest.mark.parametrize("workload", ["TRFD", "cg", "sparse"])
def test_duplicated_iteration_fails_recovery(workload):
    """On a reduction (TRFD) and on elementwise updates that read what
    they write (cg's ``x = x + alpha * p``, in a loop that lowers)."""
    run = run_cell(_harness(workload), _DuplicatingPlan(name="duplicating"))
    assert not run.checks["recovery_ok"]


def test_duplicated_iteration_is_idempotent_on_mdg():
    """No output can show a repeated MDG strip — ``dr`` and ``r2`` are
    recomputed from ``x`` alone, on the tree as on the vector form — so
    the control that bites there is the lossy one; that both engines
    run the duplicate is test_engine_equivalence's
    ``test_identical_under_every_deal``."""
    run = run_cell(_harness("MDG"), _DuplicatingPlan(name="duplicating"))
    assert run.checks["recovery_ok"]


CULPRIT = "bank-degraded"


def _leaky_row(monkeypatch) -> dict[str, bool]:
    """``numerics_identical`` per scenario of a full ``cg`` row in which
    the :data:`CULPRIT` scenario's estimate edits a literal of the tree
    it shares with the interpreter."""
    h = _harness("cg")
    # a private tree: the harness's own comes from the process-wide
    # compilation cache, which later tests read
    h.cedar = copy.deepcopy(h.cedar)
    lit = next(n for n in h.cedar.walk() if isinstance(n, F.RealLit))
    memory_extra = FaultInjector.memory_extra

    def leaky(self, placement, healthy_cost):
        if self.plan.name == CULPRIT:
            lit.value = 1.0
        return memory_extra(self, placement, healthy_cost)

    assert lit.value != 1.0
    monkeypatch.setattr(FaultInjector, "memory_extra", leaky)
    plans = all_scenarios()
    return {name: run_cell(h, plan, last_in_row=name == list(plans)[-1])
            .checks["numerics_identical"] for name, plan in plans.items()}


def test_leaky_estimate_is_named_by_its_cell(monkeypatch):
    verdicts = _leaky_row(monkeypatch)
    names = list(verdicts)
    before = names[:names.index(CULPRIT)]
    assert before and all(verdicts[n] for n in before)
    assert not verdicts[CULPRIT]


def test_row_rerun_catches_a_leak_the_tree_text_misses(monkeypatch):
    # blind the per-cell check: the row-level re-run is then the only
    # thing between the leak and a green row
    monkeypatch.setattr(_WorkloadHarness, "tree_untouched",
                        lambda self: True)
    verdicts = _leaky_row(monkeypatch)
    *rest, last = verdicts
    assert all(verdicts[n] for n in rest)
    assert not verdicts[last]
