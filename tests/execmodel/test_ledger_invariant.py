"""The tracing contract: cycle attribution never changes totals.

For every Table 1 routine (and a couple of Perfect proxies), the sum of
the :class:`CycleLedger` categories must equal the estimator's aggregate
cycle count to within 1e-6 relative — on both the serial original and the
restructured parallel program.
"""

import pytest

from repro.experiments.common import restructured_estimate, serial_estimate
from repro.machine.config import cedar_config1
from repro.restructurer.options import RestructurerOptions
from repro.workloads.linalg import LINALG_ROUTINES

REL_TOL = 1e-6
#: quick sizes: enough iterations to exercise scheduling/paging paths
SIZE = 48


def _rel_err(ledger_total: float, total: float) -> float:
    return abs(ledger_total - total) / max(abs(total), 1e-12)


@pytest.mark.parametrize("name", sorted(LINALG_ROUTINES))
def test_ledger_matches_total_serial(name):
    r = LINALG_ROUTINES[name]
    res = serial_estimate(r.source, r.entry, r.bindings(SIZE),
                          cedar_config1())
    assert res.ledger is not None
    assert _rel_err(res.ledger.total(), res.total) <= REL_TOL


@pytest.mark.parametrize("name", sorted(LINALG_ROUTINES))
def test_ledger_matches_total_restructured(name):
    r = LINALG_ROUTINES[name]
    res, _, _ = restructured_estimate(
        r.source, r.entry, r.bindings(SIZE), cedar_config1(),
        RestructurerOptions.automatic())
    assert res.ledger is not None
    assert _rel_err(res.ledger.total(), res.total) <= REL_TOL


@pytest.mark.parametrize("name", ["TRFD", "FLO52"])
def test_ledger_matches_total_perfect_proxies(name):
    from repro.workloads.perfect import PERFECT_PROGRAMS

    p = PERFECT_PROGRAMS[name]
    res, _, _ = restructured_estimate(
        p.source, p.entry, p.bindings(max(16, p.paper_n // 4)),
        cedar_config1(), RestructurerOptions.manual())
    assert res.ledger is not None
    assert _rel_err(res.ledger.total(), res.total) <= REL_TOL


def test_breakdown_helper_shape():
    r = LINALG_ROUTINES["tridag"]
    res = serial_estimate(r.source, r.entry, r.bindings(SIZE),
                          cedar_config1())
    d = res.breakdown()
    assert d["total"] == pytest.approx(res.total, rel=REL_TOL)
    assert set(d["groups"]) == {"processor", "parallel_overhead",
                                "memory", "paging", "degradation"}


def test_parallel_attribution_sees_overhead_categories():
    """A restructured routine must show parallel-overhead cycles —
    the whole point of the attribution (startup dominates small loops)."""
    r = LINALG_ROUTINES["cg"]
    res, _, _ = restructured_estimate(
        r.source, r.entry, r.bindings(SIZE), cedar_config1(),
        RestructurerOptions.automatic())
    assert res.ledger.group_total("parallel_overhead") > 0
    assert res.ledger.group_total("processor") > 0
