"""Order independence: what a DOALL claims, stated as a test.

Every loop the planner marks parallel must give the sequential answer
whichever worker runs which iteration, in whatever order.  The cyclic
deal ``validate`` runs under is one schedule; here every validation
case × configuration also runs under a *reversed* deal and a seeded
*shuffled* one and must match the sequential baseline within the same
``compare_outputs`` tolerances (reductions may reassociate; nothing else
may move).
"""

import random

import pytest

from repro.execmodel.interp import cyclic_deal
from repro.validate.configs import PIPELINE_CONFIGS
from repro.validate.differential import (compare_outputs, run_baseline,
                                         run_variant)
from repro.workloads import validation_cases

CASES = validation_cases()
SEED = 3
WORKERS = 8


def reversed_deal(n, p):
    """The cyclic shares, last worker first, each walked backwards."""
    return [share[::-1] for share in reversed(cyclic_deal(n, p))]


def shuffled_deal(n, p):
    """A seeded random partition: shuffled positions, dealt unevenly."""
    rng = random.Random(f"shuffled:{n}:{p}")
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.randint(0, n) for _ in range(p - 1))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]


DEALS = {"reversed": reversed_deal, "shuffled": shuffled_deal}


@pytest.fixture(scope="module")
def baselines():
    return {name: run_baseline(case, SEED) for name, case in CASES.items()}


@pytest.mark.parametrize("deal", sorted(DEALS))
@pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
@pytest.mark.parametrize("wname", sorted(CASES))
def test_result_does_not_depend_on_the_schedule(wname, config, deal,
                                                baselines):
    case = CASES[wname]
    out, _ = run_variant(case, PIPELINE_CONFIGS[config](), SEED, WORKERS,
                         deal=DEALS[deal])
    divergences = compare_outputs(
        baselines[wname], out, permutation_ok=case.permutation_ok,
        processors=WORKERS, seed=SEED)
    assert not divergences, [d.describe() for d in divergences]


def test_the_deals_are_partitions_and_not_the_cyclic_one():
    for deal in DEALS.values():
        for n, p in ((24, 8), (7, 3), (5, 5), (100, 8)):
            shares = deal(n, p)
            assert len(shares) == p
            assert sorted(i for s in shares for i in s) == list(range(n))
            assert [list(s) for s in shares] \
                != [list(r) for r in cyclic_deal(n, p)]
