"""Property test: the O(1) closed form in ``LoopScheduler.run`` must agree
with a healthy :meth:`FaultPlan.drain` — the event-driven replay of the
same self-scheduled queue that the fault path prices with — to
floating-point rounding, across worker counts and trip counts (including
trips < workers), down to how many iterations each worker takes."""

from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.plan import FaultPlan
from repro.machine.config import MachineConfig, cedar_config1, cedar_config2
from repro.machine.scheduler import LoopScheduler, _round_robin_counts


@dataclass
class Drained:
    total_time: float
    busy_time: float
    workers: int
    chunks: int
    counts: list[int]


def closed_vs_drained(cfg: MachineConfig, level: str, trips: int,
                      per: float, preamble: float,
                      postamble: float) -> tuple:
    closed = LoopScheduler(cfg).run(level, trips, per, preamble, postamble)
    p = min(cfg.processors_at(level), trips)
    owners, clocks = FaultPlan().drain([per] * trips, p, cfg.dispatch(level),
                                       preamble)
    # a healthy drain retires no worker: every clock is a worker's last
    # chunk end, after which it runs its postamble
    assert sorted(w for _, w in clocks) == list(range(p))
    drained = Drained(
        total_time=(cfg.startup(level, "doall")
                    + max(t for t, _ in clocks) + postamble),
        busy_time=sum(t for t, _ in clocks) + p * postamble,
        workers=p,
        chunks=len(owners),
        counts=[owners.count(w) for w in range(p)])
    return closed, drained


def assert_agree(closed, drained):
    scale = max(abs(drained.total_time), 1.0)
    assert abs(closed.total_time - drained.total_time) <= 1e-9 * scale, (
        f"total: closed {closed.total_time} != drain {drained.total_time}")
    busy_scale = max(abs(drained.busy_time), 1.0)
    assert abs(closed.busy_time - drained.busy_time) <= 1e-9 * busy_scale
    assert closed.workers == drained.workers
    assert closed.chunks == drained.chunks
    assert drained.counts == _round_robin_counts(closed.chunks,
                                                 closed.workers)


@given(
    trips=st.integers(min_value=1, max_value=400),
    per=st.floats(min_value=0.5, max_value=500.0,
                  allow_nan=False, allow_infinity=False),
    preamble=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    postamble=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
    level=st.sampled_from(["C", "S", "X"]),
    config=st.sampled_from(["cedar1", "cedar2"]),
)
@settings(max_examples=200, deadline=None)
def test_closed_form_matches_simulation(trips, per, preamble, postamble,
                                        level, config):
    cfg = cedar_config1() if config == "cedar1" else cedar_config2()
    assert_agree(*closed_vs_drained(cfg, level, trips, per, preamble,
                                    postamble))


def test_trips_below_workers_edge():
    """Fewer trips than CEs: every trip gets its own worker; completion is
    one iteration deep."""
    cfg = cedar_config1()
    for trips in range(1, cfg.processors_at("C") + 1):
        closed, drained = closed_vs_drained(cfg, "C", trips, 10.0, 0.0, 0.0)
        assert closed.workers == trips
        assert drained.counts == [1] * trips
        assert_agree(closed, drained)


def test_partial_last_round():
    """trips % workers != 0 leaves a short last round: the first
    ``trips % workers`` CEs take one iteration more, and both paths price
    the same critical path."""
    cfg = cedar_config2()
    for level, trips in [("C", 10), ("C", 17), ("S", 5), ("S", 33),
                         ("X", 100)]:
        closed, drained = closed_vs_drained(cfg, level, trips, 9.0, 2.0, 2.0)
        p, extra = closed.workers, trips % closed.workers
        assert extra, (level, trips)
        k = -(-trips // p)
        assert drained.counts == [k] * extra + [k - 1] * (p - extra)
        assert_agree(closed, drained)
