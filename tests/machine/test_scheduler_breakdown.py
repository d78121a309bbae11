"""Critical-path breakdown tests for the loop scheduler (satellite of the
cycle-attribution work): the ``*_cycles`` fields must always sum to
``total_time``, across the DOALL closed form and the DOACROSS bound."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machine import LoopScheduler, cedar_config1
from repro.trace import CycleLedger


def _parts(t):
    return (t.startup_cycles + t.dispatch_cycles + t.sync_cycles
            + t.body_cycles + t.pre_post_cycles)


class TestBreakdownInvariant:
    def test_homogeneous_doall(self):
        s = LoopScheduler(cedar_config1())
        t = s.run("C", 1024, iter_cost=100.0,
                  preamble=7.0, postamble=3.0)
        assert _parts(t) == pytest.approx(t.total_time)
        assert t.pre_post_cycles == 10.0
        assert t.startup_cycles == cedar_config1().start_cdoall

    def test_zero_trips_is_pure_startup(self):
        s = LoopScheduler(cedar_config1())
        t = s.run("X", 0, iter_cost=10.0)
        assert t.startup_cycles == t.total_time
        assert _parts(t) == pytest.approx(t.total_time)

    def test_doacross_serial_chain(self):
        s = LoopScheduler(cedar_config1())
        t = s.doacross("C", 100, iter_cost=50.0, region_cost=45.0)
        assert _parts(t) == pytest.approx(t.total_time)
        assert t.sync_cycles > 0  # the await/advance cascade shows up

    def test_doacross_parallel_part(self):
        s = LoopScheduler(cedar_config1())
        t = s.doacross("C", 1000, iter_cost=300.0, region_cost=1.0)
        assert _parts(t) == pytest.approx(t.total_time)
        assert t.dispatch_cycles > 0  # self-scheduling path, not the chain

    def test_partial_last_round_on_critical_path(self):
        """One iteration past a full round makes the path two deep."""
        cfg = cedar_config1()
        s = LoopScheduler(cfg)
        t = s.run("C", 9, iter_cost=40.0)
        assert t.workers == 8 and t.chunks == 9
        assert t.dispatch_cycles == 2 * cfg.dispatch("C")
        assert t.body_cycles == 2 * 40.0
        assert _parts(t) == pytest.approx(t.total_time)

    def test_postamble_lands_on_critical_path(self):
        s = LoopScheduler(cedar_config1())
        plain = s.run("C", 64, iter_cost=1.0)
        with_post = s.run("C", 64, iter_cost=1.0, postamble=50.0)
        assert with_post.total_time == pytest.approx(plain.total_time + 50.0)
        assert with_post.pre_post_cycles == 50.0
        assert _parts(with_post) == pytest.approx(with_post.total_time)


class TestLedgerCharging:
    def test_run_charges_only_overhead(self):
        s = LoopScheduler(cedar_config1())
        led = CycleLedger()
        t = s.run("C", 128, iter_cost=20.0, ledger=led)
        assert led.startup == t.startup_cycles
        assert led.dispatch == t.dispatch_cycles
        assert led.sync == t.sync_cycles
        assert led.compute == 0.0  # body is the caller's to attribute
        assert led.total() == pytest.approx(t.overhead_cycles)

    def test_doacross_charges_sync(self):
        s = LoopScheduler(cedar_config1())
        led = CycleLedger()
        t = s.doacross("C", 100, iter_cost=50.0, region_cost=45.0,
                       ledger=led)
        assert led.sync == pytest.approx(t.sync_cycles)
        assert led.sync > 0

    def test_default_ledger_untouched(self):
        from repro.trace import NULL_LEDGER

        s = LoopScheduler(cedar_config1())
        s.run("C", 128, iter_cost=20.0)
        assert NULL_LEDGER.total() == 0.0


@given(st.integers(1, 120), st.floats(0.5, 100.0))
def test_breakdown_sums_to_total_property(trips, per):
    """Property: the decomposition is exact for arbitrary loop shapes."""
    s = LoopScheduler(cedar_config1())
    t = s.run("C", trips, iter_cost=per, preamble=1.0, postamble=2.0)
    assert _parts(t) == pytest.approx(t.total_time, rel=1e-12)
