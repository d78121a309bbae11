"""Integration tests for the Perfect Benchmarks proxies.

For every program: the automatic and the manual restructurings both
preserve semantics, and the manual configuration unlocks the loops its
documented §4.1 techniques are supposed to unlock.
"""

import numpy as np
import pytest

from repro.api import restructure
from repro.cedar.nodes import contains_parallelism
from repro.execmodel.interp import Interpreter
from repro.fortran.parser import parse_program
from repro.restructurer.options import RestructurerOptions
from repro.workloads.perfect import PERFECT_PROGRAMS

TEST_N = 16


def _equivalent(program, r0, r1):
    for key in r0:
        x = np.asarray(r0[key], dtype=float)
        y = np.asarray(r1[key], dtype=float)
        if program.permutation_ok and getattr(x, "ndim", 0):
            x, y = np.sort(x.ravel()), np.sort(y.ravel())
        if not np.allclose(x, y, atol=1e-4, rtol=1e-3):
            return False, key
    return True, None


@pytest.fixture(params=sorted(PERFECT_PROGRAMS), scope="module")
def program(request):
    return PERFECT_PROGRAMS[request.param]


class TestEquivalence:
    @pytest.mark.parametrize("mode", ["auto", "manual"])
    def test_restructured_matches_serial(self, program, mode):
        opts = (RestructurerOptions.automatic() if mode == "auto"
                else RestructurerOptions.manual())
        cedar, _ = restructure(parse_program(program.source), opts)
        a0, _ = program.make_args(TEST_N, np.random.default_rng(7))
        a1, _ = program.make_args(TEST_N, np.random.default_rng(7))
        r0 = Interpreter(parse_program(program.source),
                         processors=1).call(program.entry, *a0)
        r1 = Interpreter(cedar, processors=4).call(program.entry, *a1)
        ok, key = _equivalent(program, r0, r1)
        assert ok, (program.name, mode, key)


class TestTechniqueUnlocks:
    """Each proxy's key loop must stay serial automatically and
    parallelize under the technique set the paper names for it."""

    @pytest.mark.parametrize("name", ["FLO52", "BDNA", "DYFESM", "MDG",
                                      "OCEAN", "TRACK", "TRFD", "SPEC77"])
    def test_manual_parallelizes_more(self, name):
        p = PERFECT_PROGRAMS[name]
        _, rep_a = restructure(parse_program(p.source),
                               RestructurerOptions.automatic())
        _, rep_m = restructure(parse_program(p.source),
                               RestructurerOptions.manual())

        def outer_parallel(rep):
            # the report's first plan per unit is the outermost hot loop
            for u in rep.units.values():
                for pl in u.plans:
                    if pl.parallelized and pl.chosen != "library":
                        return True
            return False

        a_serial_outers = sum(
            1 for u in rep_a.units.values() for pl in u.plans
            if pl.chosen == "serial")
        m_serial_outers = sum(
            1 for u in rep_m.units.values() for pl in u.plans
            if pl.chosen == "serial")
        assert m_serial_outers < max(a_serial_outers, 1), name

    def test_mdg_needs_array_reductions(self):
        """MDG: 'very little speedup is possible without it'."""
        p = PERFECT_PROGRAMS["MDG"]
        auto_plans = self._plans(p, RestructurerOptions.automatic())
        manual_plans = self._plans(p, RestructurerOptions.manual())
        assert auto_plans[0] == "serial"
        assert manual_plans[0] != "serial"

    def test_track_uses_critical_section(self):
        p = PERFECT_PROGRAMS["TRACK"]
        manual_plans = self._plans(p, RestructurerOptions.manual())
        assert "critical-xdoall" in manual_plans

    def test_ocean_uses_runtime_test(self):
        p = PERFECT_PROGRAMS["OCEAN"]
        manual_plans = self._plans(p, RestructurerOptions.manual())
        assert "runtime-two-version" in manual_plans

    def test_trfd_needs_giv_and_inlining(self):
        p = PERFECT_PROGRAMS["TRFD"]
        auto = self._plans(p, RestructurerOptions.automatic())
        manual = self._plans(p, RestructurerOptions.manual())
        # automatically, the call-hidden induction keeps the nests serial
        assert "serial" in auto
        assert any(c in ("sdoall-cdoall", "xdoall", "xdoall-vector",
                         "cdoall", "cdoall-vector") for c in manual)

    def test_qcd_rng_cycle_never_parallelizes(self):
        """The footnote: the seed recurrence must not be broken by an
        unordered critical section — both configurations keep it serial."""
        p = PERFECT_PROGRAMS["QCD"]
        for opts in (RestructurerOptions.automatic(),
                     RestructurerOptions.manual()):
            cedar, rep = restructure(parse_program(p.source), opts)
            first_plan = next(pl for u in rep.units.values()
                              for pl in u.plans)
            assert first_plan.chosen == "serial"

    @staticmethod
    def _plans(p, opts):
        _, rep = restructure(parse_program(p.source), opts)
        return [pl.chosen for u in rep.units.values() for pl in u.plans]
