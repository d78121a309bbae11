"""Loops that call a routine: inline expansion (§3.2) opens them, and a
call nothing opens keeps its nest serial.

The paper's interprocedural analysis (§4.1.1) is not modelled.  A call
to a routine that is neither an intrinsic nor a Cedar library routine
may touch COMMON storage the loop's own text never names, so every level
of a nest holding one stays serial and takes no vector form — the CALL
statement and the function reference alike.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.api import restructure
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import ShadowRecorder
from repro.fortran.parser import parse_program
from repro.restructurer.options import RestructurerOptions

CALL_IN_LOOP = """
      subroutine work(xin, yout)
      real xin, yout
      yout = xin * 2.0 + 1.0
      end

      subroutine driver(n, a, b)
      integer n
      real a(n), b(n)
      integer i
      do i = 1, n
         call work(a(i), b(i))
      end do
      end
"""


class TestInliningUnlocksLoops:
    def test_auto_keeps_call_loop_serial(self):
        _, rep = restructure(parse_program(CALL_IN_LOOP),
                             RestructurerOptions.automatic())
        plan = rep.units["driver"].plans[0]
        assert plan.chosen == "serial"

    def test_manual_inlines_and_parallelizes(self):
        cedar, rep = restructure(parse_program(CALL_IN_LOOP),
                                 RestructurerOptions.manual())
        assert rep.units["driver"].inlined_calls == 1
        plan = rep.units["driver"].plans[0]
        assert plan.chosen != "serial"

    def test_inlined_version_equivalent(self):
        cedar, _ = restructure(parse_program(CALL_IN_LOOP),
                               RestructurerOptions.manual())
        n = 10
        a = np.arange(1.0, n + 1.0)
        b0, b1 = np.zeros(n), np.zeros(n)
        Interpreter(parse_program(CALL_IN_LOOP)).call("driver", n,
                                                      a.copy(), b0)
        Interpreter(cedar, processors=4).call("driver", n, a.copy(), b1)
        assert np.allclose(b0, b1)
        assert np.allclose(b0, a * 2.0 + 1.0)


#: a loop whose CALL advances a clock in COMMON — the source the
#: front-door CI step ingests too
CLOCK_TICK = (Path(__file__).resolve().parents[2]
              / "examples" / "clock_tick.f").read_text()

#: a REAL FUNCTION that advances a COMMON seed and returns it
NEXT = """
      real function next(x)
      real x, seed
      common /rng/ seed
      seed = seed + x
      next = seed
      end
"""

NEXT_IN_LOOP = """
      subroutine fill(n, a)
      integer n, i
      real a(n), next
      do 10 i = 1, n
         a(i) = next(1.0)
   10 continue
      end
""" + NEXT

#: a CALL inline expansion cannot open (an array element bound to an
#: array dummy) whose callee sums into COMMON
COLSUM_IN_LOOP = """
      subroutine sums(n, a, t)
      integer n, i
      real a(n, n), t, total
      common /acc/ total
      do 10 i = 1, n
         call colsum(a(1, i), n)
   10 continue
      t = total
      end

      subroutine colsum(x, n)
      integer n, j
      real x(n), total
      common /acc/ total
      do 20 j = 1, n
         total = total + x(j)
   20 continue
      end
"""

#: fusing the two loops would run every ``next`` before the reads of
#: ``seed`` they feed, not after
NEXT_THEN_SEED = """
      subroutine two(n, b, c)
      integer n, i
      real b(n), c(n), next, seed
      common /rng/ seed
      do 10 i = 2, n
         c(i) = next(1.0)
   10 continue
      do 20 i = 2, n
         b(i) = b(i-1) + seed
   20 continue
      end
""" + NEXT

N = 16  # four iterations per processor at P = 4


def _clock_args():
    return N, np.ones(N), np.zeros(1)


def _next_args():
    return N, np.zeros(N)


class TestCallsWithUnknownEffects:
    @pytest.mark.parametrize("preset", ("automatic", "manual"))
    @pytest.mark.parametrize("source, unit", (
        (CLOCK_TICK, "scale"),
        (NEXT_IN_LOOP, "fill"),
        (COLSUM_IN_LOOP, "sums"),
    ), ids=("tick", "next", "colsum"))
    def test_the_calling_loop_stays_serial(self, source, unit, preset):
        _, rep = restructure(parse_program(source),
                             getattr(RestructurerOptions, preset)())
        [plan] = rep.units[unit].plans
        assert plan.chosen == "serial"

    @pytest.mark.parametrize("engine", ("tree", "compiled"))
    @pytest.mark.parametrize("preset", ("automatic", "manual"))
    @pytest.mark.parametrize("source, entry, make_args", (
        (CLOCK_TICK, "scale", _clock_args),
        (NEXT_IN_LOOP, "fill", _next_args),
    ), ids=("tick", "next"))
    def test_serial_result_and_no_race(self, source, entry, make_args,
                                       preset, engine):
        want = Interpreter(parse_program(source)).call(entry, *make_args())
        cedar, _ = restructure(parse_program(source),
                               getattr(RestructurerOptions, preset)())
        sh = ShadowRecorder()
        got = Interpreter(cedar, processors=4, shadow=sh,
                          engine=engine).call(entry, *make_args())
        assert sh.conflicts == []
        for name in want:
            assert np.asarray(got[name]).tobytes() \
                == np.asarray(want[name]).tobytes(), name

    def test_a_call_blocks_fusion(self):
        cedar, rep = restructure(parse_program(NEXT_THEN_SEED),
                                 RestructurerOptions.manual())
        assert rep.units["two"].fused_loops == 0
        want = Interpreter(parse_program(NEXT_THEN_SEED)).call(
            "two", N, np.zeros(N), np.zeros(N))
        got = Interpreter(cedar, processors=4).call(
            "two", N, np.zeros(N), np.zeros(N))
        assert np.array_equal(got["b"], want["b"])
