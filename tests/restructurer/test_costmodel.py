"""Tests for the restructurer-side cost model (§3.3-§3.4)."""

import pytest

from repro.fortran.parser import parse_program
from repro.machine.config import cedar_config1
from repro.fortran import ast_nodes as F
from repro.restructurer.costmodel import (
    DEFAULT_TRIP,
    CostModel,
    estimate_body_ops,
    trip_count,
)


def body_of(src):
    sf = parse_program(src)
    return sf.units[0].body


class TestEstimates:
    def test_trip_count_constant(self):
        (loop,) = body_of("""
      subroutine s(a)
      real a(100)
      integer i
      do i = 3, 100, 2
         a(i) = 0.0
      end do
      end
""")
        assert trip_count(loop) == 49

    def test_trip_count_symbolic_default(self):
        (loop,) = body_of("""
      subroutine s(n, a)
      integer n
      real a(n)
      integer i
      do i = 1, n
         a(i) = 0.0
      end do
      end
""")
        assert trip_count(loop) == DEFAULT_TRIP == 1000

    def test_body_ops_scale_with_statements(self):
        one = body_of("""
      subroutine s(a, b)
      real a, b
      a = b + 1.0
      end
""")
        three = body_of("""
      subroutine s(a, b)
      real a, b
      a = b + 1.0
      b = a * 2.0
      a = a / b
      end
""")
        assert estimate_body_ops(three) \
            > estimate_body_ops(one) * 2

    def test_divide_costs_more(self):
        add = body_of("""
      subroutine s(a, b)
      real a, b
      a = b + b
      end
""")
        div = body_of("""
      subroutine s(a, b)
      real a, b
      a = b / b
      end
""")
        assert estimate_body_ops(div) > estimate_body_ops(add)


class TestVersionScoring:
    def setup_method(self):
        self.cm = CostModel()

    def test_serial_beats_parallel_for_tiny_loops(self):
        assert self.cm.serial(10, 5.0) \
            < self.cm.parallel("xdoall", 10, 5.0, 32)

    def test_parallel_wins_at_scale(self):
        assert self.cm.parallel("xdoall", 100000, 20.0, 32) \
            < self.cm.serial(100000, 20.0)

    def test_cdoall_cheaper_to_start(self):
        c = self.cm.parallel("cdoall", 64, 10.0, 8)
        x = self.cm.parallel("xdoall", 64, 10.0, 32)
        assert c < x

    def test_doacross_delay_factor(self):
        """§3.3: the benefit shrinks with the synchronized fraction."""
        small = self.cm.doacross("cdoacross", 1000, 100.0, 5.0, 8)
        large = self.cm.doacross("cdoacross", 1000, 100.0, 80.0, 8)
        assert small < large

    def test_doacross_serial_chain_floor(self):
        t = self.cm.doacross("cdoacross", 1000, 100.0, 100.0, 8)
        assert t >= 1000 * 100.0  # fully serialized region bounds it

    def test_processors_for_levels(self):
        """The per-version processor counts the planner scores with are the
        machine's CE counts at each level."""
        cfg = cedar_config1()
        assert self.cm.ppc == cfg.processors_at("C") == 8        # cdoall
        assert self.cm.clusters == cfg.processors_at("S") == 4   # sdoall
        assert self.cm.total_p == cfg.processors_at("X") == 32   # xdoall

    def test_vectorization_discount(self):
        assert self.cm.vectorized(10000, 10.0) < self.cm.serial(10000, 10.0)
