"""Calls across routines, without MOD/REF summaries.

The paper's interprocedural analysis (§4.1.1) is not modelled: a call to
a routine that is neither an intrinsic nor a Cedar library routine keeps
its nest serial, and inline expansion (§3.2) is what opens such a call.
These tests pin what the analyses do know of a call: its arguments, its
unknown callee, how far inlining follows a call chain, and the PARAMETER
constants the planner reads.
"""

from repro.analysis.depend import build_dependence_graph
from repro.analysis.refs import RefCollector
from repro.api import restructure
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer.inline import inline_calls
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import Restructurer


def _collector(stmts):
    rc = RefCollector()
    rc.collect(stmts)
    return rc


def _first_loop(unit):
    build_symbol_table(unit)
    return next(s for s in unit.body if isinstance(s, F.DoLoop))


class TestCallGraph:
    def test_external_calls(self):
        """Only a routine outside the intrinsics and the Cedar library
        counts as a call of unknown effect."""
        src = """
      subroutine s(a, t)
      real a(10), t
      call ces_sum(a, 10, t)
      t = sqrt(t)
      end
      subroutine u(a)
      real a(10)
      call unknown(a)
      end
"""
        sf = parse_program(src)
        assert not _collector(sf.unit("s").body).has_unknown_calls
        assert _collector(sf.unit("u").body).has_unknown_calls

    def test_recursion_detection(self):
        """Inline expansion of a recursive pair stops at the depth cap
        instead of expanding forever."""
        src = """
      subroutine a(x)
      real x
      call b(x)
      end
      subroutine b(x)
      real x
      call a(x)
      end
"""
        sf = parse_program(src)
        res = inline_calls(sf.unit("a"), sf, max_depth=3)
        assert res.expanded == 3
        assert res.failed == [("a", "max inline depth")]
        _, rep = restructure(parse_program(src), RestructurerOptions.manual())
        assert rep.units["a"].inlined_calls == 3


class TestSummaries:
    def test_mod_ref_args(self):
        """A variable or array argument is both read and written at the
        call; an expression argument is only read."""
        src = """
      subroutine caller(n, alpha, x, y)
      integer n
      real alpha, x(n), y(n)
      call axpy(n, alpha * 2.0, x, y)
      end
"""
        refs = _collector(parse_program(src).units[0].body).refs
        written = {r.name for r in refs if r.is_write}
        read = {r.name for r in refs if not r.is_write}
        assert {"n", "x", "y"} <= written
        assert {"n", "alpha", "x", "y"} <= read
        assert "alpha" not in written
        assert all(r.in_call for r in refs if r.is_write)

    def test_transitive_through_calls(self):
        """A call chain stays opaque without inlining and opens when
        inline expansion follows it to its leaf."""
        src = """
      subroutine work(xin, yout)
      real xin, yout
      yout = xin * 2.0 + 1.0
      end
      subroutine mid(x, y)
      real x, y
      call work(x, y)
      end
      subroutine driver(n, a, b)
      integer n
      real a(n), b(n)
      integer i
      do i = 1, n
         call mid(a(i), b(i))
      end do
      end
"""
        _, auto = restructure(parse_program(src),
                              RestructurerOptions.automatic())
        assert auto.units["driver"].plans[0].chosen == "serial"
        _, man = restructure(parse_program(src), RestructurerOptions.manual())
        assert man.units["driver"].inlined_calls == 2
        assert man.units["driver"].plans[0].chosen != "serial"

    def test_common_effects(self):
        """A callee's COMMON write never shows in the loop's text, so the
        call alone keeps the loop from running in parallel."""
        src = """
      subroutine w
      common /blk/ c
      c = c + 1.0
      end
      subroutine r(a, n)
      integer n
      real a(n)
      do i = 1, n
         a(i) = 0.0
         call w
      end do
      end
"""
        g = build_dependence_graph(_first_loop(parse_program(src).unit("r")))
        assert "c" not in g.variables_with_carried(0)
        assert g.opaque_calls
        assert not g.is_parallel(0)

    def test_unknown_callee_flags(self):
        src = """
      subroutine s(a)
      real a(10)
      call mystery(a)
      end
"""
        assert _collector(parse_program(src).units[0].body).has_unknown_calls


class TestConstProp:
    def test_parameter_resolution(self):
        src = """
      subroutine s
      parameter (m = 64)
      real a(m)
      a(1) = 0.0
      end
"""
        st = build_symbol_table(parse_program(src).units[0])
        assert Restructurer._parameter_values(st) == {"m": 64}
