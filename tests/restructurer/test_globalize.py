"""Tests for the globalization pass (§3.2)."""

from repro.api import restructure
from repro.cedar.nodes import ClusterDecl, GlobalDecl, ParallelDo
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer.globalize import globalize_unit


def _decls(unit, cls):
    return [s for s in unit.specs if isinstance(s, cls)]


class TestGlobalize:
    def test_xdoall_data_becomes_global(self):
        sf = parse_program("""
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      end
""")
        unit = sf.units[0]
        unit.body = [ParallelDo(
            level="X", order="doall", var="i",
            start=F.IntLit(1), end=F.Var("n"),
            body=[F.Assign(target=F.ArrayRef("a", [F.Var("i")]),
                           value=F.ArrayRef("b", [F.Var("i")]))])]
        st = build_symbol_table(unit)
        result = globalize_unit(unit, st)
        assert {"a", "b", "n"} <= set(result.global_names)
        assert _decls(unit, GlobalDecl)

    def test_cdoall_data_stays_cluster(self):
        """Cluster-level loops need no global visibility."""
        sf = parse_program("""
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      end
""")
        unit = sf.units[0]
        unit.body = [ParallelDo(
            level="C", order="doall", var="i",
            start=F.IntLit(1), end=F.Var("n"),
            body=[F.Assign(target=F.ArrayRef("a", [F.Var("i")]),
                           value=F.ArrayRef("b", [F.Var("i")]))])]
        st = build_symbol_table(unit)
        result = globalize_unit(unit, st)
        assert "a" in result.cluster_names
        assert "a" not in result.global_names

    def test_loop_locals_not_globalized(self):
        sf = parse_program("""
      subroutine s(n, a)
      integer n
      real a(n)
      end
""")
        unit = sf.units[0]
        unit.body = [ParallelDo(
            level="X", order="doall", var="i",
            start=F.IntLit(1), end=F.Var("n"),
            locals_=[F.TypeDecl(type=F.TypeSpec("real"),
                                entities=[F.EntityDecl("t")])],
            body=[F.Assign(target=F.Var("t"),
                           value=F.ArrayRef("a", [F.Var("i")])),
                  F.Assign(target=F.ArrayRef("a", [F.Var("i")]),
                           value=F.Var("t"))])]
        st = build_symbol_table(unit)
        result = globalize_unit(unit, st)
        assert "t" not in result.global_names

    def test_interface_data_default_placement(self):
        """COMMON/dummy data with no cross-cluster use stays in cluster
        memory, like any other variable (§3.2)."""
        src = """
      subroutine s(x)
      real x
      common /blk/ c
      x = c
      end
"""
        sf = parse_program(src)
        unit = sf.units[0]
        st = build_symbol_table(unit)
        res = globalize_unit(unit, st)
        assert "c" in res.cluster_names and "x" in res.cluster_names
        assert res.global_names == []

    def test_placement_annotated_on_symbols(self):
        sf, rep = restructure(parse_program("""
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      integer i
      do i = 1, n
         a(i) = b(i)
      end do
      end
"""))
        placement = rep.units["s"].placement
        assert placement is not None
        assert placement.placement_of("a") == "global"
