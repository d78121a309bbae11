"""Tests for the Cedar Fortran dialect: nodes, unparser, library."""

import numpy as np
import pytest

from repro.cedar import (
    CEDAR_LIBRARY,
    AdvanceStmt,
    AwaitStmt,
    ClusterDecl,
    GlobalDecl,
    LockStmt,
    ParallelDo,
    UnlockStmt,
    WhereStmt,
    unparse_cedar,
)
from repro.cedar.nodes import contains_parallelism
from repro.fortran import ast_nodes as F


def make_loop(level="X", order="doall", **kw):
    return ParallelDo(
        level=level, order=order, var="i",
        start=F.IntLit(1), end=F.Var("n"),
        body=[F.Assign(target=F.ArrayRef("a", [F.Var("i")]),
                       value=F.IntLit(0))],
        **kw,
    )


class TestNodes:
    def test_keyword_spellings(self):
        assert make_loop("C", "doall").keyword == "cdoall"
        assert make_loop("S", "doall").keyword == "sdoall"
        assert make_loop("X", "doacross").keyword == "xdoacross"

    def test_invalid_level_rejected(self):
        with pytest.raises(ValueError):
            make_loop("Q")

    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError):
            make_loop("C", "sideways")

    def test_contains_parallelism(self):
        serial = F.DoLoop(var="i", start=F.IntLit(1), end=F.IntLit(2),
                          body=[make_loop()])
        assert contains_parallelism([serial])
        assert not contains_parallelism([F.ContinueStmt()])

    def test_clone_parallel_do(self):
        p = make_loop(locals_=[F.TypeDecl(type=F.TypeSpec("real"),
                                          entities=[F.EntityDecl("t")])])
        q = p.clone()
        q.locals_[0].entities[0].name = "zz"
        assert p.locals_[0].entities[0].name == "t"


class TestUnparser:
    def test_figure3_loop_structure(self):
        """preamble/LOOP/body/ENDLOOP/postamble layout (paper Figure 3)."""
        p = make_loop(
            preamble=[F.Assign(target=F.Var("t"), value=F.IntLit(0))],
            postamble=[F.Assign(target=F.Var("u"), value=F.IntLit(1))],
        )
        text = unparse_cedar(p)
        lines = [l.strip() for l in text.splitlines()]
        assert "xdoall i = 1, n" in lines[0]
        assert lines.index("loop") < lines.index("endloop")
        assert "end xdoall" in lines[-1]

    def test_figure5_declarations(self):
        assert unparse_cedar(GlobalDecl(names=["a", "b"])).strip() \
            == "global a, b"
        assert unparse_cedar(ClusterDecl(names=["c"])).strip() == "cluster c"

    def test_sync_statements(self):
        assert "call await(1, 2)" in unparse_cedar(AwaitStmt(point=1,
                                                             distance=2))
        assert "call advance(1)" in unparse_cedar(AdvanceStmt(point=1))
        assert "call lock(l)" in unparse_cedar(LockStmt(name="l"))
        assert "call unlock(l)" in unparse_cedar(UnlockStmt(name="l"))

    def test_where_statement(self):
        w = WhereStmt(
            mask=F.BinOp(".gt.", F.ArrayRef("a", [F.RangeExpr(None, None)]),
                         F.RealLit(0.0)),
            body=[F.Assign(target=F.ArrayRef("b", [F.RangeExpr(None, None)]),
                           value=F.IntLit(1))],
            elsewhere=[F.Assign(
                target=F.ArrayRef("b", [F.RangeExpr(None, None)]),
                value=F.IntLit(0))],
        )
        text = unparse_cedar(w)
        assert "where (" in text
        assert "elsewhere" in text
        assert "end where" in text


class TestLibrary:
    def test_catalogue_contents(self):
        assert {"ces_dotproduct", "ces_sum", "ces_linrec"} <= set(CEDAR_LIBRARY)

    def test_reference_semantics(self):
        dot = CEDAR_LIBRARY["ces_dotproduct"]
        assert dot.fn([1, 2, 3], [4, 5, 6]) == pytest.approx(32.0)
        s = CEDAR_LIBRARY["ces_sum"]
        assert s.fn([1.0, 2.0, 3.5]) == pytest.approx(6.5)
        loc = CEDAR_LIBRARY["ces_maxloc"]
        assert loc.fn([1.0, 9.0, 3.0]) == 2  # 1-based

    def test_parallel_ops_scaling(self):
        dot = CEDAR_LIBRARY["ces_dotproduct"]
        serial = dot.parallel_ops(10000, 1)
        p32 = dot.parallel_ops(10000, 32)
        assert p32 < serial / 8  # near-linear minus combining

    def test_recurrence_critical_path(self):
        rec = CEDAR_LIBRARY["ces_linrec"]
        serial = rec.parallel_ops(10000, 1)
        p32 = rec.parallel_ops(10000, 32)
        # cyclic reduction: ~2.5x work, so <13x speedup on 32 procs
        assert serial / p32 < 14
        assert serial / p32 > 4

    def test_parallel_ops_is_the_numpy_formula(self):
        """Pricing uses ``math``; the catalogue is NumPy-free.  Same
        floats as the ``np.ceil``/``np.log2`` form it replaced."""
        def old(r, n, p):
            if p <= 1:
                return r.serial_ops_per_elem * n
            if r.kind == "reduction":
                return float(r.serial_ops_per_elem * np.ceil(n / p)
                             + r.combine_steps * np.ceil(np.log2(p)))
            work = {"recurrence": 2.5, "scan": 2.0}[r.kind]
            return float(work * r.serial_ops_per_elem * n / p
                         + np.ceil(np.log2(max(n, 2))))

        for r in CEDAR_LIBRARY.values():
            for p in (1, 2, 3, 4, 8, 32):
                for n in range(1, 4097):
                    assert r.parallel_ops(n, p) == old(r, n, p), (r.name, n, p)

    def test_linrec_matches_loop(self):
        rec = CEDAR_LIBRARY["ces_linrec"]
        b = np.array([0.5, 0.2, 0.9, 1.1])
        c = np.array([1.0, 2.0, 3.0, 4.0])
        out = rec.fn(b, c)
        acc = 0.0
        for i in range(4):
            acc = acc * b[i] + c[i]
        assert out[-1] == pytest.approx(acc)
