"""Smoke + shape tests for the experiment drivers (quick mode)."""

import pytest

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.report import Table


class TestReportTable:
    def test_render_and_access(self):
        t = Table("demo", ["k", "v"])
        t.add("a", 1.0)
        t.add("b", 250.0)
        assert t.cell("a", "v") == 1.0
        assert t.column("k") == ["a", "b"]
        text = t.render()
        assert "demo" in text and "250" in text

    def test_missing_row_raises(self):
        t = Table("demo", ["k", "v"])
        with pytest.raises(KeyError):
            t.row("nope")


@pytest.mark.parametrize("name", sorted(ALL_EXPERIMENTS))
def test_driver_runs_quick(name):
    t = ALL_EXPERIMENTS[name](quick=True)
    assert t.rows
    assert t.render()


class TestQuickShapes:
    """Light shape checks at quick size (full-size checks in
    test_paper_shapes.py)."""

    def test_table2_manual_geq_auto(self):
        t = ALL_EXPERIMENTS["table2"](quick=True)
        for row in t.rows:
            prog, fa, ca, fm, cm = row[:5]
            assert fm >= fa * 0.9, prog
            assert cm >= ca * 0.9, prog

    def test_fig6_cg_over_trfd(self):
        t = ALL_EXPERIMENTS["fig6"](quick=True)
        assert t.cell("CG", "measured gain") \
            >= t.cell("TRFD", "measured gain")

    def test_fig7_privatization_wins(self):
        t = ALL_EXPERIMENTS["fig7"](quick=True)
        assert t.cell("privatization", "measured speed") \
            > t.cell("expansion", "measured speed")

    def test_fig8_partitioned_scales(self):
        # quick sizes leave startup dominant; require monotone growth only
        # (the 2x+ scaling is asserted at full size in test_paper_shapes)
        t = ALL_EXPERIMENTS["fig8"](quick=True)
        p1 = t.cell(1, "partitioned (measured)")
        p4 = t.cell(4, "partitioned (measured)")
        assert p4 > p1 * 1.2
