"""Paper-shape invariants at the paper's *full* data sizes.

Each driver regenerates one table/figure through the whole pipeline
(parse → restructure → machine-model estimate), once per module; the
checks assert the *shape* of the result against the paper — orderings,
rough factors, crossovers — not absolute numbers.  EXPERIMENTS.md cites
these as the asserted invariants; exact values are pinned separately by
``tests/restructurer/golden_restructure.json``.
"""

import pytest

from repro.experiments import (fig6_prefetch, fig7_privatization,
                               fig8_partitioning, fig9_fusion,
                               qcd_ablation, table1, table2)
from repro.workloads.linalg import LINALG_ROUTINES


def _full_size(driver):
    return pytest.fixture(scope="module")(lambda: driver.run(quick=False))


t1 = _full_size(table1)
t2 = _full_size(table2)
fig6 = _full_size(fig6_prefetch)
fig7 = _full_size(fig7_privatization)
fig8 = _full_size(fig8_partitioning)
fig9 = _full_size(fig9_fusion)
qcd = _full_size(qcd_ablation)


class TestTable1Shape:
    @pytest.fixture
    def speeds(self, t1):
        return dict(zip(t1.column("routine"),
                        t1.column("measured speedup")))

    def test_all_routines_present(self, t1):
        assert set(t1.column("routine")) == set(LINALG_ROUTINES)

    def test_mprove_is_the_outlier(self, speeds):
        """The serial-thrashing routine dwarfs everything (paper: 1079)."""
        assert speeds["mprove"] == max(speeds.values())
        assert speeds["mprove"] > 5 * speeds["gaussj"]

    def test_cg_among_top(self, speeds):
        ranked = sorted(speeds, key=speeds.get, reverse=True)
        assert "cg" in ranked[:4]

    def test_recurrence_bound_routines_near_serial(self, speeds):
        """toeplz and tridag barely speed up (paper: 1.3 and 2.1)."""
        assert speeds["toeplz"] < 3.0
        assert speeds["tridag"] < 3.0

    def test_parallel_routines_beat_serial(self, speeds):
        for name in ("cg", "ludcmp", "sparse", "gaussj", "svbksb", "mprove"):
            assert speeds[name] > 2.0, name

    def test_grain_ordering(self, speeds):
        """Dot-product-only routines (lubksb, svdcmp) sit well below the
        fully parallel ones, as in the paper."""
        assert speeds["lubksb"] < speeds["svbksb"]
        assert speeds["svdcmp"] < speeds["gaussj"]


def _col(table, name):
    return dict(zip(table.column("program"), table.column(name)))


class TestTable2Shape:
    def test_all_programs_present(self, t2):
        assert len(t2.rows) == 12

    def test_manual_beats_auto_everywhere(self, t2):
        fa, ca = _col(t2, "fx80 auto"), _col(t2, "cedar auto")
        fm, cm = _col(t2, "fx80 manual"), _col(t2, "cedar manual")
        for prog in fa:
            assert fm[prog] >= fa[prog] * 0.95, prog
            assert cm[prog] >= ca[prog] * 0.95, prog

    def test_average_improvement_ratios(self, t2):
        """Headline result: manual/auto ≈ 4.5x on FX/80, ≈ 17x on Cedar —
        and crucially the Cedar ratio far exceeds the FX/80 ratio."""
        fa, ca = _col(t2, "fx80 auto"), _col(t2, "cedar auto")
        fm, cm = _col(t2, "fx80 manual"), _col(t2, "cedar manual")
        rf = sum(fm[p] / fa[p] for p in fa) / len(fa)
        rc = sum(cm[p] / ca[p] for p in ca) / len(ca)
        assert rc > rf, "Cedar gains must exceed FX/80 gains"
        assert 2.0 < rf < 10.0
        assert 8.0 < rc < 40.0

    def test_cedar_auto_often_below_serial(self, t2):
        """The paper's Cedar auto column has several values < 1 (the
        cross-cluster overheads defeat naive parallelization)."""
        ca = _col(t2, "cedar auto")
        below = [p for p, v in ca.items() if v < 1.0]
        assert len(below) >= 3

    def test_failing_programs_match_paper(self, t2):
        """MDG, TRACK, QCD, OCEAN: near-nothing automatically."""
        fa = _col(t2, "fx80 auto")
        for prog in ("MDG", "QCD", "OCEAN"):
            assert fa[prog] < 3.0, prog

    def test_arc2d_best_auto(self, t2):
        """ARC2D was the best automatic result in the paper."""
        fa = _col(t2, "fx80 auto")
        assert fa["ARC2D"] >= max(fa[p] for p in
                                  ("MDG", "QCD", "OCEAN", "TRACK", "BDNA"))

    def test_qcd_stays_low_even_manually(self, t2):
        """The RNG dependence cycle bounds QCD near 2x (paper footnote)."""
        fm, cm = _col(t2, "fx80 manual"), _col(t2, "cedar manual")
        assert fm["QCD"] < 5.0
        assert cm["QCD"] < 5.0


class TestFig6Shape:
    def test_cg_gains_substantially(self, fig6):
        """Long vectors: up to 100% improvement (paper ≈ 2x)."""
        gain = fig6.cell("CG", "measured gain")
        assert 1.5 <= gain <= 3.5

    def test_trfd_gains_little(self, fig6):
        """Short vectors + privatized references: ~15% in the paper."""
        gain = fig6.cell("TRFD", "measured gain")
        assert 0.95 <= gain <= 1.3

    def test_cg_gains_more_than_trfd(self, fig6):
        assert fig6.cell("CG", "measured gain") \
            > fig6.cell("TRFD", "measured gain")


class TestFig7Shape:
    def test_expansion_roughly_half_speed(self, fig7):
        """Paper: the globally-expanded variant runs ~50% slower."""
        speed = fig7.cell("expansion", "measured speed")
        assert 0.3 <= speed <= 0.75

    def test_privatization_wins(self, fig7):
        assert fig7.cell("privatization", "measured speed") \
            > fig7.cell("expansion", "measured speed")


class TestFig8Shape:
    def test_global_faster_on_one_cluster(self, fig8):
        """High global transfer rate + prefetch beat cluster memory on a
        single cluster (paper: 1.6 vs 1.35-ish baseline)."""
        assert fig8.cell(1, "global (measured)") \
            >= fig8.cell(1, "partitioned (measured)")

    def test_global_saturates(self, fig8):
        """The global curve's growth collapses past ~2 clusters."""
        g = {c: fig8.cell(c, "global (measured)") for c in (1, 2, 3, 4)}
        early_growth = g[2] / g[1]
        late_growth = g[4] / g[3]
        assert early_growth > 1.5
        assert late_growth < 1.25

    def test_partitioned_near_linear(self, fig8):
        p = {c: fig8.cell(c, "partitioned (measured)") for c in (1, 2, 3, 4)}
        assert p[4] / p[1] > 3.0

    def test_crossover_by_four_clusters(self, fig8):
        """Partitioned overtakes global at the top of the curve."""
        assert fig8.cell(4, "partitioned (measured)") \
            >= fig8.cell(4, "global (measured)") * 0.98

    def test_both_curves_monotonic(self, fig8):
        for col in ("global (measured)", "partitioned (measured)"):
            vals = [fig8.cell(c, col) for c in (1, 2, 3, 4)]
            assert all(b >= a * 0.98 for a, b in zip(vals, vals[1:])), col


def _series(table, machine):
    return {r[1]: r[3] for r in table.rows if r[0] == machine}


class TestFig9Shape:
    def test_outer_parallel_beats_inner(self, fig9):
        """Variant b (outer loops parallel) beats a on both machines."""
        for m in ("fx80", "cedar"):
            s = _series(fig9, m)
            assert s["b"] >= s["a"], m

    def test_fusion_helps_or_holds(self, fig9):
        for m in ("fx80", "cedar"):
            s = _series(fig9, m)
            assert s["c"] >= s["b"] * 0.9, m

    def test_cedar_gains_exceed_fx80(self, fig9):
        """The paper's point: SDOALL startup dominates on Cedar, so
        combining loops helps Cedar (~2x) more than the FX/80 (~1.5x)."""
        fx = _series(fig9, "fx80")
        cedar = _series(fig9, "cedar")
        assert cedar["c"] / cedar["a"] > fx["c"] / fx["a"]

    def test_fx80_gain_moderate(self, fig9):
        fx = _series(fig9, "fx80")
        assert 1.1 <= fx["c"] <= 2.5


class TestAblationShape:
    def test_footnote_ordering(self, qcd):
        """serialized < critical < parallel-rng, as in the footnote."""
        s = qcd.cell("serialized", "measured speedup")
        c = qcd.cell("critical", "measured speedup")
        p = qcd.cell("parallel-rng", "measured speedup")
        assert s < c < p

    def test_serialized_near_two(self, qcd):
        s = qcd.cell("serialized", "measured speedup")
        assert 1.0 <= s <= 4.0

    def test_parallel_rng_near_twenty(self, qcd):
        p = qcd.cell("parallel-rng", "measured speedup")
        assert 10.0 <= p <= 40.0

    def test_only_serialized_validates(self, qcd):
        assert qcd.cell("serialized", "passes validation") == "yes"
        assert qcd.cell("critical", "passes validation") == "no"
