"""End-to-end restructurer pipeline tests."""

import numpy as np
import pytest

from repro.api import restructure, restructure_source
from repro.cedar.nodes import ClusterDecl, GlobalDecl, ParallelDo
from repro.execmodel.interp import Interpreter
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.pipeline import PASS_STAGES, Restructurer
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases
from repro.workloads.synthetic import ALL_SOURCES
from tests.restructurer.test_interprocedural_planning import CALL_IN_LOOP


class TestPaperExamples:
    def test_section_3_2_stripmining(self):
        """The paper's a(i)=b(i) loop becomes GLOBAL + XDOALL + sections."""
        text, rep = restructure_source("""
      subroutine copy(n, a, b)
      integer n
      real a(n), b(n)
      integer i
      do i = 1, n
         a(i) = b(i)
      end do
      end
""")
        assert "global" in text
        assert "xdoall i = 1, n, 32" in text
        assert "min(32, n - i + 1)" in text
        assert "a(i:upper) = b(i:upper)" in text

    def test_section_3_2_privatization_expansion(self):
        """The paper's sqrt(t) example: t expands to t(strip) loop-local."""
        text, _ = restructure_source("""
      subroutine sq(n, a, b)
      integer n
      real a(n), b(n)
      real t
      integer i
      do i = 1, n
         t = b(i)
         a(i) = sqrt(t)
      end do
      end
""")
        assert "real t(32)" in text
        assert "t(1:i3) = b(i:upper)" in text
        assert "sqrt(t(1:i3))" in text

    def test_figure_4_cascade_synchronization(self):
        """The Figure 4 loop becomes a DOACROSS with await/advance around
        the recurrence statement only."""
        text, rep = restructure_source(ALL_SOURCES["casc"])
        assert "cdoacross" in text
        assert text.index("call await(1, 1)") < text.index("b(i) = a(i) + b(i - 1)")
        assert text.index("b(i) = a(i) + b(i - 1)") < text.index("call advance(1)")
        # the independent statements stay outside the synchronized region
        assert text.index("c(i) = d(i) + e(i)") < text.index("call await")


class TestGlobalization:
    def test_global_for_cross_cluster_loops(self):
        sf, _ = restructure(parse_program(ALL_SOURCES["saxpy"]))
        unit = sf.units[0]
        globals_ = [s for s in unit.specs if isinstance(s, GlobalDecl)]
        assert globals_
        assert set(globals_[0].names) >= {"x", "y", "a", "n"}

    def test_cluster_default_when_serial(self):
        sf, _ = restructure(parse_program(ALL_SOURCES["tgiv"]))
        unit = sf.units[0]
        clusters = [s for s in unit.specs if isinstance(s, ClusterDecl)]
        globals_ = [s for s in unit.specs if isinstance(s, GlobalDecl)]
        assert clusters or globals_


class TestOptionGates:
    def test_no_stripmining_option(self):
        from dataclasses import replace

        opts = replace(RestructurerOptions.automatic(), stripmining=False)
        text, _ = restructure_source(ALL_SOURCES["saxpy"], opts)
        assert ":upper" not in text  # no vector sections

    def test_no_doacross_option(self):
        from dataclasses import replace

        opts = replace(RestructurerOptions.automatic(), doacross=False)
        text, _ = restructure_source(ALL_SOURCES["casc"], opts)
        assert "cdoacross" not in text

    def test_aggressive_superset(self):
        a = RestructurerOptions.automatic()
        m = RestructurerOptions.manual()
        assert not a.array_privatization and m.array_privatization
        assert not a.generalized_induction and m.generalized_induction
        assert not a.runtime_dependence_test and m.runtime_dependence_test


#: one witness per ``PASS_STAGES`` label: a program (a synthetic kernel,
#: a workload, or the CALL-in-a-loop fixture) and a preset on which
#: flipping the stage's option fields changes the Cedar text or the
#: decision events.  A switch that no program can observe has no row.
STAGE_WITNESSES = {
    "inline-expansion": ("CALL_IN_LOOP", "automatic"),
    "loop-fusion": ("DYFESM", "automatic"),
    "induction-substitution": ("tgiv", "automatic"),
    "generalized-induction": ("tgiv", "automatic"),
    "recurrence-recognition": ("ssum", "automatic"),
    "reduction-recognition": ("TRACK", "automatic"),
    "array-reductions": ("QCD", "automatic"),
    "scalar-privatization": ("ptmp", "automatic"),
    "array-privatization": ("ptmp", "automatic"),
    "stripmine-vectorize": ("saxpy", "automatic"),
    "doacross": ("casc", "automatic"),
    "runtime-test": ("casc", "automatic"),
    "critical-sections": ("casc", "automatic"),
    "cluster-mapping": ("saxpy", "automatic"),
}


def _witness_source(name: str) -> str:
    if name == "CALL_IN_LOOP":
        return CALL_IN_LOOP
    if name in ALL_SOURCES:
        return ALL_SOURCES[name]
    return validation_cases()[name].source


def _restructured(source: str, options) -> tuple[str, list[dict]]:
    from repro.cedar.unparse import unparse_cedar

    cedar, report = Restructurer(options).run(parse_program(source))
    return unparse_cedar(cedar), [e.to_dict() for e in report.events]


class TestEveryStageSwitchesSomething:
    def test_one_witness_per_stage(self):
        assert set(STAGE_WITNESSES) == {label for label, _ in PASS_STAGES}

    @pytest.mark.parametrize("label", sorted(STAGE_WITNESSES))
    def test_flipping_the_stage_changes_the_output(self, label):
        from dataclasses import replace

        program, preset = STAGE_WITNESSES[label]
        base = PIPELINE_CONFIGS[preset]()
        fields = dict(PASS_STAGES)[label]
        flipped = replace(base, **{f: not getattr(base, f) for f in fields})
        source = _witness_source(program)
        assert _restructured(source, base) != _restructured(source, flipped)


class TestReport:
    def test_summary_mentions_loops(self):
        _, rep = restructure(parse_program(ALL_SOURCES["saxpy"]))
        s = rep.summary()
        assert "saxpy" in s and "1/1" in s

    def test_plans_have_considered_versions(self):
        _, rep = restructure(parse_program(ALL_SOURCES["saxpy"]))
        plan = rep.units["saxpy"].plans[0]
        labels = [l for l, _ in plan.considered]
        assert "serial" in labels
        assert any(l.startswith("xdoall") for l in labels)


class TestSemanticsPreservation:
    """Every synthetic kernel: restructured result == serial result."""

    @pytest.mark.parametrize("name", sorted(ALL_SOURCES))
    @pytest.mark.parametrize("mode", ["auto", "manual"])
    def test_equivalence(self, name, mode):
        src = ALL_SOURCES[name]
        opts = (RestructurerOptions.automatic() if mode == "auto"
                else RestructurerOptions.manual())
        sf0 = parse_program(src)
        sf1, _ = restructure(parse_program(src), opts)
        unit = sf0.units[0]
        rng = np.random.default_rng(13)
        args0 = self._make_args(unit, rng)
        args1 = [a.copy() if isinstance(a, np.ndarray) else a for a in args0]
        r0 = Interpreter(sf0, processors=1).call(unit.name, *args0)
        r1 = Interpreter(sf1, processors=4).call(unit.name, *args1)
        for k in r0:
            assert np.allclose(np.asarray(r0[k], float),
                               np.asarray(r1[k], float),
                               atol=1e-5), (name, mode, k)

    @staticmethod
    def _make_args(unit, rng):
        """Build arguments from the declared dummy shapes (n fixed 12)."""
        from repro.fortran.symtab import build_symbol_table

        st = build_symbol_table(unit)
        n = 12
        args = []
        for d in unit.args:
            sym = st.lookup(d)
            if sym is not None and sym.is_array:
                if sym.rank == 2:
                    args.append(np.abs(rng.standard_normal((n, n))) + 0.1)
                else:
                    size = n * (n + 1) // 2 if unit.name == "tgiv" else n
                    args.append(np.abs(rng.standard_normal(size)) + 0.1)
            elif sym is not None and sym.type == "integer":
                args.append(n)
            else:
                args.append(float(rng.standard_normal()))
        return args
