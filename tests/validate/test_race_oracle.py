"""The race detector gives one verdict per program, whichever engine
hosts the recorder.

``tree`` + recorder is the oracle; ``compiled`` + recorder (scalar text
over helpers making the tree handlers' ``record_*`` calls) must report
the same loops, the same results and the same conflicts — on the
restructurer's real output and on mutants whose privatisation was
stripped so that they do race.
"""

import copy

import numpy as np
import pytest

from repro.cedar.nodes import ParallelDo
from repro.engine import cached_restructure
from repro.errors import InterpreterError
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import ShadowRecorder
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

# the detector's own end-to-end cases take the engine as a fixture:
# importing them re-collects them in this module, where the fixture
# below hands them the compiled engine
from tests.validate.test_race_detector import (  # noqa: F401
    TestCriticalSection, TestDoacrossExcluded, TestFewerThanTwoIterations,
    TestPrivatization, TestReduction)

CASES = validation_cases()


@pytest.fixture
def engine():
    return "compiled"


def test_recollected_cases_get_the_compiled_engine(engine):
    assert engine == "compiled"


def _shadowed(cedar, case, engine):
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    sh = ShadowRecorder()
    try:
        out = Interpreter(cedar, processors=8, shadow=sh,
                          engine=engine).call(case.entry, *args)
    except InterpreterError as exc:
        # a stripped array local is simply undeclared: the run stops
        # there on both engines, with whatever was checked before it
        out = {"error": str(exc)}
    by_loop: dict[str, list] = {}
    for c in sh.conflicts:
        assert c.iterations[0] < c.iterations[1], c
        by_loop.setdefault(c.loop, []).append((c.var, c.kind, c.element))
    return sh.loops_checked, out, by_loop


@pytest.mark.parametrize("stripped", (False, True),
                         ids=("intact", "stripped"))
@pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
@pytest.mark.parametrize("wname", sorted(CASES))
def test_engines_agree_on_race_verdicts(wname, config, stripped):
    case = CASES[wname]
    cedar, _ = cached_restructure(case.source, PIPELINE_CONFIGS[config]())
    if stripped:
        # every privatized scalar and array becomes shared storage
        cedar = copy.deepcopy(cedar)     # the cached program is shared
        for node in cedar.walk():
            if isinstance(node, ParallelDo):
                node.locals_ = []
    loops_t, out_t, races_t = _shadowed(cedar, case, "tree")
    loops_c, out_c, races_c = _shadowed(cedar, case, "compiled")
    assert loops_c == loops_t
    assert set(out_c) == set(out_t)
    for k in out_t:
        assert np.asarray(out_c[k]).tobytes() \
            == np.asarray(out_t[k]).tobytes(), k
    if not stripped:
        assert races_t == {}, "the restructurer's own output is race-free"
    # same cells in the same first-write order — which also pins which
    # 64 a capped loop execution lists
    assert races_c == races_t
