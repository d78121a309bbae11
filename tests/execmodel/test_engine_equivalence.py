"""Golden equivalence suite: the compiled engine must be *bit-identical*
to the tree-walking interpreter — same dtypes, same bytes — on every
workload, restructurer configuration, processor count, and
iteration→worker deal.  This is the contract that lets harnesses default
to ``engine="compiled"``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import cached_parse, cached_restructure
from repro.execmodel.interp import Interpreter, cyclic_deal
from repro.execmodel.shadow import ShadowRecorder
from repro.faults.plan import all_scenarios
from repro.faults.sweep import SWEEP_WORKLOADS, _synthetic_cases
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

CASES = validation_cases()

def lossy_deal(n, p):
    """Not a partition: worker 0's first position is never run."""
    shares = [list(s) for s in cyclic_deal(n, p)]
    del shares[0][:1]
    return shares


def duplicating_deal(n, p):
    """Not a partition: the last worker runs position 0 a second time."""
    shares = [list(s) for s in cyclic_deal(n, p)]
    if n:
        shares[-1].append(0)
    return shares


#: the deals the fault sweep interprets under — one scenario per distinct
#: deal of the matrix — plus one whose shares are not even ascending and
#: two that are not partitions, which both engines must run as dealt
_BY_KEY: dict = {}
for _name, _plan in all_scenarios().items():
    _BY_KEY.setdefault(_plan.deal_key, (_name, _plan.deal))
DEALS = dict(_BY_KEY.values(), reversed=lambda n, p: [
    share[::-1] for share in reversed(cyclic_deal(n, p))],
    lossy=lossy_deal, duplicating=duplicating_deal)

#: the non-reference engines, each proven against the tree walk
FAST_ENGINES = ("compiled",)

#: the compiled engine's two text forms, each proven over the whole
#: matrix: "scalar" is the unrecorded run, whose text is scalar text
#: alone; "vector" attaches a ``ShadowRecorder`` to both engines, so each
#: DOALL-headed nest the lowerer proves runs its whole-grid NumPy text
#: and logs in bulk — and the two engines' race verdicts must agree too
LOWERINGS = ("scalar", "vector")


def assert_bit_identical(a: dict, b: dict, ctx: str) -> None:
    assert set(a) == set(b), f"{ctx}: result keys differ"
    for k in a:
        xa, xb = np.asarray(a[k]), np.asarray(b[k])
        assert xa.dtype == xb.dtype, \
            f"{ctx}/{k}: dtype {xa.dtype} != {xb.dtype}"
        assert xa.shape == xb.shape, \
            f"{ctx}/{k}: shape {xa.shape} != {xb.shape}"
        assert xa.tobytes() == xb.tobytes(), \
            f"{ctx}/{k}: values differ bitwise"


def _outputs(program, case, seed: int, processors: int,
             engine: str, deal=None, lowering: str = "scalar") -> dict:
    """The run's outputs; under the "vector" lowering, its race verdicts
    as well (``conflicts``, ``loops_checked``)."""
    args, _ = case.make_args(case.n, np.random.default_rng(seed))
    shadow = ShadowRecorder() if lowering == "vector" else None
    out = Interpreter(program, processors=processors, engine=engine,
                      deal=deal, shadow=shadow).call(case.entry, *args)
    if shadow is not None:
        out["conflicts"] = np.array(repr([
            (c.loop, c.var, c.element, c.kind, c.iterations)
            for c in shadow.conflicts]))
        out["loops_checked"] = np.array(shadow.loops_checked)
    return out


def _outcome(*args, **kwargs) -> dict:
    """:func:`_outputs`, or the error the run dies of (a deal that
    drops an iteration can leave a divisor at zero)."""
    try:
        with np.errstate(all="ignore"):
            return _outputs(*args, **kwargs)
    except ArithmeticError as exc:
        return {"error": np.array(repr(exc))}


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("wname", sorted(CASES))
def test_sequential_originals_identical(wname, lowering):
    case = CASES[wname]
    sf = cached_parse(case.source)
    tree = _outputs(sf, case, seed=3, processors=1, engine="tree",
                    lowering=lowering)
    fast = _outputs(sf, case, seed=3, processors=1, engine="compiled",
                    lowering=lowering)
    assert_bit_identical(tree, fast, f"{wname}@sequential[{lowering}]")


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
@pytest.mark.parametrize("wname", sorted(CASES))
def test_restructured_programs_identical(wname, config, lowering):
    case = CASES[wname]
    cedar, _ = cached_restructure(case.source,
                                  PIPELINE_CONFIGS[config]())
    for processors in (2, 8):
        tree = _outputs(cedar, case, seed=3, processors=processors,
                        engine="tree", lowering=lowering)
        fast = _outputs(cedar, case, seed=3, processors=processors,
                        engine="compiled", lowering=lowering)
        assert_bit_identical(
            tree, fast, f"{wname}@{config}/P={processors}[{lowering}]")


@pytest.mark.parametrize("lowering", LOWERINGS)
@pytest.mark.parametrize("deal", sorted(DEALS))
@pytest.mark.parametrize("wname", SWEEP_WORKLOADS)
def test_identical_under_every_deal(wname, deal, lowering):
    """Who runs which iteration is the interpreter's ``deal``; both
    engines read it, reductions included — and a deal that is not a
    partition is run as dealt, by a vector form's scalar text."""
    case = {**CASES, **_synthetic_cases()}[wname]
    cedar, _ = cached_restructure(case.source)
    tree = _outcome(cedar, case, seed=3, processors=8, engine="tree",
                    deal=DEALS[deal], lowering=lowering)
    fast = _outcome(cedar, case, seed=3, processors=8, engine="compiled",
                    deal=DEALS[deal], lowering=lowering)
    assert_bit_identical(tree, fast, f"{wname}@deal={deal}[{lowering}]")


@pytest.mark.parametrize("wname", sorted(CASES))
def test_scalar_text_counts_the_trees_steps(wname):
    """Unrecorded, with no loop on vector text, the compiled engine
    counts every statement as ``exec_body`` does: the bodies its scalar
    text writes inline and the DOALL shares it runs as worker functions
    alike."""
    case = CASES[wname]
    programs = {"sequential": cached_parse(case.source)}
    for config in sorted(PIPELINE_CONFIGS):
        programs[config], _ = cached_restructure(
            case.source, PIPELINE_CONFIGS[config]())
    for config, program in programs.items():
        for processors in (1, 4, 8):
            steps = {}
            for engine in ("tree", "compiled"):
                args, _ = case.make_args(case.n, np.random.default_rng(3))
                interp = Interpreter(program, processors=processors,
                                     engine=engine)
                interp.call(case.entry, *args)
                steps[engine] = interp._steps
            assert steps["compiled"] == steps["tree"], \
                f"{wname}@{config}/P={processors}"


@pytest.mark.parametrize("wname", sorted(CASES))
def test_vector_text_counts_the_trees_steps(wname):
    """Under a recorder too: a vector form counts each lane's statements
    (a block IF's arm by its true lanes) and a partial-sum DOALL's
    preamble and postamble per share, so the step budget — the livelock
    guard — means the same on both engines."""
    case = CASES[wname]
    for config in sorted(PIPELINE_CONFIGS):
        program, _ = cached_restructure(case.source,
                                        PIPELINE_CONFIGS[config]())
        steps = {}
        for engine in ("tree", "compiled"):
            args, _ = case.make_args(case.n, np.random.default_rng(3))
            interp = Interpreter(program, processors=4, engine=engine,
                                 shadow=ShadowRecorder())
            interp.call(case.entry, *args)
            steps[engine] = interp._steps
        assert steps["compiled"] == steps["tree"], f"{wname}@{config}"


def test_track_multisets_match_baseline():
    """TRACK's outputs are order-sensitive (permutation_ok): every
    engine must produce the *same multiset* as the sequential original,
    and the same bytes as each other."""
    case = CASES["TRACK"]
    assert case.permutation_ok
    sf = cached_parse(case.source)
    cedar, _ = cached_restructure(case.source)
    base = _outputs(sf, case, seed=3, processors=1, engine="tree")
    for engine in ("tree",) + FAST_ENGINES:
        par = _outputs(cedar, case, seed=3, processors=8, engine=engine)
        assert set(par) == set(base)
        for k in base:
            xb, xp = np.asarray(base[k]), np.asarray(par[k])
            if xb.ndim:
                np.testing.assert_allclose(
                    np.sort(xp.ravel()), np.sort(xb.ravel()),
                    rtol=1e-3, atol=1e-4,
                    err_msg=f"TRACK[{engine}]/{k}: multiset diverged")


def test_shadow_recorder_keeps_selected_engine():
    """A recorder rides on whichever engine was selected, and under
    ``compiled`` it no longer turns the lowerer off: ``cg``'s three
    strip-mined DOALLs run as whole grids and log their accesses in
    bulk, with the same number of loops checked as the tree walk."""
    case = CASES["cg"]
    cedar, _ = cached_restructure(case.source)
    checked = {}
    for engine in ("tree",) + FAST_ENGINES:
        interp = Interpreter(cedar, processors=2, shadow=ShadowRecorder(),
                             engine=engine)
        assert interp.engine == engine
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        interp.call(case.entry, *args)
        checked[engine] = interp.shadow.loops_checked
        assert interp.shadow.conflicts == []
    assert interp._compiler.vectorized_loops >= 3
    assert checked["compiled"] == checked["tree"] > 0


def test_unknown_engine_rejected():
    from repro.errors import InterpreterError

    case = CASES["tridag"]
    sf = cached_parse(case.source)
    with pytest.raises(InterpreterError):
        Interpreter(sf, engine="jit")


def test_bare_constructor_runs_the_reference_walk():
    """The literal default is ``tree`` — the side comparisons measure
    against; the harnesses thread their own default explicitly
    (``validate.differential.DEFAULT_ENGINE``), never the environment."""
    from repro.validate.differential import DEFAULT_ENGINE

    sf = cached_parse(CASES["tridag"].source)
    assert Interpreter(sf).engine == "tree"
    assert DEFAULT_ENGINE in FAST_ENGINES


# --- property test: equivalence holds across sampled inputs ----------------

_PROPERTY_WORKLOADS = ("tridag", "cg", "sparse")


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       wname=st.sampled_from(_PROPERTY_WORKLOADS),
       processors=st.sampled_from((1, 2, 5, 8)))
def test_engines_identical_on_sampled_inputs(seed, wname, processors):
    case = CASES[wname]
    cedar, _ = cached_restructure(case.source)
    tree = _outputs(cedar, case, seed=seed, processors=processors,
                    engine="tree")
    for engine in FAST_ENGINES:
        fast = _outputs(cedar, case, seed=seed, processors=processors,
                        engine=engine)
        assert_bit_identical(
            tree, fast, f"{wname}@seed={seed}/P={processors}[{engine}]")
