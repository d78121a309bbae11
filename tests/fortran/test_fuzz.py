"""Tests for the seeded F77 fuzzer and its oracles.

The committed corpus under ``tests/fortran/corpus/`` pins the generator:
every file must round-trip (parse → unparse → re-parse to an identical
AST), and regenerating with the committed seed must reproduce the corpus
byte-for-byte — the generator draws randomness only from
``random.Random(seed)``, never from the wall clock.
"""

import pathlib

import pytest

from repro.fortran.fuzz import (FuzzProgram, differential_check, generate,
                                make_case, round_trip_check)

CORPUS = pathlib.Path(__file__).parent / "corpus"
CORPUS_SEED = 1000
CORPUS_COUNT = 50


def corpus_files():
    return sorted(CORPUS.glob("*.f"))


def test_corpus_is_complete():
    assert len(corpus_files()) == CORPUS_COUNT


@pytest.mark.parametrize("path", corpus_files(),
                         ids=lambda p: p.name)
def test_corpus_round_trips(path):
    failure = round_trip_check(path.read_text())
    assert failure is None, f"{path.name}: {failure}"


def test_corpus_regenerates_byte_for_byte():
    """Determinism: the committed corpus is exactly what the committed
    seed produces (mixed mode: every fifth program is executable)."""
    for k in range(CORPUS_COUNT):
        seed = CORPUS_SEED + k
        mode = "executable" if k % 5 == 4 else "surface"
        prog = generate(seed, mode)
        path = CORPUS / f"{prog.name}.f"
        assert path.exists(), f"corpus missing {prog.name}.f"
        assert path.read_text() == prog.source, \
            f"{path.name} drifted from generator output"


def test_generate_is_deterministic():
    a = generate(42, "surface")
    b = generate(42, "surface")
    assert a.source == b.source and a.name == b.name
    assert generate(43, "surface").source != a.source


def test_fresh_seeds_round_trip():
    """Oracle smoke beyond the committed corpus (CI runs 200)."""
    for seed in range(2000, 2040):
        prog = generate(seed, "surface")
        failure = round_trip_check(prog.source)
        assert failure is None, f"seed {seed}: {failure}"


def test_executable_programs_round_trip():
    for seed in range(300, 305):
        prog = generate(seed, "executable")
        assert prog.entry == prog.name
        failure = round_trip_check(prog.source)
        assert failure is None, f"seed {seed}: {failure}"


def test_round_trip_check_flags_breakage():
    # a source that cannot re-parse must produce a failure string
    assert round_trip_check("      program p\n      x = ((1\n") is not None


@pytest.mark.parametrize("mode", ["surface", "executable"])
def test_a_negative_seed_is_refused(mode):
    """The seed names the unit (``fzx0004``); ``-4`` would make it
    ``fzx-004``, not a Fortran name."""
    with pytest.raises(ValueError, match="non-negative"):
        generate(-4, mode)


def test_make_case_shape():
    import numpy as np
    prog = generate(301, "executable")
    case = make_case(prog, n=8)
    assert case.entry == prog.entry
    assert case.suite == "fuzz" and case.bindings(8) == {"n": 8}
    args, _ = case.make_args(8, np.random.default_rng(0))
    n, a, b, c = args
    assert n == 8 and a.shape == (8,) and b.shape == (8,) \
        and c.shape == (8,)


def test_differential_oracle():
    """Executable fuzz programs agree between the reference interpreter
    and the restructured pipeline (repro.validate differential run)."""
    for seed in (301, 307):
        prog = generate(seed, "executable")
        failure = differential_check(prog, n=16)
        assert failure is None, f"seed {seed}: {failure}"


def test_fuzz_program_is_frozen():
    prog = generate(1, "surface")
    assert isinstance(prog, FuzzProgram)
    with pytest.raises(Exception):
        prog.seed = 2
