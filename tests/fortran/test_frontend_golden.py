"""The front end's output is a contract: tokens, trees and diagnostics.

``frontend_golden.json`` holds one SHA-256 per source of everything the
front end says about it:

- the token stream of a recovering lex (kind, value, line, column) and
  the lexer's diagnostics;
- the recovering parse's full diagnostic list, in emission order, and
  the ``repr`` of the tree it returns;
- when that list holds an error, the ``repr`` of the fail-fast parse, or
  the class, code, message, line and column of the error it raises (a
  source the recovering parse finds clean parses fail-fast to the same
  tree: ``test_clean_sources_parse_alike_both_ways``);
- after :func:`build_symbol_table` has resolved every unit, what each
  Apply became (an array reference or a call, intrinsic or not) and the
  table's symbols in declaration order (or the error resolution
  raises).

The sources are the fuzz corpus, the examples, the 22 workloads and the
synthetic loops, ``fuzz.generate`` seeds 1..1000 in both modes, and 500
seeded one-character mutations of generated programs (a card character
deleted or doubled, or one of ``'.(!&`` or a tab inserted), so the
recovery paths are pinned as well as the clean ones.

A front-end change that is meant to be a pure speed-up leaves every
digest alone.  One that changes what the front end says regenerates the
file on purpose and names every entry that moved::

    PYTHONPATH=src python tests/fortran/test_frontend_golden.py --force

Without ``--force`` the script refuses to overwrite an existing file.
"""

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.fortran import ast_nodes as F
from repro.fortran import fuzz
from repro.fortran.diagnostics import DiagnosticSink
from repro.fortran.lexer import Lexer
from repro.fortran.parser import Parser, parse_program
from repro.fortran.symtab import build_symbol_table
from repro.workloads import synthetic, validation_cases

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("frontend_golden.json")
FUZZ_SEEDS = range(1, 1001)
MUTATIONS = 500
_INSERTS = ("'", ".", "(", "!", "&", "\t")


def mutate(k: int) -> str:
    """The ``k``-th seeded one-character mutation of a generated program:
    on a statement card, delete or double one character, or insert one
    of the characters the recovery paths key on."""
    rng = random.Random(k)
    mode = rng.choice(("surface", "executable"))
    lines = fuzz.generate(rng.choice(FUZZ_SEEDS), mode).source \
        .splitlines(keepends=True)
    cards = [i for i, ln in enumerate(lines)
             if ln.strip() and ln[0] not in "cC*!"]
    at = rng.choice(cards)
    card = lines[at].rstrip("\n")
    pos = rng.randrange(len(card))
    op = rng.choice(("delete", "double") + _INSERTS)
    if op == "delete":
        card = card[:pos] + card[pos + 1:]
    elif op == "double":
        card = card[:pos] + card[pos] + card[pos:]
    else:
        card = card[:pos] + op + card[pos:]
    lines[at] = card + "\n"
    return "".join(lines)


def sources() -> dict[str, str]:
    out: dict[str, str] = {}
    for path in sorted((REPO / "tests" / "fortran" / "corpus").glob("*.f")):
        out[f"corpus/{path.name}"] = path.read_text()
    for path in sorted((REPO / "examples").glob("*.f")):
        out[f"examples/{path.name}"] = path.read_text()
    for name, case in sorted(validation_cases().items()):
        out[f"workload/{name}"] = case.source
    for name, src in sorted(synthetic.ALL_SOURCES.items()):
        out[f"synthetic/{name}"] = src
    for mode in ("surface", "executable"):
        for seed in FUZZ_SEEDS:
            out[f"fuzz/{mode}/{seed}"] = fuzz.generate(seed, mode).source
    for k in range(MUTATIONS):
        out[f"mutation/{k}"] = mutate(k)
    return out


def _error(exc: ReproError) -> str:
    return (f"{type(exc).__name__} {getattr(exc, 'code', None)} "
            f"{getattr(exc, 'raw_message', str(exc))!r} "
            f"{getattr(exc, 'line', None)} {getattr(exc, 'col', None)}")


def describe(source: str) -> str:
    """Everything the front end says about ``source``, as one text."""
    sink = DiagnosticSink(source)
    toks = Lexer(source, sink).tokens()
    parts = [repr([(t.kind.name, t.value, t.line, t.col) for t in toks])]
    # the recovering parse, of the tokens just pinned (``parse_program``
    # with a sink lexes into it first, then parses, exactly so)
    parser = Parser("", sink)
    parser._stmts = Parser._split_statements(toks)
    tree = parser.parse()
    parts.append(repr([d.to_dict() for d in sink.diagnostics]))
    parts.append(repr(tree))
    if sink.errors:
        try:
            parts.append(repr(parse_program(source)))
        except ReproError as exc:
            parts.append(_error(exc))
    for unit in tree.units:
        try:
            table = build_symbol_table(unit)
        except ReproError as exc:
            parts.append(_error(exc))
            continue
        parts.append(repr([(type(n).__name__, n.name,
                            getattr(n, "intrinsic", None))
                           for n in unit.walk()
                           if isinstance(n, (F.ArrayRef, F.FuncCall))]))
        parts.append(repr(list(table.symbols.values())))
    return "\n".join(parts)


def digest(source: str) -> str:
    return hashlib.sha256(describe(source).encode()).hexdigest()


def current() -> dict[str, str]:
    return {name: digest(src) for name, src in sources().items()}


GOLDEN_DIGESTS = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
SOURCES = sources()


def test_golden_covers_every_source():
    assert set(GOLDEN_DIGESTS) == set(SOURCES)
    assert len(SOURCES) == 50 + 2 + 22 + len(synthetic.ALL_SOURCES) \
        + 2 * len(FUZZ_SEEDS) + MUTATIONS


def test_mutations_reach_the_recovery_paths():
    """The mutants are only an oracle for recovery if they make errors."""
    codes = set()
    for k in range(0, MUTATIONS, 5):
        sink = DiagnosticSink()
        parse_program(SOURCES[f"mutation/{k}"], sink)
        codes |= {d.code for d in sink.diagnostics}
    assert {"F001", "F002", "F005", "F101"} <= codes


def test_clean_sources_parse_alike_both_ways():
    for name, src in SOURCES.items():
        if name.split("/")[0] in ("corpus", "examples", "workload",
                                  "synthetic") \
                or name.startswith("fuzz/") and int(name.split("/")[2]) <= 50:
            sink = DiagnosticSink(src)
            tree = parse_program(src, sink)
            if not sink.errors:
                assert repr(parse_program(src)) == repr(tree), name


@pytest.mark.parametrize("group", ["corpus", "examples", "workload",
                                   "synthetic", "fuzz/surface",
                                   "fuzz/executable", "mutation"])
def test_front_end_output_unchanged(group):
    moved = [name for name, src in SOURCES.items()
             if name.startswith(group + "/")
             and digest(src) != GOLDEN_DIGESTS[name]]
    assert not moved, f"{len(moved)} entries moved, first {moved[:5]}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--force", action="store_true",
                    help="overwrite an existing golden file")
    ns = ap.parse_args(argv)
    got = current()
    if GOLDEN.exists():
        moved = sorted(n for n in got if GOLDEN_DIGESTS.get(n) != got[n])
        print(f"{len(moved)} of {len(got)} entries differ")
        for name in moved:
            print(f"  moved: {name}")
        if not ns.force:
            print(f"refusing to overwrite {GOLDEN.name} without --force")
            return 1
    GOLDEN.write_text(json.dumps(got, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(got)} digests to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
