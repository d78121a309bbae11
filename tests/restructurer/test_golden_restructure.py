"""The restructurer's output is a contract, its run time is not.

``golden_restructure.json`` holds SHA-256 digests recorded on the commit
*before* the analysis substrate was reworked (precomputed child slots,
per-nest analysis records): Cedar text and the serialised
``DecisionEvent`` stream of every workload × pipeline configuration and
of 40 generated programs, plus the two ``experiments`` CLI payloads.  A
restructurer change that is meant to be a pure speed-up must leave every
digest alone; one that changes decisions regenerates the file on purpose
(``PYTHONPATH=src python tests/restructurer/test_golden_restructure.py``)
and says so in its PR.

The count guard at the bottom pins *why* the rework is fast — each fact
about a nest is computed once — with call counts, not timings.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.cedar.unparse import unparse_cedar
from repro.engine import cache as cache_mod
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.restructurer.pipeline import Restructurer
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden_restructure.json")
CASES = validation_cases()
FUZZ_SEED, FUZZ_COUNT = 2, 40

CLI_RUNS = {
    "experiments --quick --json": ["--quick", "--json"],
    "experiments --source examples/sample.f --quick --json":
        ["--source", str(REPO / "examples" / "sample.f"), "--quick",
         "--json"],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def restructure_digests(source: str, options) -> dict[str, str]:
    cedar, report = Restructurer(options).run(parse_program(source))
    events = json.dumps([e.to_dict() for e in report.events],
                        sort_keys=True)
    return {"cedar": _sha(unparse_cedar(cedar)), "events": _sha(events)}


def fuzz_programs():
    return [fuzz.generate(FUZZ_SEED + i, "executable")
            for i in range(FUZZ_COUNT)]


def cli_digest(argv: list[str]) -> str:
    from repro.experiments.__main__ import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    # the payload names the file it ingested; the checkout path is not
    # part of the contract
    return _sha(out.getvalue().replace(str(REPO), "<repo>"))


def current() -> dict:
    got = {"restructure": {}, "cli": {}}
    for name, case in sorted(CASES.items()):
        for config, make in sorted(PIPELINE_CONFIGS.items()):
            got["restructure"][f"{name}/{config}"] = restructure_digests(
                case.source, make())
    for p in fuzz_programs():
        got["restructure"][f"fuzz:{p.name}/default"] = restructure_digests(
            p.source, None)
    for label, argv in CLI_RUNS.items():
        got["cli"][label] = cli_digest(argv)
    return got


@pytest.fixture
def fresh_cache(monkeypatch):
    cache = cache_mod.CompilationCache()
    monkeypatch.setattr(cache_mod, "_DEFAULT", cache)
    return cache


class TestGoldenByteIdentity:
    GOLDEN = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
    def test_workload_output_unchanged(self, name, config):
        got = restructure_digests(CASES[name].source,
                                  PIPELINE_CONFIGS[config]())
        assert got == self.GOLDEN["restructure"][f"{name}/{config}"]

    def test_generated_programs_unchanged(self):
        for p in fuzz_programs():
            assert restructure_digests(p.source, None) == \
                self.GOLDEN["restructure"][f"fuzz:{p.name}/default"], p.name

    @pytest.mark.parametrize("label", sorted(CLI_RUNS))
    def test_cli_payload_unchanged(self, label, fresh_cache):
        assert cli_digest(CLI_RUNS[label]) == self.GOLDEN["cli"][label]

    def test_golden_covers_every_cell(self):
        assert len(self.GOLDEN["restructure"]) == \
            len(CASES) * len(PIPELINE_CONFIGS) + FUZZ_COUNT
        assert set(self.GOLDEN["cli"]) == set(CLI_RUNS)


class TestEachFactOnce:
    """Counts, not timings: one sweep of the 22 workloads (Tables 1 and 2:
    both configurations, two machines each) must compute each fact about a
    nest, and each symbol table of an estimated tree, at most once."""

    def test_counts(self, fresh_cache, monkeypatch):
        from repro.analysis import dataflow, nest as nest_mod
        from repro.analysis.depend import graph as graph_mod
        from repro.execmodel.perf import PerfEstimator
        from repro.experiments import ALL_EXPERIMENTS
        from repro.fortran import symtab

        count = dict.fromkeys(
            ("nest_versions", "graphs", "usage_walks", "after_regions",
             "estimators", "table_builds"), 0)
        trees: dict[int, object] = {}   # id -> tree, kept alive

        def counting(owner, name, key, note=lambda *a: None):
            inner = getattr(owner, name)

            def wrapper(*args, **kwargs):
                count[key] += 1
                note(*args)
                return inner(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        # a record's version: its construction, and every invalidation
        # (which re-runs __init__)
        counting(nest_mod.NestRecord, "__init__", "nest_versions")
        counting(dataflow.RegionUsage, "__init__", "usage_walks")
        counting(PerfEstimator, "__init__", "estimators",
                 lambda self, sf, *a: trees.setdefault(id(sf), sf))
        counting(symtab, "resolve_source_file", "table_builds")

        class CountedGraph(graph_mod.DependenceGraph):
            def __init__(self, *args, **kwargs):
                count["graphs"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(graph_mod, "DependenceGraph", CountedGraph)
        regions_after = nest_mod.regions_after

        def counted_regions(stmts, marker):
            regions = regions_after(stmts, marker)
            count["after_regions"] += len(regions or ())
            return regions

        monkeypatch.setattr(nest_mod, "regions_after", counted_regions)

        for name in ("table1", "table2"):
            ALL_EXPERIMENTS[name](quick=True)

        assert count["nest_versions"] > 200 and count["graphs"] > 100
        assert count["graphs"] <= count["nest_versions"]
        # one walk for the nest's own body per version, one per region
        # control may reach after it (liveness); never one per variable
        assert count["usage_walks"] <= (count["nest_versions"]
                                        + count["after_regions"])
        assert count["estimators"] > 2 * len(trees)
        assert count["table_builds"] <= len(trees)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
