"""A nest's analysis record must never answer for a loop it no longer
describes.

:class:`repro.analysis.nest.NestRecord` computes each fact about a loop
once and keeps it until a transformation that rewrote the loop in place
invalidates the record.  Two properties, both checked on everything the
restructurer plans — the 22 workloads under both pipeline configurations
and 40 generated programs:

* **from-scratch equivalence** — at every moment the planner consults a
  record, the record-backed answer (privatizable set, reductions,
  induction variables, carried-dependence variables) equals the answer of
  a fresh record over the same loop *at that moment*;
* **the check can see staleness** — with ``invalidate`` disabled, the
  same comparison must fail wherever induction substitution rewrote a
  body; so a missed invalidation cannot hide behind a comparison that
  was never able to tell.
"""

import pytest

from repro.analysis.induction import find_induction_variables
from repro.analysis.nest import NestRecord
from repro.analysis.privatization import find_privatizable
from repro.analysis.reductions import find_reductions
from repro.fortran import ast_nodes as F
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer import planner as planner_mod
from repro.restructurer.fusion import fuse
from repro.restructurer.induction_sub import substitute_inductions
from repro.restructurer.names import NamePool
from repro.restructurer.pipeline import Restructurer
from repro.restructurer.rename import rename_in_stmts
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

CASES = validation_cases()
FUZZ_SEED, FUZZ_COUNT = 11, 40


def fresh(nest: NestRecord) -> NestRecord:
    return NestRecord(nest.loop, nest.unit, nest.symtab, nest.params,
                      nest.effects)


def answers(nest: NestRecord, arrays: bool = True) -> dict:
    """The four record-backed answers, in comparable form."""
    return {
        "privatizable": [
            (p.name, p.is_array, p.needs_last_value)
            for p in find_privatizable(nest, params=nest.params,
                                       arrays=arrays)],
        "reductions": [(r.var, r.op, r.kind, [id(s) for s in r.stmts])
                       for r in find_reductions(nest)],
        "inductions": [(iv.name, iv.kind, id(iv.update),
                        iv.strictly_monotonic)
                       for iv in find_induction_variables(nest, nest.params)],
        "carried": sorted(nest.graph.variables_with_carried(0)),
        "deps": sorted((d.kind, d.variable, sorted(d.directions))
                       for d in nest.graph.deps),
    }


class Audit:
    """Wraps the analysis entry points the planner calls: every call made
    with a record is repeated on a fresh record and compared."""

    def __init__(self, monkeypatch):
        self.checks = 0
        self.mismatches: list[str] = []
        for name in ("find_privatizable", "find_reductions",
                     "find_induction_variables"):
            monkeypatch.setattr(planner_mod, name,
                                self._checked(getattr(planner_mod, name)))
        versions = planner_mod.LoopPlanner._versions

        def checked_versions(planner, nest, *args):
            # step 6 of plan(): every analysis of the nest has run
            self._compare(nest, "plan", answers(nest), answers(fresh(nest)))
            return versions(planner, nest, *args)

        monkeypatch.setattr(planner_mod.LoopPlanner, "_versions",
                            checked_versions)

    def _checked(self, fn):
        def wrapper(nest, *args, **kwargs):
            got = fn(nest, *args, **kwargs)
            if isinstance(nest, NestRecord):
                want = fn(fresh(nest), *args, **kwargs)
                self._compare(nest, fn.__name__, _plain(got), _plain(want))
            return got
        return wrapper

    def _compare(self, nest, what, got, want):
        self.checks += 1
        if got != want:
            self.mismatches.append(
                f"do {nest.loop.var} @ line {nest.loop.line}: {what}")


def _plain(results) -> list:
    return [tuple(sorted((k, v if isinstance(v, (str, bool, type(None)))
                          else id(v) if isinstance(v, F.Node) else repr(v))
                         for k, v in vars(r).items()
                         if k not in ("stmts", "step", "closed_form")))
            for r in results]


def _programs():
    for name, case in sorted(CASES.items()):
        for config, make in sorted(PIPELINE_CONFIGS.items()):
            yield f"{name}/{config}", case.source, make
    for i in range(FUZZ_COUNT):
        prog = fuzz.generate(FUZZ_SEED + i, "executable")
        yield prog.name, prog.source, lambda: None


PROGRAMS = {label: (source, make) for label, source, make in _programs()}


@pytest.mark.parametrize("label", sorted(PROGRAMS))
def test_record_answers_equal_from_scratch_analysis(label, monkeypatch):
    source, make = PROGRAMS[label]
    audit = Audit(monkeypatch)
    Restructurer(make()).run(parse_program(source))
    assert audit.checks > 0
    assert audit.mismatches == []


@pytest.mark.parametrize("config", sorted(PIPELINE_CONFIGS))
def test_a_missed_invalidation_is_visible(config, monkeypatch):
    """Negative control: the audit above must fail when the one in-place
    rewriter forgets to invalidate.  TRFD's packed-triangle subscripts
    ``xij(k)`` go through a substituted induction variable, so a stale
    reference inventory changes the dependence graph.  (Without a MOD/REF
    oracle: with one, the graph's references are collected separately,
    after the substitution, and the stale inventory happens to give the
    scalar analyses the same answers.)"""
    options = PIPELINE_CONFIGS[config]()
    options.interprocedural = False
    audit = Audit(monkeypatch)
    monkeypatch.setattr(NestRecord, "invalidate", lambda self: None)
    Restructurer(options).run(parse_program(CASES["TRFD"].source))
    assert audit.mismatches, "a stale record went unnoticed"


GIV = """
      subroutine giv(n, a, b)
      integer n, i, k
      real a(2*n), b(n), t
      k = 0
      do 10 i = 1, n
         k = k + 2
         t = b(i) * 2.0
         a(k) = t + 1.0
   10 continue
      do 20 i = 1, n
         b(i) = a(i) + t
   20 continue
      end
"""


def _giv():
    sf = parse_program(GIV)
    unit = sf.units[0]
    symtab = build_symbol_table(unit)
    loops = [s for s in unit.body if isinstance(s, F.DoLoop)]
    nest = NestRecord(loops[0], unit, symtab)
    return unit, loops, nest


class TestStaleness:
    """Populate a record, rewrite the body behind its back, and the
    from-scratch comparison must notice; rewrite it through the record
    (or build a new loop) and it must not."""

    def test_substitution_through_the_record_invalidates_it(self):
        unit, _, nest = _giv()
        before = answers(nest)
        ivs = find_induction_variables(nest)
        assert [iv.name for iv in ivs] == ["k"]
        out = substitute_inductions(nest, ivs, NamePool(unit))
        assert out.substituted == ["k"]
        assert answers(nest) == answers(fresh(nest)) != before
        assert answers(nest)["inductions"] == []

    def test_substitution_behind_the_record_goes_stale(self):
        unit, _, nest = _giv()
        before = answers(nest)
        ivs = find_induction_variables(nest)
        substitute_inductions(nest.loop, ivs, NamePool(unit))  # raw loop
        stale = answers(nest)
        assert stale["carried"] == before["carried"]  # still sees ``k``
        assert stale != answers(fresh(nest))
        nest.invalidate()
        assert answers(nest) == answers(fresh(nest))

    def test_renaming_behind_the_record_goes_stale(self):
        _, _, nest = _giv()
        answers(nest)
        rename_in_stmts(nest.loop.body, {"t": "k"})     # scalar expansion's
        assert answers(nest) != answers(fresh(nest))    # kind of rewrite

    def test_fusion_builds_a_new_loop_and_leaves_the_record_valid(self):
        _, loops, nest = _giv()
        before = answers(nest)
        merged = NestRecord(fuse(loops[0], loops[1]))
        assert answers(nest) == before == answers(fresh(nest))
        assert answers(merged) == answers(fresh(merged)) != before

    def test_invalidate_keeps_the_context(self):
        unit, _, nest = _giv()
        nest.graph, nest.usage, nest.stmts
        nest.invalidate()
        assert set(vars(nest)) == {"loop", "unit", "symtab", "params",
                                   "effects"}
        assert nest.unit is unit and nest.live_after("t")
        assert not nest.live_after("k")
