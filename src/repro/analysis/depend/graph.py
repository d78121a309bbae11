"""Loop dependence graph construction.

For a loop nest, every pair of references to the same variable where at
least one is a write becomes a candidate dependence; the tester prunes
impossible direction vectors.  Edges are classified:

- *flow* (true): write → later read
- *anti*: read → later write
- *output*: write → write

Direction vectors are expressed over the loops enclosing **both** endpoints
(their common nest).  Scalar references have no subscripts: any write-write
or write-read pair of a scalar yields dependences at every level unless a
later pass (induction/reduction/privatization) explains the scalar away —
the graph records them; the parallelization planner filters them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from repro.analysis.depend.tests import (
    DependenceTester,
    SubscriptPair,
    TestResult,
)
from repro.analysis.expr import LinearExpr, const_value, linearize
from repro.analysis.refs import LoopInfo, Ref, RefCollector
from repro.fortran import ast_nodes as F


@dataclass
class Dependence:
    """One dependence edge between two references."""

    kind: str                      # 'flow' | 'anti' | 'output'
    source: Ref
    sink: Ref
    result: TestResult
    variable: str = ""

    def __post_init__(self):
        if not self.variable:
            self.variable = self.source.name

    @property
    def directions(self) -> set[tuple[str, ...]]:
        return self.result.directions

    @property
    def distance(self) -> Optional[tuple[int, ...]]:
        return self.result.distance

    def carried_by(self, depth: int) -> bool:
        return self.result.carried_by(depth)

    def loop_independent(self) -> bool:
        return self.result.loop_independent()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dirs = ",".join("".join(d) for d in sorted(self.directions))
        return f"<{self.kind} dep on {self.variable} [{dirs}]>"


@dataclass
class DependenceGraph:
    """All dependences of one loop nest."""

    loop: F.DoLoop
    nest: tuple[LoopInfo, ...]
    deps: list[Dependence] = field(default_factory=list)
    refs: list[Ref] = field(default_factory=list)
    exact: bool = True  # False if any conservative edge was added

    def carried_at(self, depth: int) -> list[Dependence]:
        """Dependences carried by the loop at ``depth`` in the nest."""
        return [d for d in self.deps if d.carried_by(depth)]

    def variables_with_carried(self, depth: int) -> set[str]:
        return {d.variable for d in self.carried_at(depth)}

    def is_parallel(self, depth: int = 0,
                    ignore: Iterable[str] = ()) -> bool:
        """True if the loop at ``depth`` carries no dependences.

        ``ignore`` names variables already explained (privatized scalars,
        recognized reductions, substituted induction variables).
        """
        ig = set(ignore)
        return not any(d for d in self.carried_at(depth)
                       if d.variable not in ig)


def _common_nest(a: Ref, b: Ref) -> tuple[LoopInfo, ...]:
    """Longest shared prefix of the two references' enclosing loops."""
    out = []
    for la, lb in zip(a.loops, b.loops):
        if la.loop is lb.loop:
            out.append(la)
        else:
            break
    return tuple(out)


def build_dependence_graph(loop: F.DoLoop,
                           params: Mapping[str, int] | None = None,
                           effects=None,
                           refs: list[Ref] | None = None) -> DependenceGraph:
    """Build the dependence graph of ``loop`` (the outermost of the nest).

    ``params`` maps PARAMETER names to integer values.  ``effects`` is an
    optional interprocedural MOD/REF oracle for CALL statements.  A
    caller that already holds the nest's reference inventory (collected
    with that oracle, under ``LoopInfo.of(loop)``) passes it as ``refs``.
    """
    if refs is None:
        refs = RefCollector(effects).collect(loop.body, (LoopInfo.of(loop),))
    graph = DependenceGraph(loop=loop, nest=(LoopInfo.of(loop),), refs=refs)

    # group references by variable
    by_name: dict[str, list[tuple[int, Ref]]] = {}
    for pos, r in enumerate(refs):
        by_name.setdefault(r.name, []).append((pos, r))

    loop_vars = {li.var for r in refs for li in r.loops}
    facts = _BuildFacts(params)

    for name, items in by_name.items():
        if name in loop_vars and all(r.is_scalar for _, r in items):
            continue  # loop index variables are handled by loop semantics
        writes = [(p, r) for p, r in items if r.is_write]
        if not writes:
            continue
        seen_ww: set[tuple[int, int]] = set()
        for pw, w in writes:
            for po, o in items:
                if o is w:
                    # self output dependence: the same write may hit the
                    # same cell in a *different* iteration
                    for dep in _self_dependence(w, facts):
                        if not dep.result.exact:
                            graph.exact = False
                        graph.deps.append(dep)
                    continue
                if o.is_write:
                    key = (min(pw, po), max(pw, po))
                    if key in seen_ww:
                        continue
                    seen_ww.add(key)
                for dep in _pair_dependences(w, pw, o, po, facts):
                    if not dep.result.exact:
                        graph.exact = False
                    graph.deps.append(dep)
    return graph


def _first_noneq(dv: tuple[str, ...]) -> str:
    for d in dv:
        if d != "=":
            return d
    return "="


def _flip(dv: tuple[str, ...]) -> tuple[str, ...]:
    return tuple("<" if d == ">" else (">" if d == "<" else "=") for d in dv)


class _BuildFacts:
    """What one :func:`build_dependence_graph` call derives, each once.

    Per reference, the affine form and the subscript range of each
    dimension; per distinct common nest, one :class:`DependenceTester`;
    per (common nest, source forms, sink forms), one :class:`TestResult`.
    Each is a function of its key and ``params``, which the call holds
    fixed, so a looked-up fact equals a recomputed one.  The table lives
    only as long as the call, and the references and loop records its
    ``id()`` keys name stay alive for all of it.  Shared results are
    read-only: edges build their own ``TestResult``.
    """

    def __init__(self, params: Mapping[str, int] | None):
        self.params = params
        self._forms: dict[int, tuple[Optional[LinearExpr], ...]] = {}
        self._ranges: dict[tuple[int, int], Optional[tuple]] = {}
        self._testers: dict[tuple[int, ...], DependenceTester] = {}
        self._results: dict[tuple, TestResult] = {}

    def forms(self, ref: Ref) -> tuple[Optional[LinearExpr], ...]:
        """Affine form of each subscript of ``ref`` (None: non-affine)."""
        got = self._forms.get(id(ref))
        if got is None:
            got = self._forms[id(ref)] = tuple(
                linearize(e, self.params) for e in ref.subscripts)
        return got

    def subscript_range(self, ref: Ref, dim: int):
        key = (id(ref), dim)
        if key not in self._ranges:
            self._ranges[key] = _subscript_range(
                self.forms(ref)[dim], ref.loops, self.params)
        return self._ranges[key]

    def test(self, nest: tuple[LoopInfo, ...], src: Ref,
             sink: Ref) -> TestResult:
        """``DependenceTester(nest, params).test_refs`` on the two
        references' subscripts — its ``conservative()`` answer for a
        scalar or call-induced reference — computed once per build."""
        system = None  # not an affine system: conservative
        if not (src.is_scalar or sink.is_scalar
                or src.in_call or sink.in_call):
            fs, fk = self.forms(src), self.forms(sink)
            if len(fs) == len(fk) and None not in fs and None not in fk:
                system = (fs, fk)
        nest_key = tuple(map(id, nest))
        key = (nest_key, system)
        got = self._results.get(key)
        if got is None:
            tester = self._testers.get(nest_key)
            if tester is None:
                tester = self._testers[nest_key] = DependenceTester(
                    nest, self.params)
            got = self._results[key] = (
                tester.conservative() if system is None else
                tester.test_subscripts(
                    [SubscriptPair(a, b) for a, b in zip(*system)]))
        return got


def _self_dependence(w: Ref, facts: _BuildFacts) -> list[Dependence]:
    """Output dependence of a write against itself across iterations."""
    if not w.loops:
        return []
    result = facts.test(w.loops, w, w)
    fwd = {dv for dv in result.directions if _first_noneq(dv) == "<"}
    if not fwd:
        return []
    res = TestResult(fwd, None, result.exact)
    return [Dependence(kind="output", source=w, sink=w, result=res)]


def _subscript_range(le: Optional[LinearExpr],
                     loops: tuple[LoopInfo, ...], params):
    """Symbolic (min, max) of one subscript over all enclosing loops.

    Only affine subscripts whose loop-index coefficients are ±1 with
    affine loop bounds qualify; the residue (loop-invariant symbols like
    the outer pivot index) stays symbolic in both endpoints, so pure
    differences cancel it.
    """
    if le is None:
        return None
    by_var = {li.var: li for li in loops}
    lo_acc = LinearExpr.constant(le.const)
    hi_acc = LinearExpr.constant(le.const)
    for name, c in le.coeffs:
        li = by_var.get(name)
        if li is None:
            lo_acc = lo_acc + LinearExpr.variable(name, c)
            hi_acc = hi_acc + LinearExpr.variable(name, c)
            continue
        if abs(c) != 1:
            return None
        start = linearize(li.start, params)
        end = linearize(li.end, params)
        if start is None or end is None:
            return None
        step = 1 if li.step is None else const_value(li.step)
        if step is None or step == 0:
            return None
        if step < 0:
            start, end = end, start
        if c > 0:
            lo_acc = lo_acc + start
            hi_acc = hi_acc + end
        else:
            lo_acc = lo_acc - end
            hi_acc = hi_acc - start
    return lo_acc, hi_acc


def _ranges_disjoint(a: Ref, b: Ref, facts: _BuildFacts) -> bool:
    """True when some dimension's address sets provably never overlap —
    e.g. the LU row update writing columns [k, n] while reading [1, k-1]."""
    if not a.subscripts or len(a.subscripts) != len(b.subscripts):
        return False
    for d in range(len(a.subscripts)):
        ra = facts.subscript_range(a, d)
        rb = facts.subscript_range(b, d)
        if ra is None or rb is None:
            continue
        gap1 = ra[0] - rb[1]  # a above b
        gap2 = rb[0] - ra[1]  # b above a
        if (gap1.is_constant and gap1.const > 0) \
                or (gap2.is_constant and gap2.const > 0):
            return True
    return False


def _pair_dependences(w: Ref, pw: int, o: Ref, po: int,
                      facts: _BuildFacts) -> list[Dependence]:
    """Dependence edges between a write ``w`` and another reference ``o``.

    The tester is run with ``w`` as source; surviving direction vectors
    whose leading non-'=' is '<' (or all-'=' with ``w`` textually first)
    give an edge with ``w`` as source, the rest give the reversed edge.
    """
    if w.is_scalar or o.is_scalar or w.in_call or o.in_call:
        # scalars: one cell → dependence possible at all levels;
        # call-induced refs: unknown section → conservative
        if w.is_scalar != o.is_scalar:
            return []  # scalar vs array of the same name: distinct symbols
    elif _ranges_disjoint(w, o, facts):
        return []
    result = facts.test(_common_nest(w, o), w, o)
    if result.independent:
        return []

    fwd: set[tuple[str, ...]] = set()
    rev: set[tuple[str, ...]] = set()
    for dv in result.directions:
        lead = _first_noneq(dv)
        if lead == "<":
            fwd.add(dv)
        elif lead == ">":
            rev.add(_flip(dv))
        else:  # loop-independent: textual order decides the source
            if pw < po:
                fwd.add(dv)
            elif po < pw:
                rev.add(dv)
            # pw == po (same statement, e.g. a(i) = a(i)+1): the RHS read
            # executes before the LHS write within one iteration
            elif not o.is_write:
                rev.add(dv)

    out: list[Dependence] = []
    if fwd:
        kind = "output" if o.is_write else "flow"
        res = TestResult(fwd, result.distance, result.exact)
        out.append(Dependence(kind=kind, source=w, sink=o, result=res))
    if rev:
        kind = "output" if o.is_write else "anti"
        dist = tuple(-d for d in result.distance) if result.distance else None
        res = TestResult(rev, dist, result.exact)
        out.append(Dependence(kind=kind, source=o, sink=w, result=res))
    return out
