"""Dependence-test and dependence-graph tests.

Includes a brute-force consistency property: on small concrete iteration
spaces, enumerate all iteration pairs, compute actual subscript collisions,
and check the symbolic tester never misses a real dependence (soundness)
and is exact on the affine cases it claims to decide.
"""

import itertools
import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import nest as nest_mod
from repro.analysis.depend import (
    DependenceTester,
    SubscriptPair,
    build_dependence_graph,
)
from repro.analysis.depend import graph as graph_mod
from repro.analysis.depend.banerjee import LoopBounds, banerjee_test
from repro.analysis.depend.gcd import gcd_test
from repro.analysis.expr import LinearExpr, linearize
from repro.analysis.refs import LoopInfo, RefCollector
from repro.fortran import ast_nodes as F
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.fortran.symtab import build_symbol_table
from repro.restructurer.pipeline import Restructurer
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases


def L(c=0, **coeffs):
    e = LinearExpr.constant(c)
    for n, k in coeffs.items():
        e = e + LinearExpr.variable(n, k)
    return e


def nest1(lo=1, hi=100, var="i"):
    return [LoopInfo(var, F.IntLit(lo), F.IntLit(hi), None)]


def lit(v: int) -> F.Expr:
    """An integer literal as the parser writes it (``-1`` is a negation)."""
    return F.UnOp("-", F.IntLit(-v)) if v < 0 else F.IntLit(v)


class TestGCD:
    def test_no_solution(self):
        # 2i vs 2i'+1: gcd 2 does not divide 1
        assert not gcd_test(L(0, i=2), L(1, i=2), ["i"])

    def test_solution_exists(self):
        assert gcd_test(L(0, i=2), L(2, i=2), ["i"])
        assert gcd_test(L(0, i=3), L(1, i=2), ["i"])

    def test_ziv(self):
        assert gcd_test(L(5), L(5), ["i"])
        assert not gcd_test(L(5), L(6), ["i"])

    def test_symbolic_invariant_cancels(self):
        # a(i+n) vs a(i+n+1): constants differ by 1, coeff gcd 1 → possible
        assert gcd_test(L(0, i=1, n=1), L(1, i=1, n=1), ["i"])
        # mismatched symbolic parts → conservative True
        assert gcd_test(L(0, i=1, n=1), L(0, i=1, m=1), ["i"])


class TestBanerjee:
    def bounds(self, lo=1, hi=100):
        return [LoopBounds("i", lo, hi)]

    def test_equal_direction_independent(self):
        # a(i) vs a(i+1) with '=': difference is -1, never 0
        assert not banerjee_test(L(0, i=1), L(1, i=1), self.bounds(), "=")

    def test_lt_direction_dependent(self):
        # a(i+1) read after write a(i): i' = i+1 carries '<'
        assert banerjee_test(L(1, i=1), L(0, i=1), self.bounds(), "<")

    def test_gt_direction_for_negative_distance(self):
        assert banerjee_test(L(0, i=1), L(1, i=1), self.bounds(), ">")
        assert not banerjee_test(L(1, i=1), L(0, i=1), self.bounds(), ">")

    def test_out_of_range_offset(self):
        # a(i) vs a(i+200) in 100-trip loop: no direction possible
        for d in "<=>":
            assert not banerjee_test(L(0, i=1), L(200, i=1),
                                     self.bounds(), d)

    def test_unknown_bounds_conservative(self):
        bounds = [LoopBounds("i")]  # ± inf
        # src i, sink i'+1: collision needs i = i'+1, i.e. i > i' ('>')
        assert banerjee_test(L(0, i=1), L(1, i=1), bounds, ">")
        assert not banerjee_test(L(0, i=1), L(1, i=1), bounds, "<")
        # with an unknown-coefficient mix, '<' stays possible
        assert banerjee_test(L(0, i=1), L(0, i=2), bounds, "<")

    def test_single_trip_lt_empty(self):
        assert not banerjee_test(L(0, i=1), L(0, i=1),
                                 [LoopBounds("i", 1, 1)], "<")

    def test_zero_coefficient_over_an_unknown_bound(self):
        # a(2i) vs a(i'+3) in ``do i = m, 5``: at i = 3 both are a(6).
        # The '=' term is i - 3 over (-inf, 5]: its max is 2, not 0*inf
        bounds = [LoopBounds("i", hi=5)]
        assert banerjee_test(L(0, i=2), L(3, i=1), bounds, "=")
        assert banerjee_test(L(0, i=2), L(3, i=1), bounds, "*")
        assert not banerjee_test(L(0, i=2), L(11, i=1), bounds, "=")


class TestDependenceTester:
    def test_independent_distinct_constants(self):
        t = DependenceTester(nest1())
        r = t.test_subscripts([SubscriptPair(L(1), L(2))])
        assert r.independent

    def test_same_element_every_iteration(self):
        t = DependenceTester(nest1())
        r = t.test_subscripts([SubscriptPair(L(5), L(5))])
        assert not r.independent

    def test_distance_vector(self):
        t = DependenceTester(nest1())
        # src a(i), sink a(i-1): i' - i = 1 → distance +1, carried '<'
        r = t.test_subscripts([SubscriptPair(L(0, i=1), L(-1, i=1))])
        assert r.distance == (1,)
        assert r.directions == {("<",)}
        assert r.carried_by(0)

    def test_loop_independent_only(self):
        t = DependenceTester(nest1())
        r = t.test_subscripts([SubscriptPair(L(0, i=1), L(0, i=1))])
        assert r.distance == (0,)
        assert r.loop_independent()
        assert not r.carried_by(0)

    def test_stride_2_interleave(self):
        t = DependenceTester(nest1())
        # a(2i) vs a(2i+1): disjoint even/odd elements
        r = t.test_subscripts([SubscriptPair(L(0, i=2), L(1, i=2))])
        assert r.independent

    def test_2d_nest_exact_distance(self):
        nest = [LoopInfo("i", F.IntLit(1), F.IntLit(10), None),
                LoopInfo("j", F.IntLit(1), F.IntLit(10), None)]
        t = DependenceTester(nest)
        # a(i, j) vs a(i-1, j+1): distance (1, -1)
        r = t.test_subscripts([
            SubscriptPair(L(0, i=1), L(-1, i=1)),
            SubscriptPair(L(0, j=1), L(1, j=1)),
        ])
        assert r.distance == (1, -1)
        assert r.carried_by(0)
        assert not r.carried_by(1)

    def test_distance_exceeding_trips(self):
        t = DependenceTester(nest1(1, 5))
        r = t.test_subscripts([SubscriptPair(L(0, i=1), L(-100, i=1))])
        assert r.independent

    def test_symbolic_bound_conservative(self):
        nest = [LoopInfo("i", F.IntLit(1), F.Var("n"), None)]
        t = DependenceTester(nest)
        r = t.test_subscripts([SubscriptPair(L(0, i=1), L(-1, i=1))])
        assert not r.independent
        assert r.carried_by(0)

    def test_nonaffine_conservative(self):
        t = DependenceTester(nest1())
        r = t.test_refs([F.BinOp("*", F.Var("i"), F.Var("i"))],
                        [F.Var("i")])
        assert not r.independent and not r.exact

    def test_negative_step_reads_in_execution_order(self):
        # do i = 1000, 1, -1: a(i) written, a(i+1) read one iteration
        # later — a flow dependence at distance +1, not independence
        t = DependenceTester([LoopInfo("i", lit(1000), lit(1), lit(-1))])
        r = t.test_subscripts([SubscriptPair(L(0, i=1), L(1, i=1))])
        assert r.directions == {("<",)} and r.distance == (1,)
        r = t.test_refs([F.Var("i")],
                        [F.BinOp("+", F.Var("i"), F.IntLit(1))])
        assert r.directions == {("<",)} and r.distance == (1,)

    def test_unknown_step_leaves_the_order_open(self):
        t = DependenceTester([LoopInfo("i", lit(10), lit(1), F.Var("k"))])
        r = t.test_subscripts([SubscriptPair(L(0, i=1), L(1, i=1))])
        assert r.directions == {("<",), (">",)} and r.distance is None


def graph_of(src, unit=0):
    sf = parse_program(src)
    u = sf.units[unit]
    build_symbol_table(u)
    loop = next(s for s in u.body if isinstance(s, F.DoLoop))
    return build_dependence_graph(loop)


class TestDependenceGraph:
    def test_parallel_loop_no_deps(self):
        g = graph_of("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n)
      do i = 1, n
         a(i) = b(i) + 1.0
      end do
      end
""")
        assert g.is_parallel(0)

    def test_flow_dependence_carried(self):
        g = graph_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      do i = 2, n
         a(i) = a(i-1) + 1.0
      end do
      end
""")
        assert not g.is_parallel(0)
        flows = [d for d in g.deps if d.kind == "flow" and d.variable == "a"]
        assert flows and flows[0].distance == (1,)

    def test_anti_dependence_not_carried_blocking(self):
        g = graph_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      do i = 1, n
         a(i) = a(i+1) + 1.0
      end do
      end
""")
        # anti dependence a(i+1) read, a(i') written with i' = i+1: carried
        antis = [d for d in g.deps if d.kind == "anti"]
        assert antis
        assert not g.is_parallel(0)

    def test_scalar_accumulator_blocks(self):
        g = graph_of("""
      subroutine s(a, n, total)
      integer n
      real a(n), total
      do i = 1, n
         total = total + a(i)
      end do
      end
""")
        assert not g.is_parallel(0)
        assert "total" in g.variables_with_carried(0)
        # but ignoring the recognized reduction variable it is parallel
        assert g.is_parallel(0, ignore={"total"})

    def test_private_scalar_blocks_until_ignored(self):
        g = graph_of("""
      subroutine s(a, b, n)
      integer n
      real a(n), b(n), t
      do i = 1, n
         t = a(i) * 2.0
         b(i) = t + 1.0
      end do
      end
""")
        assert not g.is_parallel(0)
        assert g.is_parallel(0, ignore={"t"})

    def test_inner_loop_independent_outer_carried(self):
        sf = parse_program("""
      subroutine s(a, n, m)
      integer n, m
      real a(100, 100)
      do i = 2, n
         do j = 1, m
            a(i, j) = a(i-1, j) + 1.0
         end do
      end do
      end
""")
        u = sf.units[0]
        build_symbol_table(u)
        loop = u.body[0]
        g = build_dependence_graph(loop)
        assert not g.is_parallel(0)
        # the j loop (depth 1) carries nothing
        assert g.is_parallel(1)

    def test_unknown_call_conservative(self):
        g = graph_of("""
      subroutine s(a, n)
      integer n
      real a(n)
      do i = 1, n
         call f(a, i)
      end do
      end
""")
        assert not g.is_parallel(0)
        assert not g.exact

    def test_output_dependence(self):
        g = graph_of("""
      subroutine s(a, n, k)
      integer n, k
      real a(n)
      do i = 1, n
         a(k) = a(k) + 1.0
      end do
      end
""")
        outs = [d for d in g.deps if d.kind == "output"]
        assert outs
        assert not g.is_parallel(0)


@settings(max_examples=200, deadline=None)
@given(
    a1=st.integers(-3, 3), c1=st.integers(-6, 6),
    a2=st.integers(-3, 3), c2=st.integers(-6, 6),
    n=st.integers(1, 12), step=st.sampled_from([-2, -1, 1, 2]),
    symbolic=st.booleans(),
)
# a(i) = a(i+1) in ``do i = n, 1, -1``: carried forward in execution order
@example(a1=1, c1=0, a2=1, c2=1, n=8, step=-1, symbolic=False)
# a(2*i) = a(i+3) in ``do i = m, 5``: the same cell at i = 3
@example(a1=2, c1=0, a2=1, c2=3, n=5, step=1, symbolic=True)
def test_tester_sound_vs_bruteforce(a1, c1, a2, c2, n, step, symbolic):
    """The symbolic tester must never report independence when a concrete
    collision exists, and its surviving direction vectors must cover every
    concrete pair relation.

    The loop is ``do i = first, last, step`` with ``(first, last)`` =
    ``(1, n)`` for a positive step and ``(n, 1)`` for a negative one.
    With ``symbolic`` the first value is an unknown ``m``, which the brute
    force enumerates.  Directions compare the source's and the sink's
    positions in execution order.
    """
    last = n if step > 0 else 1
    first = 1 if step > 0 else n
    nest = [LoopInfo("i", F.Var("m") if symbolic else lit(first), lit(last),
                     None if step == 1 else lit(step))]
    r = DependenceTester(nest).test_subscripts(
        [SubscriptPair(L(c1, i=a1), L(c2, i=a2))])

    actual_dirs = set()
    for m in (range(-4, n + 5) if symbolic else [first]):
        iters = range(m, last + (1 if step > 0 else -1), step)
        for p, q in itertools.product(range(len(iters)), repeat=2):
            if a1 * iters[p] + c1 == a2 * iters[q] + c2:
                actual_dirs.add(("<" if p < q else (">" if p > q else "="),))
    assert actual_dirs <= r.directions, (actual_dirs, r.directions)


# -- two fixed miscompilations, end to end ----------------------------------

REVERSED = """
      subroutine rev(n, a, b, c)
      integer n, i
      real a(n), b(n), c(n)
      do 10 i = n - 1, 1, -1
         a(i) = a(i+1) + b(i)
   10 continue
      end
"""


def test_reversed_recurrence_is_carried_and_stays_serial():
    """``do i = n-1, 1, -1`` reading ``a(i+1)`` written one iteration
    earlier is a flow dependence at distance +1; parallelised, the
    restructured unit computed a different ``a`` and raced."""
    from repro.validate.differential import validate_workload

    g = graph_of(REVERSED)
    (flow,) = [d for d in g.deps if d.kind == "flow"]
    assert flow.source.is_write and flow.directions == {("<",)}
    assert flow.distance == (1,) and not g.is_parallel(0)

    prog = fuzz.FuzzProgram("rev", 0, "executable", REVERSED, "rev")
    result = validate_workload(fuzz.make_case(prog), PIPELINE_CONFIGS,
                               processors=(2,), bisect=False)
    assert [(c.config, c.ok) for c in result.configs] == \
        [(name, True) for name in PIPELINE_CONFIGS]


def test_symbolic_start_keeps_the_loop_independent_anti_edge():
    g = graph_of("""
      subroutine sym(m, a)
      integer m, i
      real a(20)
      do 10 i = m, 5
         a(2*i) = a(i+3) + 1.0
   10 continue
      end
""")
    anti = [d for d in g.deps if d.kind == "anti"]
    assert anti and ("=",) in anti[0].directions


# -- the per-build fact table ------------------------------------------------

class _Direct(graph_mod._BuildFacts):
    """Every question the table answers, recomputed from scratch: a fresh
    tester and its own ``test_refs`` per reference pair."""

    def subscript_range(self, ref, dim):
        return graph_mod._subscript_range(
            linearize(ref.subscripts[dim], self.params), ref.loops,
            self.params)

    def test(self, nest, src, sink):
        tester = DependenceTester(nest, self.params)
        if src.is_scalar or sink.is_scalar or src.in_call or sink.in_call:
            return tester.conservative()
        return tester.test_refs(src.subscripts, sink.subscripts)


def _edges(g):
    pos = {id(r): k for k, r in enumerate(g.refs)}
    return g.exact, [(d.kind, pos[id(d.source)], pos[id(d.sink)],
                      sorted(d.directions), d.distance, d.result.exact)
                     for d in g.deps]


class GraphOracle:
    """Wraps every graph build the restructurer makes: the graph built
    with the table must equal the one built without it, edge by edge."""

    def __init__(self, monkeypatch):
        self.builds = 0
        self.mismatches: list[str] = []
        self.build = graph_mod.build_dependence_graph
        monkeypatch.setattr(nest_mod, "build_dependence_graph", self.checked)

    def checked(self, loop, params=None, collector=None):
        if collector is None:
            collector = RefCollector()
            collector.collect(loop.body, (LoopInfo.of(loop),))
        got = self.build(loop, params, collector=collector)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(graph_mod, "_BuildFacts", _Direct)
            want = self.build(loop, params, collector=collector)
        self.builds += 1
        if _edges(got) != _edges(want):
            self.mismatches.append(f"do {loop.var} @ line {loop.line}")
        return got


#: two sibling nests with equal subscript forms under different bounds:
#: a table keyed on anything less than the nest itself reuses the first
#: loop's answer (independent: the distance 5 exceeds its trip count;
#: the stride 2 keeps the range check from deciding it first)
SIBLINGS = """
      subroutine sib(n, a)
      integer n, i, j
      real a(n, 40)
      do 30 i = 1, n
         do 10 j = 1, 2
            a(i, 2*j) = a(i, 2*j+10) + 1.0
   10    continue
         do 20 j = 1, 10
            a(i, 2*j) = a(i, 2*j+10) + 1.0
   20    continue
   30 continue
      end
"""


def _oracle_programs():
    """A hand-written pair of sibling nests, the 22 workloads (the 12
    Perfect proxies among them) under both pipeline configurations, and
    generated programs: 40 executable and 10 surface ones, or
    ``GRAPH_ORACLE_FUZZ=EXECUTABLE,SURFACE``."""
    yield "siblings", SIBLINGS, lambda: None
    for name, case in sorted(validation_cases().items()):
        for config, make in sorted(PIPELINE_CONFIGS.items()):
            yield f"{name}/{config}", case.source, make
    counts = os.environ.get("GRAPH_ORACLE_FUZZ", "40,10").split(",")
    for mode, count in zip(("executable", "surface"), map(int, counts)):
        for i in range(count):
            prog = fuzz.generate(1 + i, mode)
            yield f"{mode}:{prog.name}", prog.source, lambda: None


ORACLE_PROGRAMS = {label: (source, make)
                   for label, source, make in _oracle_programs()}


@pytest.mark.parametrize("label", sorted(ORACLE_PROGRAMS))
def test_graph_oracle(label, monkeypatch):
    """Every nest of the parsed program, and every nest the restructurer
    analyses on the way to its output, gets the same graph with and
    without the table."""
    source, make = ORACLE_PROGRAMS[label]
    oracle = GraphOracle(monkeypatch)
    for unit in parse_program(source).units:
        params = Restructurer._parameter_values(build_symbol_table(unit))
        for s in F.stmts_walk(unit.body):
            if isinstance(s, F.DoLoop):
                oracle.checked(s, params)
    Restructurer(make()).run(parse_program(source))
    assert oracle.builds > 0 or "surface" in label
    assert oracle.mismatches == []


def test_fig7_tests_each_subscript_system_once_per_build(monkeypatch):
    """Counts, not timings: restructuring Fig. 7's workload (MDG, manual
    configuration) builds at most one tester per distinct common nest in
    a graph build, and never tests one subscript system twice in it."""
    from repro.experiments import fig7_privatization

    builds: list[tuple[list, list]] = []   # per build: testers, systems

    class CountedGraph(graph_mod.DependenceGraph):
        def __init__(self, *args, **kwargs):
            builds.append(([], []))
            super().__init__(*args, **kwargs)

    def loops(nest):
        return tuple(id(li.loop) for li in nest)

    init = DependenceTester.__init__
    test = DependenceTester.test_subscripts

    def counted_init(self, nest, params=None):
        builds[-1][0].append(loops(nest))
        init(self, nest, params)

    def counted_test(self, pairs):
        builds[-1][1].append((loops(self.nest), tuple(pairs)))
        return test(self, pairs)

    monkeypatch.setattr(graph_mod, "DependenceGraph", CountedGraph)
    monkeypatch.setattr(DependenceTester, "__init__", counted_init)
    monkeypatch.setattr(DependenceTester, "test_subscripts", counted_test)
    fig7_privatization.run(quick=True)

    assert len(builds) >= 10
    assert sum(len(systems) for _, systems in builds) >= 10
    for testers, systems in builds:
        assert len(testers) == len(set(testers))
        assert len(systems) == len(set(systems))
