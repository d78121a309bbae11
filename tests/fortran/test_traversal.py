"""Traversal oracle: the precomputed child slots must see what the old
generic traversal saw.

``repro.fortran.ast_nodes`` reads a per-class tuple of child-bearing
field names (``node_slots``) where it used to call
``dataclasses.fields()`` on every visit.  The old generic code survives
here, as the reference: ``children()``/``walk()``/``stmts_walk`` must
yield the identical node-*identity* sequence, in pre-order, on every
tree this repo produces — parsed and restructured, all 22 workloads and
40 generated programs — ``clone()`` must copy everything and share
nothing, and ``Transformer`` must splice exactly as before.  A node
class defined in this file stands for the subclass somebody adds later:
its child slots must be found without anyone registering them.

This module deliberately has no ``from __future__ import annotations``:
the classes below carry real annotation objects, the other form
``node_slots`` has to classify.
"""

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

import pytest

from repro.cedar import nodes as C
from repro.fortran import ast_nodes as F
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.restructurer.pipeline import Restructurer
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

FUZZ_SEED, FUZZ_COUNT = 7, 40


# ---------------------------------------------------------------------------
# the reference: traversal by dataclasses.fields(), as it was
# ---------------------------------------------------------------------------

def _iter_nodes(value: Any) -> Iterator[F.Node]:
    if isinstance(value, F.Node):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _iter_nodes(item)


def oracle_children(node: F.Node) -> Iterator[F.Node]:
    for f in dataclasses.fields(node):
        yield from _iter_nodes(getattr(node, f.name))


def oracle_walk(node: F.Node) -> Iterator[F.Node]:
    yield node
    for c in oracle_children(node):
        yield from oracle_walk(c)


class OracleTransformer:
    """The old ``Transformer``: every field, via dataclasses.fields()."""

    def visit(self, node):
        method = getattr(self, "visit_" + type(node).__name__, None)
        if method is not None:
            result = method(node)
            if result is not None:
                return result
        return self.generic_transform(node)

    def generic_transform(self, node):
        for f in dataclasses.fields(node):
            setattr(node, f.name,
                    self._transform_value(getattr(node, f.name), f.name))
        return node

    _transform_value = F.Transformer._transform_value


# ---------------------------------------------------------------------------
# the trees
# ---------------------------------------------------------------------------

def _trees():
    for name, case in sorted(validation_cases().items()):
        yield f"{name}/parsed", lambda s=case.source: parse_program(s)
        for config, make in sorted(PIPELINE_CONFIGS.items()):
            yield (f"{name}/{config}",
                   lambda s=case.source, make=make:
                   Restructurer(make()).run(parse_program(s))[0])
    for i in range(FUZZ_COUNT):
        prog = fuzz.generate(FUZZ_SEED + i, "executable")
        yield f"{prog.name}/parsed", lambda s=prog.source: parse_program(s)
        yield (f"{prog.name}/restructured",
               lambda s=prog.source: Restructurer().run(parse_program(s))[0])


TREES = dict(_trees())


def ids(nodes) -> list[int]:
    return [id(n) for n in nodes]


@pytest.mark.parametrize("label", sorted(TREES))
def test_walk_children_clone_match_the_oracle(label):
    sf = TREES[label]()
    nodes = list(oracle_walk(sf))
    assert ids(sf.walk()) == ids(nodes)
    for n in nodes:
        assert ids(n.children()) == ids(oracle_children(n)), type(n).__name__
    for u in sf.units:
        for stmts in (u.specs, u.body):
            assert ids(F.stmts_walk(stmts)) == ids(
                n for s in stmts for n in oracle_walk(s))

    copy = sf.clone()
    assert F.ast_equal(copy, sf) and F.ast_diff(copy, sf) is None
    assert [type(n) for n in copy.walk()] == [type(n) for n in nodes]
    assert not set(ids(copy.walk())) & set(ids(nodes))
    # containers are copied too, leaf ones included (GLOBAL a, b …)
    for a, b in zip(copy.walk(), nodes):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            assert va == vb or isinstance(va, (F.Node, list, tuple))
            if isinstance(va, list):
                assert va is not vb, (type(a).__name__, f.name)


def test_covers_the_shapes_that_matter():
    """The sweep above is only an oracle if the trees contain the nested
    child shapes: IF arms, PARALLEL DO locals/preamble/postamble."""
    seen = set()
    filled = set()
    for label, build in TREES.items():
        if label.endswith("/parsed"):
            continue
        for n in build().walk():
            seen.add(type(n))
            if isinstance(n, C.ParallelDo):
                filled |= {f for f in ("locals_", "preamble", "postamble")
                           if getattr(n, f)}
        if filled == {"locals_", "preamble", "postamble"} \
                and {F.IfBlock, F.LogicalIf, C.WhereStmt} <= seen:
            return
    pytest.fail(f"shapes missing: seen {filled}")


# ---------------------------------------------------------------------------
# a node class nobody registered
# ---------------------------------------------------------------------------

@dataclass
class Probe(F.Stmt):
    """Every field shape at once, with real (non-string) annotations."""
    tag: str = ""
    weight: Optional[int] = None
    names: list[str] = field(default_factory=list)
    guard: Optional[F.Expr] = None
    arms: list[tuple[Optional[F.Expr], list[F.Stmt]]] = field(
        default_factory=list)
    pair: tuple = ()            # bare container: anything may be inside
    anything: Any = None


def _probe() -> Probe:
    inner = Probe(tag="inner", guard=F.Var("g"),
                  pair=(F.IntLit(1), [F.Var("p")]))
    return Probe(
        tag="outer", weight=3, names=["a", "b"], label=10,
        guard=F.BinOp("+", F.Var("x"), F.IntLit(2)),
        arms=[(F.Var("c1"), [F.ContinueStmt(), inner]),
              (None, [F.Assign(target=F.Var("y"), value=F.Var("z"))])],
        pair=(F.Var("q"), "text", 4),
        anything=[F.Var("w")])


class TestUnregisteredSubclass:
    def test_slots_are_derived_from_the_annotations(self):
        slots = F.node_slots(Probe)
        assert slots.fields == tuple(f.name for f in
                                     dataclasses.fields(Probe))
        assert {"guard", "arms", "pair", "anything"} <= set(slots.child)
        assert "tag" not in slots.child
        assert "line" not in slots.compared and "label" in slots.compared

    def test_traversal_matches_the_oracle(self):
        p = _probe()
        assert ids(p.walk()) == ids(oracle_walk(p))
        assert ids(p.children()) == ids(oracle_children(p))
        assert ids(F.stmts_walk([p, p])) == 2 * ids(oracle_walk(p))
        names = [n.name for n in p.walk() if isinstance(n, F.Var)]
        assert names == ["x", "c1", "g", "p", "y", "z", "q", "w"]

    def test_clone_copies_everything_and_shares_nothing(self):
        p = _probe()
        q = p.clone()
        assert F.ast_equal(p, q)
        assert not set(ids(p.walk())) & set(ids(q.walk()))
        assert q.names == p.names and q.names is not p.names
        assert q.arms is not p.arms and q.arms[0][1] is not p.arms[0][1]
        assert q.pair[1:] == ("text", 4)
        q.arms[1][1][0].value = F.Var("changed")
        assert F.ast_diff(p, q) == "$.arms[1][1][0].value.name: 'z' != 'changed'"

    def test_string_annotations_classify_the_same(self):
        ns: dict = {"F": F, "Optional": Optional, "dataclass": dataclass,
                    "field": field}
        exec("from __future__ import annotations\n"
             "@dataclass\n"
             "class Late(F.Stmt):\n"
             "    tag: str = ''\n"
             "    count: Optional[int] = None\n"
             "    flags: list[bool] = field(default_factory=list)\n"
             "    body: list[F.Stmt] = field(default_factory=list)\n"
             "    cond: F.Expr | None = None\n", ns)
        late = ns["Late"]
        assert F.node_slots(late).child == ("body", "cond")
        node = late(tag="t", flags=[True], cond=F.Var("c"),
                    body=[F.ContinueStmt()])
        assert ids(node.walk()) == ids(oracle_walk(node))


# ---------------------------------------------------------------------------
# Transformer: splice semantics and dispatch
# ---------------------------------------------------------------------------

class _Rewrite:
    """Deletes CONTINUE, doubles assignments to ``dup``, renames ``x``."""

    def visit_ContinueStmt(self, node):
        return []

    def visit_Assign(self, node):
        if isinstance(node.target, F.Var) and node.target.name == "dup":
            return [node, node.clone()]
        return None

    def visit_Var(self, node):
        return F.Var("renamed") if node.name == "x" else node


class NewRewrite(_Rewrite, F.Transformer):
    pass


class OldRewrite(_Rewrite, OracleTransformer):
    pass


SPLICE = """
      subroutine s(n, a, x)
      integer n, i
      real a(n), x, dup
      do 10 i = 1, n
         if (a(i) .gt. x) then
            dup = a(i)
            continue
         else if (x .lt. 0.0) then
            a(i) = x
         else
            continue
         endif
         if (x .gt. 1.0) a(i) = x + dup
   10 continue
      end
"""


class TestTransformer:
    def test_splices_like_the_oracle(self):
        new = NewRewrite().visit(parse_program(SPLICE))
        old = OldRewrite().visit(parse_program(SPLICE))
        assert F.ast_diff(new, old) is None
        loop = new.units[0].body[0]
        arms = loop.body[0].arms
        assert [type(s).__name__ for s in arms[0][1]] == ["Assign", "Assign"]
        assert arms[2][1] == []
        assert not any(isinstance(n, F.ContinueStmt) for n in new.walk())
        assert not any(isinstance(n, F.Var) and n.name == "x"
                       for n in new.walk())

    @pytest.mark.parametrize("label", ["ARC2D/manual", "cg/automatic"])
    def test_rewrites_cedar_trees_like_the_oracle(self, label):
        new = NewRewrite().visit(TREES[label]())
        old = OldRewrite().visit(TREES[label]())
        assert F.ast_diff(new, old) is None

    def test_cannot_splice_into_a_single_node_field(self):
        class Bad(F.Transformer):
            def visit_Assign(self, node):
                return [node, node]

        stmt = F.LogicalIf(cond=F.Var("c"),
                           stmt=F.Assign(target=F.Var("a"), value=F.Var("b")))
        with pytest.raises(TypeError, match="'stmt'"):
            Bad().visit(stmt)

    def test_dispatch_is_memoised_per_visitor_class(self):
        class Count(F.Visitor):
            def __init__(self):
                self.seen = []

            def visit_Var(self, node):
                self.seen.append(node.name)

        class CountUpper(Count):
            def visit_Var(self, node):
                self.seen.append(node.name.upper())

        class CountLits(Count):
            def visit_IntLit(self, node):
                self.seen.append(node.value)

        e = F.BinOp("+", F.Var("a"), F.BinOp("*", F.IntLit(2), F.Var("b")))
        for cls, want in ((Count, ["a", "b"]), (CountUpper, ["A", "B"]),
                          (CountLits, ["a", 2, "b"]), (Count, ["a", "b"])):
            v = cls()
            v.visit(e)
            assert v.seen == want
        assert F.Var in Count._dispatch
        assert Count._dispatch is not CountUpper._dispatch
        assert F.Visitor._dispatch == {} and F.Transformer._dispatch == {}


# ---------------------------------------------------------------------------
# copies and child lists, node by node
# ---------------------------------------------------------------------------

GUARD_FUZZ_SEED, GUARD_FUZZ_COUNT = 300, 200


def _guard_trees():
    for name, case in sorted(validation_cases().items()):
        yield f"workload:{name}", parse_program(case.source)
    for i in range(GUARD_FUZZ_COUNT):
        prog = fuzz.generate(GUARD_FUZZ_SEED + i,
                             "executable" if i % 2 else "surface")
        yield f"fuzz:{prog.name}", parse_program(prog.source)


def reference_children(node: F.Node) -> list:
    """Every field of the node, every nested list and tuple, with no
    regard to what the annotations say."""
    return list(oracle_children(node))


def containers(value: Any, out: list) -> list:
    """Every list and tuple below ``value``, Nodes' fields included."""
    if isinstance(value, F.Node):
        for f in dataclasses.fields(value):
            containers(getattr(value, f.name), out)
    elif isinstance(value, (list, tuple)):
        out.append(value)
        for item in value:
            containers(item, out)
    return out


def test_every_node_clones_and_lists_its_children_exactly():
    for label, sf in _guard_trees():
        nodes = list(sf.walk())
        for node in nodes:
            assert ids(F._child_list(node)) == ids(reference_children(node)), \
                (label, type(node).__name__)
        copy = sf.clone()
        assert repr(copy) == repr(sf) and F.ast_equal(copy, sf), label
        copies = list(copy.walk())
        assert [type(n) for n in copies] == [type(n) for n in nodes]
        assert [(n.line, n.label) for n in copies
                if isinstance(n, F.Stmt)] == \
            [(n.line, n.label) for n in nodes if isinstance(n, F.Stmt)]
        assert not set(ids(copies)) & set(ids(nodes)), label
        assert not set(ids(c for c in containers(copy, [])
                           if isinstance(c, list))) \
            & set(ids(containers(sf, []))), label
        # a subtree's copy is the copy of that subtree
        for node in nodes[::7]:
            assert repr(node.clone()) == repr(node), label


def rebuild(value: Any) -> Any:
    """``value`` rebuilt through the dataclass constructors."""
    if isinstance(value, F.Node):
        return type(value)(**{f.name: rebuild(getattr(value, f.name))
                              for f in dataclasses.fields(value)})
    if isinstance(value, list):
        return [rebuild(v) for v in value]
    if isinstance(value, tuple):
        return tuple(rebuild(v) for v in value)
    return value


def test_a_clone_takes_no_more_memory_than_a_rebuild():
    """Copies keep the instance layout ``__init__`` gives (one key table
    shared by the class's instances): a copier that wrote ``__dict__``
    would give each copy a dict of its own."""
    import tracemalloc

    trees = [sf for name, sf in _guard_trees()
             if name.startswith("workload:")]
    assert len(trees) == 22
    for sf in trees:          # warm-up: per-class copiers are built once
        sf.clone()
        rebuild(sf)

    def retained(make) -> int:
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [make(sf) for sf in trees]
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(kept) == len(trees)
        return after - before

    cloned = retained(lambda sf: sf.clone())
    rebuilt = retained(rebuild)
    assert cloned <= rebuilt, (cloned, rebuilt)
