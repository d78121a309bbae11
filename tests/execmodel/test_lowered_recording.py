"""Lowered loops under a race-checked run (repro.execmodel.source_jit's
partial-sum DOALL and recorder-aware text).

The tree walk is the oracle throughout: a generated partial-sum DOALL is
bit-identical on both engines under honest and dishonest deals, with and
without a recorder; a bulk-logged loop leaves the rows the tree leaves;
and the loops the lowering proof cannot vouch for — nested in a checked
iteration, aliased dummies — report the tree's conflicts, in its order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cedar.nodes import LockStmt, ParallelDo, UnlockStmt
from repro.engine import cached_restructure
from repro.execmodel.interp import Interpreter, cyclic_deal
from repro.execmodel.shadow import ShadowRecorder
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases
from tests.execmodel.test_engine_equivalence import (assert_bit_identical,
                                                     duplicating_deal,
                                                     lossy_deal)
from tests.validate.test_order_independence import (reversed_deal,
                                                    shuffled_deal)

SIZE = 40           # extent of every array; n is drawn from 0..SIZE
INNER = 3


# ---------------------------------------------------------------------------
# building a partial-sum DOALL the way reduction_xform does


def as_doall(loop: F.DoLoop, partials=(), locals_=(), level="X"):
    """``loop`` as a DOALL; each partial is ``(name, literal, target,
    op)`` and gets reduction_xform's local, preamble and postamble."""
    decls = [F.TypeDecl(type=F.TypeSpec(t), entities=[F.EntityDecl(n)])
             for n, t in locals_]
    pre, post = [], []
    for name, literal, target, op in partials:
        decls.append(F.TypeDecl(type=F.TypeSpec("real"),
                                entities=[F.EntityDecl(name)]))
        pre.append(F.Assign(target=F.Var(name), value=F.RealLit(literal)))
        combine = F.BinOp(op, F.Var(target), F.Var(name)) if op in "+*" \
            else F.FuncCall(op, [F.Var(target), F.Var(name)],
                            intrinsic=True)
        post += [LockStmt(name="redlck"),
                 F.Assign(target=F.Var(target), value=combine),
                 UnlockStmt(name="redlck")]
    return ParallelDo(level=level, order="doall", var=loop.var,
                      start=loop.start, end=loop.end, step=loop.step,
                      locals_=decls, preamble=pre, body=loop.body,
                      postamble=post, line=loop.line)


def doall_program(src: str, **kw):
    """Parse ``src`` and turn its first unit's outermost DO into a
    DOALL."""
    sf = parse_program(src)
    body = sf.units[0].body
    at = next(i for i, s in enumerate(body) if isinstance(s, F.DoLoop))
    body[at] = as_doall(body[at], **kw)
    return sf


TERMS_1D = ["x(i)", "y(i)", "x(i) * y(i)", "(x(i) + 0.5)", "abs(y(i))",
            "x(i) * c", "y(i) / 3.0"]
TERMS_2D = ["w(i, j)", "w(i, j) * x(i)", "y(i)", "abs(w(i, j)) * c"]
LITERALS = [0.0, 1.5, -2.25, 1e30, -1e30]


@st.composite
def accumulators(draw, terms):
    """1–3 accumulation statements, one partial each."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        p = f"p{k + 1}"
        term = st.sampled_from(terms)
        kind = draw(st.sampled_from(["spine", "right", "min", "max"]))
        if kind == "spine":
            rhs = p
            for _ in range(draw(st.integers(1, 3))):
                rhs += f" {draw(st.sampled_from('+-'))} {draw(term)}"
            op = "+"
        elif kind == "right":
            rhs, op = f"{draw(term)} + {p}", "+"
        else:
            args = [p, draw(term)]
            if draw(st.booleans()):
                args.reverse()
            rhs, op = f"{kind}({args[0]}, {args[1]})", kind
        out.append((p, draw(st.sampled_from(LITERALS)), f"s{k + 1}", op,
                    f"{p} = {rhs}"))
    return out


def card(stmt: str) -> list[str]:
    """A fixed-form statement, continued before column 72."""
    lines, line = [], "      "
    for word in stmt.split(" "):
        if len(line) + len(word) + 1 > 72:
            lines.append(line)
            line = "     &"
        line += " " + word
    return lines + [line]


def partial_sum_source(accs, nested: bool, elementwise: bool) -> str:
    lines = ["      subroutine r(n, m, c, x, y, z, w, v, s1, s2, s3)",
             "      integer n, m, i, j",
             f"      real c, x({SIZE}), y({SIZE}), z({SIZE})",
             f"      real w({SIZE}, {INNER}), v({SIZE}, {INNER})",
             "      real s1, s2, s3",
             "      do i = 1, n"]
    if nested:
        lines.append("         do j = 1, m")
    if elementwise:     # an array write that covers every nest axis
        lines.append("            v(i, j) = w(i, j) - y(i) * c" if nested
                     else "            z(i) = x(i) - y(i) * c")
    for *_, stmt in accs:
        lines += card(stmt)
    if nested:
        lines.append("         end do")
    lines += ["      end do", "      end"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# deals: three honest ones, two that are not partitions

DEALS = {"cyclic": cyclic_deal, "reversed": reversed_deal,
         "shuffled": shuffled_deal, "lossy": lossy_deal,
         "duplicating": duplicating_deal}


def run(program, entry, args, *, engine, processors=4, deal=None,
        shadowed=False):
    sh = ShadowRecorder() if shadowed else None
    interp = Interpreter(program, processors=processors, shadow=sh,
                         engine=engine, deal=deal)
    fresh = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
    return interp.call(entry, *fresh), sh, interp._compiler


def partial_sum_args(n, m, seed):
    rng = np.random.default_rng(seed)
    return [n, m, 0.75, rng.standard_normal(SIZE), rng.standard_normal(SIZE),
            np.zeros(SIZE), rng.standard_normal((SIZE, INNER)),
            np.zeros((SIZE, INNER)), 0.5, -1.25, 2.0]


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.integers(0, SIZE), processors=st.integers(1, 8),
       deal=st.sampled_from(sorted(DEALS)), nested=st.booleans(),
       elementwise=st.booleans(), m=st.integers(0, INNER),
       seed=st.integers(0, 2**16))
def test_partial_sum_doall_is_the_trees(data, n, processors, deal, nested,
                                        elementwise, m, seed):
    accs = data.draw(accumulators(TERMS_2D if nested else TERMS_1D))
    program = doall_program(
        partial_sum_source(accs, nested, elementwise),
        partials=[a[:4] for a in accs],
        locals_=[("j", "integer")] if nested else [])
    args = partial_sum_args(n, m, seed)
    for shadowed in (False, True):
        kw = dict(processors=processors, deal=DEALS[deal],
                  shadowed=shadowed)
        tree, sh_t, _ = run(program, "r", args, engine="tree", **kw)
        fast, sh_c, comp = run(program, "r", args, engine="compiled", **kw)
        # under a deal that is no partition the DOALL hands over to
        # ``_parallel_do``, and a nested body's DO lowers on its own
        assert comp.vectorized_loops >= 1, "the generated shape must lower"
        assert_bit_identical(tree, fast, "tree vs compiled")
        if shadowed:
            assert sh_c.loops_checked == sh_t.loops_checked == 1
            assert sh_c.conflicts == sh_t.conflicts == []


class TestShapesThatKeepTheFallback:
    """Anything but real partials initialised by a literal and combined
    under a lock stays worker-by-worker — and still the tree's answer."""

    SRC = partial_sum_source(
        [("p1", 0.0, "s1", "+", "p1 = p1 + x(i) * y(i)")], False, False)

    def _check(self, program, lowered):
        args = partial_sum_args(17, 0, 5)
        tree, _, _ = run(program, "r", args, engine="tree")
        fast, _, comp = run(program, "r", args, engine="compiled")
        assert_bit_identical(tree, fast, "tree vs compiled")
        assert comp.vectorized_loops == lowered

    def test_the_canonical_shape_lowers(self):
        self._check(doall_program(
            self.SRC, partials=[("p1", 0.0, "s1", "+")]), 1)

    def test_partial_the_implicit_rule_makes_integer(self):
        # the tree's store ladder truncates a name its symbol table
        # does not hold when it starts with i-n, whatever locals_ says
        src = self.SRC.replace("p1", "kp")
        self._check(doall_program(
            src, partials=[("kp", 0.0, "s1", "+")]), 0)

    def test_partial_not_declared_local(self):
        program = doall_program(self.SRC,
                                partials=[("p1", 0.0, "s1", "+")])
        pdo = next(s for s in program.units[0].body
                   if isinstance(s, ParallelDo))
        pdo.locals_ = []
        self._check(program, 0)

    def test_combine_target_read_in_the_body(self):
        src = self.SRC.replace("x(i) * y(i)", "x(i) * s1")
        self._check(doall_program(
            src, partials=[("p1", 0.0, "s1", "+")]), 0)

    def test_postamble_without_its_lock(self):
        program = doall_program(self.SRC,
                                partials=[("p1", 0.0, "s1", "+")])
        pdo = next(s for s in program.units[0].body
                   if isinstance(s, ParallelDo))
        pdo.postamble = pdo.postamble[1:2]
        self._check(program, 0)


# ---------------------------------------------------------------------------
# the instrumented path is kept where the proof does not reach

NESTED_SRC = """
      subroutine nest(n, m, a, b, c)
      integer n, m, i, k
      real a(8, 8), b(8, 8), c(8)
      do k = 1, m
         do i = 1, n
            a(i, 1) = b(i, k) * 2.0
         end do
         c(k) = a(1, 1)
      end do
      end
"""

ALIAS_SRC = """
      subroutine top(n, x)
      integer n
      real x(16)
      call shift(n, x, x)
      end
      subroutine shift(n, a, b)
      integer n, i
      real a(16), b(16)
      do i = 1, n - 1
         a(i) = b(i + 1) + 1.0
      end do
      end
"""


def conflicts_of(sh):
    return [(c.loop, c.var, c.element, c.kind, c.iterations)
            for c in sh.conflicts]


def test_loop_inside_a_checked_iteration_records_per_access():
    """The inner DO lowers, but while the outer DOALL is being checked
    every write of it must land in that loop's log in program order:
    every ``k`` writes column 1, and both engines say so identically."""
    program = doall_program(NESTED_SRC, locals_=[("i", "integer")])
    args = [6, 5, np.zeros((8, 8)), np.arange(64.0).reshape(8, 8),
            np.zeros(8)]
    tree, sh_t, _ = run(program, "nest", args, engine="tree",
                        shadowed=True)
    fast, sh_c, comp = run(program, "nest", args, engine="compiled",
                           shadowed=True)
    assert comp.vectorized_loops == 1      # the inner DO has a lowering
    assert_bit_identical(tree, fast, "tree vs compiled")
    assert sh_t.conflicts and conflicts_of(sh_c) == conflicts_of(sh_t)
    assert sh_c.loops_checked == sh_t.loops_checked == 1
    # outside any checked loop the same text runs lowered and silent
    seq = parse_program(NESTED_SRC)
    tree, _, _ = run(seq, "nest", args, engine="tree", shadowed=True)
    fast, sh_c, _ = run(seq, "nest", args, engine="compiled", shadowed=True)
    assert_bit_identical(tree, fast, "tree vs compiled")
    assert sh_c.loops_checked == 0


def test_aliased_dummies_keep_the_instrumented_loop():
    """``a`` and ``b`` are one array: the loop the lowerer proves
    elementwise by name carries an anti-dependence, the tree reports it,
    and the alias check at loop entry keeps the compiled engine on the
    path that does too."""
    sf = parse_program(ALIAS_SRC)
    shift = sf.units[1]
    at = next(i for i, s in enumerate(shift.body)
              if isinstance(s, F.DoLoop))
    shift.body[at] = as_doall(shift.body[at])
    args = [16, np.arange(16.0)]
    tree, sh_t, _ = run(sf, "top", args, engine="tree", shadowed=True)
    fast, sh_c, comp = run(sf, "top", args, engine="compiled",
                           shadowed=True)
    assert comp.vectorized_loops == 1
    assert_bit_identical(tree, fast, "tree vs compiled")
    assert sh_t.conflicts and conflicts_of(sh_c) == conflicts_of(sh_t)
    # distinct actuals: the same module text takes the bulk path
    sf.units[0].body[0].args[2] = F.Var("y")
    sf.units[0].args.append("y")
    args.append(np.arange(16.0))
    tree, sh_t, _ = run(sf, "top", args, engine="tree", shadowed=True)
    fast, sh_c, _ = run(sf, "top", args, engine="compiled", shadowed=True)
    assert_bit_identical(tree, fast, "tree vs compiled")
    assert sh_c.loops_checked == sh_t.loops_checked == 1
    assert sh_c.conflicts == sh_t.conflicts == []


# ---------------------------------------------------------------------------
# a bulk row is the row the tree writes


def logged_rows(program, case, engine, monkeypatch):
    """Per checked loop execution: the set of ``(kind, variable, flat
    offset, iteration)`` array rows and of scalar rows in its log."""
    seen = []
    analyze = ShadowRecorder._analyze

    def spy(self, ctx):
        arrays, scalars = set(), set()
        for kind, log in (("w", ctx.writes), ("r", ctx.reads)):
            for tok, off, it, _ in log.flat().tolist():
                row = (kind, self._names[tok], off, it)
                (scalars if self._dims[tok] is None else arrays).add(row)
        seen.append((ctx.label, arrays, scalars))
        return analyze(self, ctx)

    monkeypatch.setattr(ShadowRecorder, "_analyze", spy)
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    interp = Interpreter(program, processors=8, shadow=ShadowRecorder(),
                         engine=engine)
    interp.call(case.entry, *args)
    monkeypatch.setattr(ShadowRecorder, "_analyze", analyze)
    return seen, interp


@pytest.mark.parametrize("wname", ["cg", "svdcmp", "TRFD", "OCEAN"])
def test_bulk_rows_are_the_trees_rows(wname, monkeypatch):
    """Strip-mined DOALLs (rows labelled with the strip the tree runs
    the lane in), partial-sum DOALLs and plain elementwise ones: the
    same array cells, touched by the same iterations.  Scalars are
    logged per name rather than per evaluation, so a superset."""
    case = validation_cases()[wname]
    cedar, _ = cached_restructure(case.source,
                                  PIPELINE_CONFIGS["automatic"]())
    tree, _ = logged_rows(cedar, case, "tree", monkeypatch)
    fast, interp = logged_rows(cedar, case, "compiled", monkeypatch)
    assert interp._compiler.vectorized_loops > 0
    # loop executions of fewer than two iterations open no log on either
    # engine; each case still logs some
    assert tree, f"{wname}: no loop execution was logged"
    assert [label for label, _, _ in fast] == [label for label, _, _ in tree]
    for (label, arrays_t, scalars_t), (_, arrays_c, scalars_c) \
            in zip(tree, fast):
        assert arrays_c == arrays_t, label
        assert scalars_c >= scalars_t, label
