"""The compiled engine's scalar text (repro.execmodel.source_jit).

Every statement the loop lowerer does not take as a whole grid is
written into its list's module as scalar Python, its names looked up
once when it starts and its GOTO-free nested bodies inline; a list
holding a statement kind that text does not cover runs whole on the
tree walk.  The tree is the oracle: generated programs the 22 workloads
never shaped are bit-identical on both engines, under the race detector
too; so are the shapes that could break a lookup made at entry; every
declined kind gives the tree's result; and a faulty program dies of the
tree's own message.
"""

import os
import re

import numpy as np
import pytest

from repro.cedar.nodes import LockStmt, ParallelDo, UnlockStmt, WhereStmt
from repro.engine import cached_parse, cached_restructure
from repro.engine.cache import get_cache
from repro.errors import InterpreterBudgetError, InterpreterError
from repro.execmodel import compiled
from repro.execmodel.compiled import Compiler
from repro.execmodel.interp import Interpreter, cyclic_deal, truncate
from repro.execmodel.shadow import ShadowRecorder
from repro.execmodel.source_jit import emit_module
from repro.fortran import ast_nodes as F
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases
from tests.execmodel.test_engine_equivalence import (assert_bit_identical,
                                                     duplicating_deal,
                                                     lossy_deal)
from tests.validate.test_order_independence import reversed_deal

#: generated programs: 40, or ``SCALAR_TEXT_FUZZ=N``
FUZZ_SEED, FUZZ_COUNT = 2, int(os.environ.get("SCALAR_TEXT_FUZZ", "40"))


def _run(program, entry, args, *, engine, inputs=None, **kw):
    """(outputs, PRINT lines, interpreter) of one fresh run."""
    interp = Interpreter(program, engine=engine, inputs=inputs, **kw)
    fresh = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
    return interp.call(entry, *fresh), interp.outputs, interp


# ---------------------------------------------------------------------------
# (a) generated programs: no engine test saw one before


@pytest.mark.parametrize("i", range(FUZZ_COUNT))
def test_generated_programs_are_the_trees(i):
    case = fuzz.make_case(fuzz.generate(FUZZ_SEED + i, "executable"))
    programs = {"original": cached_parse(case.source)}
    for config in sorted(PIPELINE_CONFIGS):
        programs[config], _ = cached_restructure(
            case.source, PIPELINE_CONFIGS[config]())
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    for config, program in programs.items():
        # if-to-where output is the one declined kind generated here
        wheres = sum(isinstance(n, WhereStmt) for n in program.walk())
        for processors in (1, 4):
            for deal in (cyclic_deal, reversed_deal):
                for shadowed in (False, True):
                    ctx = (f"{case.name}@{config}/P={processors}/"
                           f"{deal.__name__}/shadow={shadowed}")
                    runs = [_run(program, case.entry, args, engine=engine,
                                 processors=processors, deal=deal,
                                 shadow=ShadowRecorder() if shadowed
                                 else None)
                            for engine in ("tree", "compiled")]
                    (tree, _, t), (fast, _, c) = runs
                    assert_bit_identical(tree, fast, ctx)
                    assert c._compiler.tree_lists <= wheres, ctx
                    if shadowed:
                        assert c.shadow.conflicts == t.shadow.conflicts, ctx
                        assert c.shadow.loops_checked \
                            == t.shadow.loops_checked, ctx


# ---------------------------------------------------------------------------
# (b) the statement kinds the scalar text declines run on the tree

GOTO_OUT = """
      subroutine s(n, a)
      integer n, i
      real a(n)
      do 20 i = 1, n
         if (a(i) .lt. 0.0) then
            a(i) = 0.0
            goto 10
         endif
         a(i) = a(i) + 1.0
   10    a(i) = a(i) * 2.0
   20 continue
      end
"""

COMPUTED_GOTO = """
      subroutine s(k, r)
      integer k
      real r
      goto (10, 20), k
      r = 0.0
      return
   10 r = 1.0
      return
   20 r = 2.0
      end
"""

PRINT = """
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = a(2) + 1.0
      print *, n, a(1), a
      a(2) = 7.0
      end
"""

READ = """
      subroutine s(n, a)
      integer n
      real a(n), x
      read *, x, a(2)
      a(1) = x * 2.0
      end
"""

STOP = """
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = 1.0
      if (n .gt. 2) stop
      a(2) = 2.0
      end
"""

SPIN = """
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = 0.0
   10 a(1) = a(1) + 1.0
      if (n .gt. 0) goto 10
      end
"""


def _where_program():
    sf = parse_program("""
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = -a(1)
      end
""")
    whole = F.ArrayRef("a", [F.RangeExpr(None, None)])
    sf.units[0].body.append(WhereStmt(
        mask=F.BinOp(".gt.", whole, F.RealLit(0.0)),
        body=[F.Assign(target=whole, value=F.BinOp("*", whole,
                                                   F.RealLit(2.0)))],
        elsewhere=[F.Assign(target=whole, value=F.RealLit(-1.0))]))
    return sf


A4 = np.array([1.0, -2.0, 3.0, -4.0])

#: name -> (program, args, input queue); one list of each program
#: holds the declined statement
DECLINED = {
    "goto-out-of-a-nested-list": (GOTO_OUT, [4, A4], None),
    "computed-goto-1": (COMPUTED_GOTO, [1, -1.0], None),
    "computed-goto-2": (COMPUTED_GOTO, [2, -1.0], None),
    "computed-goto-falls-through": (COMPUTED_GOTO, [3, -1.0], None),
    "print": (PRINT, [4, A4], None),
    "read": (READ, [4, A4], [1.5, 2.5]),
    "where": (_where_program, [4, A4], None),
    "stop": (STOP, [4, A4], None),
    "stop-not-taken": (STOP, [2, A4[:2]], None),
}


@pytest.mark.parametrize("name", sorted(DECLINED))
def test_declined_kinds_give_the_trees_result(name):
    src, args, inputs = DECLINED[name]
    program = src() if callable(src) else parse_program(src)
    tree, printed_t, _ = _run(program, "s", args, engine="tree",
                              inputs=inputs)
    fast, printed_c, interp = _run(program, "s", args, engine="compiled",
                                   inputs=inputs)
    assert_bit_identical(tree, fast, name)
    assert len(printed_c) == len(printed_t)
    for line_t, line_c in zip(printed_t, printed_c):
        assert_bit_identical(dict(enumerate(line_t)),
                             dict(enumerate(line_c)), f"{name}: PRINT")
    assert interp._compiler.tree_lists == 1
    assert not interp.inputs


#: GOTO_OUT with a second IF whose arm — a DO and its body — the text
#: writes inline in the DO body's function
GOTO_BESIDE_INLINE = """
      subroutine s(n, a)
      integer n, i, j
      real a(n)
      do 20 i = 1, n
         if (a(i) .lt. 0.0) then
            a(i) = 0.0
            goto 10
         endif
         if (a(i) .gt. 2.0) then
            do j = 1, 2
               a(i) = a(i) - 0.5
            end do
         endif
         a(i) = a(i) + 1.0
   10    a(i) = a(i) * 2.0
   20 continue
      end
"""

#: every nested body written inline into the outer DO's function
INLINED = """
      subroutine s(n, a)
      integer n, i, j
      real a(n)
      do i = 1, n
         a(i) = a(i) + 1.0
         do j = 1, n
            a(j) = a(j) + 1.0
            a(i) = a(i) * 0.5
         end do
      end do
      end
"""


@pytest.mark.parametrize("src,lists", [(GOTO_OUT, (1, 5)),
                                       (GOTO_BESIDE_INLINE, (1, 6))],
                         ids=["goto-out", "beside-an-inlined-body"])
def test_goto_lands_on_a_label_of_an_emitted_list(src, lists):
    """The IF arm holding the GOTO runs on the tree; the DO body it
    jumps within is module text, and its label map takes the signal.
    A body holding a GOTO is never written inline — a GOTO lands only
    on a label of a list enclosing it — but its GOTO-free neighbour
    is: the second IF's arm and the DO in it are no list of their
    own."""
    tree, _, _ = _run(parse_program(src), "s", [4, A4], engine="tree")
    fast, _, interp = _run(parse_program(src), "s", [4, A4],
                           engine="compiled")
    assert_bit_identical(tree, fast, "goto")
    comp = interp._compiler
    assert (comp.tree_lists, comp.scalar_stmts) == lists


def _cedar(src: str, **loops) -> F.SourceFile:
    """``src`` with the DO loop of each variable named in ``loops`` made
    a parallel loop, given the ``ParallelDo`` fields beyond the DO's."""
    sf = parse_program(src)

    def convert(body: list) -> None:
        for k, st in enumerate(body):
            if isinstance(st, F.DoLoop):
                convert(st.body)
                if st.var in loops:
                    body[k] = ParallelDo(
                        var=st.var, start=st.start, end=st.end,
                        step=st.step, body=st.body, label=st.label,
                        line=st.line, **loops[st.var])

    for unit in sf.units:
        convert(unit.body)
    return sf


def _stmts(*lines: str) -> list:
    """The statements (``.body``) or declarations (``.specs``) of a
    subroutine made of ``lines``."""
    unit = parse_program("".join(f"      {line}\n" for line in
                                 ("subroutine z",) + lines + ("end",))
                         ).units[0]
    return unit.specs or unit.body


@pytest.mark.parametrize("src,budget", [
    (SPIN, 5000), (GOTO_OUT, 9), (INLINED, 9),
    (lambda: _cedar(INLINED, i=dict(level="C")), 9)],
    ids=["in-a-tree-list", "in-an-emitted-list", "in-an-inlined-body",
         "in-a-DOALL-share"])
def test_budget_trip_names_the_trees_line(src, budget):
    sf = src() if callable(src) else parse_program(src)
    tripped = {}
    for engine in ("tree", "compiled"):
        interp = Interpreter(sf, step_budget=budget, engine=engine)
        with pytest.raises(InterpreterBudgetError) as exc:
            interp.call("s", 4, np.copy(A4))
        tripped[engine] = (str(exc.value), exc.value.line, interp._steps)
    assert tripped["compiled"] == tripped["tree"]
    assert f"statement budget of {budget} exceeded in s" \
        in tripped["tree"][0]
    assert tripped["tree"][1] is not None


def test_inlined_bodies_count_the_trees_steps():
    """One statement list, the outer DO: its nested bodies are written
    inline, each statement after ``exec_body``'s step count."""
    steps = {}
    for engine in ("tree", "compiled"):
        _, _, interp = _run(parse_program(INLINED), "s", [4, A4],
                            engine=engine)
        steps[engine] = interp._steps
    assert steps["compiled"] == steps["tree"] == 1 + 4 * (2 + 4 * 2)
    assert interp._compiler.scalar_stmts == 1


# ---------------------------------------------------------------------------
# (b') names are looked up when a statement starts, values on each access

HAZARDS = {
    # a scalar first created by a store inside the loop: its holder is
    # the root scope, where the store creates it
    "created-in-the-loop": ("""
      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n, n)
      do i = 1, n
         do j = 1, n
            if (j .gt. 1) b(j, i) = t + a(j)
            t = a(j) * i
         end do
      end do
      end
""", lambda: [4, A4, np.zeros((4, 4))]),
    # a COMMON scalar lives in a 0-d box: read and written through it
    "common-box": ("""
      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n, n), c
      common /blk/ c
      c = 0.0
      do i = 1, n
         do j = 1, n
            c = c + a(j)
            b(j, i) = c * 0.5
         end do
      end do
      end
""", lambda: [4, A4, np.zeros((4, 4))]),
    # a real scalar holding an integer makes every later store truncate
    "stored-type-flips": ("""
      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n, n), x
      do i = 1, n
         do j = 1, n
            x = 0.75
            if (j .gt. 2) x = i
            b(j, i) = x / 2 + a(j)
         end do
      end do
      end
""", lambda: [4, A4, np.zeros((4, 4))]),
    # two dummies bound to one array: a store through one is the next
    # iteration's load through the other
    "two-dummies-one-array": ("""
      subroutine t(n, a, b)
      integer n, i
      real a(n), b(n)
      do i = 2, n
         a(i) = b(i - 1) + 1.0
      end do
      end

      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n, n)
      call t(n, a, a)
      do i = 1, n
         do j = 2, n
            b(j, i) = a(j)
            a(j) = b(j - 1, i) + a(i)
         end do
      end do
      end
""", lambda: [4, A4, np.zeros((4, 4))]),
    # ... and a reshaped dummy is a view of the other's array
    "reshaped-dummy-shares-storage": ("""
      subroutine t(n, a, b)
      integer n, i
      real a(2, 2), b(n)
      do i = 1, 2
         a(i, 2) = b(i + 1) + 1.0
      end do
      end

      subroutine s(n, a, b)
      integer n
      real a(n), b(n, n)
      call t(n, a, a)
      end
""", lambda: [4, A4, np.zeros((4, 4))]),
}


@pytest.mark.parametrize("v", [2.7, -2.7, -0.0, 1e300, np.float64(-3.5),
                               7, -(2 ** 53), 2 ** 53 + 1, 2 ** 70,
                               np.int64(2 ** 62 + 1), np.int32(-5), True,
                               np.bool_(True), np.float32(2.5)])
def test_integer_store_is_the_trees_truncation(v):
    assert truncate(v) == int(np.trunc(v))
    assert type(truncate(v)) is int
    if type(v) is int:
        # the emitted integer store keeps a Python int as it is
        assert int(np.trunc(v)) == v


@pytest.mark.parametrize("v", [float("nan"), float("inf"),
                               np.float64("-inf")])
def test_integer_store_of_a_non_finite_raises_the_trees_error(v):
    with pytest.raises(Exception) as tree:
        int(np.trunc(v))
    with pytest.raises(type(tree.value), match=str(tree.value)):
        truncate(v)


def test_literal_conditions_and_subscripts_are_the_trees():
    src = """
      subroutine s(n, a)
      integer n
      real a(n)
      if (1) a(2.5) = a(1.0) + 1.0
      if (.true.) a(3) = 2
      end
"""
    tree, _, _ = _run(parse_program(src), "s", [4, A4], engine="tree")
    fast, _, interp = _run(parse_program(src), "s", [4, A4],
                           engine="compiled")
    assert_bit_identical(tree, fast, "literals")
    assert interp._compiler.tree_lists == 0


@pytest.mark.parametrize("name", sorted(HAZARDS))
def test_names_resolved_at_entry_are_the_trees(name):
    src, make_args = HAZARDS[name]
    programs = {"original": parse_program(src)}
    for config in ("automatic", "manual"):
        programs[config], _ = cached_restructure(
            src, PIPELINE_CONFIGS[config]())
    for config, program in programs.items():
        for shadowed in (False, True):
            ctx = f"{name}@{config}/shadow={shadowed}"
            runs = [_run(program, "s", make_args(), engine=engine,
                         processors=4,
                         shadow=ShadowRecorder() if shadowed else None)
                    for engine in ("tree", "compiled")]
            (tree, _, t), (fast, _, c) = runs
            assert_bit_identical(tree, fast, ctx)
            assert c._compiler.tree_lists == 0, ctx
            if shadowed:
                assert c.shadow.conflicts == t.shadow.conflicts, ctx
                assert c.shadow.loops_checked \
                    == t.shadow.loops_checked, ctx


# ---------------------------------------------------------------------------
# (c) faulty programs die of the tree's message

FAULTS = {
    "undefined-variable": ("""
      subroutine s(n, a)
      integer n
      real a(n), x
      a(1) = x + 1.0
      end
""", [4, A4], "undefined variable 'x'"),
    "out-of-bounds-store": ("""
      subroutine s(n, a)
      integer n
      real a(n)
      a(n + 1) = 1.0
      end
""", [4, A4], r"subscript 5 out of bounds in dimension 1 \[1, 4\]"),
    "out-of-bounds-load": ("""
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = a(0)
      end
""", [4, A4], r"subscript 0 out of bounds in dimension 1 \[1, 4\]"),
    "subscripted-non-array-load": ("""
      subroutine s(n, a)
      integer n
      real a(n), x
      x = a(1)
      end
""", [4, 2.5], "unknown function 'a'"),
    "subscripted-non-array-store": ("""
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = 1.0
      end
""", [4, 2.5], "'a' is not an array"),
    "array-value-into-a-scalar": ("""
      subroutine s(n, a)
      integer n
      real a(n), x
      x = a
      end
""", [4, A4], "array value assigned to scalar 'x'"),
    "rank-mismatch": ("""
      subroutine s(n, a)
      integer n
      real a(n, n)
      a(1) = 1.0
      end
""", [2, np.zeros((2, 2))],
        "rank mismatch: 1 subscripts for rank 2 array"),
    "array-condition": ("""
      subroutine s(n, a)
      integer n
      real a(n)
      if (a .gt. 0.0) a(1) = 1.0
      end
""", [4, A4], "array condition in scalar IF"),
    "zero-do-step": ("""
      subroutine s(n, a)
      integer n, i
      real a(n)
      do i = 1, n, n - 4
         a(i) = a(i - 1)
      end do
      end
""", [4, A4], "zero DO step"),
    "unknown-function": ("""
      subroutine s(n, a)
      integer n
      real a(n)
      a(1) = nosuch(a(2))
      end
""", [4, A4], "unknown function 'nosuch'"),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faulty_programs_die_of_the_trees_message(name):
    src, args, message = FAULTS[name]
    said = {}
    for engine in ("tree", "compiled"):
        with pytest.raises(InterpreterError, match=message) as exc:
            _run(parse_program(src), "s", args, engine=engine)
        said[engine] = str(exc.value)
    assert said["compiled"] == said["tree"]


# ---------------------------------------------------------------------------
# the closure tier is gone


def test_no_closure_tier_and_no_fallback_request(monkeypatch):
    for name in ("_expr", "_stmt", "_assign", "_do_loop", "_binop"):
        assert not hasattr(Compiler, name)
    texts = []
    cache = get_cache()
    served = cache.jit_source

    def spy(source, *, fingerprint, emit):
        texts.append(served(source, fingerprint=fingerprint, emit=emit))
        return texts[-1]

    monkeypatch.setattr(cache, "jit_source", spy)
    for src in (GOTO_OUT, PRINT, FAULTS["zero-do-step"][0]):
        try:
            _run(parse_program(src), "s", [4, A4], engine="compiled",
                 shadow=ShadowRecorder())
        except InterpreterError:
            pass
    assert len(texts) >= 5
    assert not any("fb(" in text or "fallback" in text for text in texts)
    assert any(text.endswith("make = None\n") for text in texts)


# ---------------------------------------------------------------------------
# (d) an unrecorded DOALL the text writes whole runs each worker's share
#     as one worker function

#: name -> (program, args, worker functions its shares run on)
WORKER_SHAPES = {
    "loop-local-array": (lambda: _cedar("""
      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n), t(3)
      do i = 1, n
         t(1) = a(i)
         do j = 2, 3
            t(j) = t(j - 1) * 0.5 + a(i)
         end do
         b(i) = t(1) + t(2) * t(3)
      end do
      end
""", i=dict(level="C", locals_=_stmts("real t(3)"))),
        lambda: [7, np.linspace(-1.5, 2.0, 7), np.zeros(7)], 1),
    "preamble-postamble-and-lock": (lambda: _cedar("""
      subroutine s(n, a, b, total)
      integer n, i
      real a(n), b(n), total, p
      do i = 1, n
         p = p + a(i)
         b(i) = p * 2.0
      end do
      end
""", i=dict(level="S", locals_=_stmts("real p"),
            preamble=_stmts("p = 0.5"),
            postamble=[LockStmt(name="l"), *_stmts("total = total + p"),
                       UnlockStmt(name="l")])),
        lambda: [7, np.linspace(-1.5, 2.0, 7), np.zeros(7), 0.25], 1),
    "sdoall-around-cdoall": (lambda: _cedar("""
      subroutine s(n, m, a, b)
      integer n, m, i, j, k
      real a(n), b(n, m), x
      do j = 1, m
         do i = 1, n
            x = 0.0
            do k = 1, i
               x = x * 0.5 + a(k) * j
            end do
            b(i, j) = x
         end do
      end do
      end
""", j=dict(level="S"), i=dict(level="C", locals_=_stmts("real x"))),
        lambda: [7, 3, np.linspace(-1.5, 2.0, 7), np.zeros((7, 3))], 2),
    "zero-trip-with-a-preamble": (lambda: _cedar("""
      subroutine s(n, a, c)
      integer n, i
      real a(n), c
      do i = 1, n - n
         a(i) = a(i) + 1.0
      end do
      end
""", i=dict(level="C", preamble=_stmts("c = c + 1.0"))),
        lambda: [4, np.copy(A4), 0.5], 1),
    "goto-in-the-body": (lambda: _cedar("""
      subroutine s(n, a, b)
      integer n, i
      real a(n), b(n)
      do i = 1, n
         b(i) = 0.0
         if (a(i) .lt. 0.0) goto 10
         b(i) = a(i) * 2.0
   10    continue
      end do
      end
""", i=dict(level="C")), lambda: [4, np.copy(A4), np.zeros(4)], 0),
}


@pytest.mark.parametrize("deal", [lossy_deal, duplicating_deal],
                         ids=["lossy", "duplicating"])
@pytest.mark.parametrize("name", sorted(WORKER_SHAPES))
def test_worker_text_is_the_trees(name, deal, monkeypatch):
    """Both engines give the same bits in the same steps under deals
    that drop or repeat an iteration; the compiled engine runs the
    shares on the shape's worker functions, and a DOALL whose body
    holds a GOTO on ``_parallel_do``'s per-iteration lists."""
    make, make_args, workers = WORKER_SHAPES[name]
    program = make()
    parallel_do = Interpreter._parallel_do
    calls = []

    def spy(self, s, scope, unit, worker=None):
        calls.append(worker and worker.__name__)
        return parallel_do(self, s, scope, unit, worker)

    monkeypatch.setattr(Interpreter, "_parallel_do", spy)
    runs = {engine: _run(program, "s", make_args(), engine=engine,
                         processors=4, deal=deal)
            for engine in ("tree", "compiled")}
    (tree, _, t), (fast, _, c) = runs["tree"], runs["compiled"]
    assert_bit_identical(tree, fast, name)
    assert c._steps == t._steps
    assert calls and len(set(calls) - {None}) == workers
    assert c._compiler.tree_lists == (workers == 0)


def test_csr_row_loop_runs_no_body_list_unrecorded(monkeypatch):
    """``spmv``'s CSR row loop is the engagement: unrecorded, its shares
    run on a worker function and its body list never reaches
    ``Compiler.exec_body``; race-checked, ``_parallel_do`` still runs
    the list iteration by iteration."""
    case = validation_cases()["sparse"]
    program, _ = cached_restructure(case.source)
    [row_loop] = [n for n in program.unit("spmv").walk()
                  if isinstance(n, ParallelDo)]
    exec_body = Compiler.exec_body
    lists = []

    def spy(self, stmts, scope, unit):
        lists.append(stmts)
        return exec_body(self, stmts, scope, unit)

    monkeypatch.setattr(Compiler, "exec_body", spy)
    body_runs = {}
    for shadowed in (False, True):
        lists.clear()
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        Interpreter(program, processors=8, engine="compiled",
                    shadow=ShadowRecorder() if shadowed else None
                    ).call(case.entry, *args)
        body_runs[shadowed] = sum(stmts is row_loop.body
                                  for stmts in lists)
    assert body_runs[False] == 0
    assert body_runs[True] > 0


def test_only_the_unrecorded_text_has_worker_functions(monkeypatch):
    """Worker functions, and no recorder test, in the unrecorded text;
    none in the recorder-aware text, whose DOALLs keep
    ``_parallel_do``'s instrumented walk."""
    cache = get_cache()
    served = cache.jit_source
    texts = {False: [], True: []}

    def spy(source, *, fingerprint, emit):
        text = served(source, fingerprint=fingerprint, emit=emit)
        texts[fingerprint.split("|")[0].endswith("r")].append(text)
        return text

    monkeypatch.setattr(cache, "jit_source", spy)
    case = validation_cases()["sparse"]
    programs = [(cached_restructure(case.source)[0], case.entry,
                 lambda: case.make_args(case.n,
                                        np.random.default_rng(3))[0])]
    programs += [(make(), "s", make_args)
                 for make, make_args, _ in WORKER_SHAPES.values()]
    for program, entry, make_args in programs:
        for shadow in (None, ShadowRecorder()):
            _run(program, entry, make_args(), engine="compiled",
                 processors=4, shadow=shadow)
    assert any("def _p" in text for text in texts[False])
    assert not any("SH." in text or "record_" in text
                   for text in texts[False])
    assert texts[True]
    assert not any("def _p" in text for text in texts[True])


# ---------------------------------------------------------------------------
# (e) scalar stores convert by the declared type

DECLARED_TYPE = """
      subroutine s(y)
      real y(2), s, r
      s = 1
      y(1) = s / 2
      r = 0
      r = r + 0.5
      y(2) = r
      end
"""


@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_a_real_store_of_an_integer_keeps_a_float(engine):
    """A REAL name assigned an integer holds a float: ``s / 2`` divides
    as reals, and a later ``r + 0.5`` is not truncated."""
    out, _, _ = _run(parse_program(DECLARED_TYPE), "s", [np.zeros(2)],
                     engine=engine)
    assert out["y"].tolist() == [0.5, 0.5]


@pytest.mark.parametrize("shadowed", [False, True])
@pytest.mark.parametrize("engine", ["tree", "compiled"])
def test_a_private_store_obeys_its_loop_declaration(engine, shadowed):
    """A DOALL's private scalar is stored as its ``locals_`` declare it,
    whatever the unit's implicit rule says of the name: ``upper`` (REAL
    by the rule) truncates, ``kr`` (INTEGER by it) holds a float."""
    program = _cedar("""
      subroutine s(n, a, b)
      integer n, i
      real a(n), b(n)
      do i = 1, n
         upper = a(i) * 2.0
         kr = i
         b(i) = upper + kr / 2
      end do
      end
""", i=dict(level="C", locals_=_stmts("integer upper", "real kr")))
    a = np.linspace(-1.5, 2.0, 5)
    out, _, _ = _run(program, "s", [5, a, np.zeros(5)], engine=engine,
                     processors=4,
                     shadow=ShadowRecorder() if shadowed else None)
    want = np.trunc(a * 2.0) + np.arange(1, 6) / 2
    assert out["b"].tolist() == want.tolist()


# ---------------------------------------------------------------------------
# (f) unrecorded, a closed region keeps its scalars in locals

#: name -> (program, args, budget, whether a region names a local);
#: every region also keeps the per-access text of the names it may not
#: promote
CLOSED = {
    "reads-a-common-scalar": (lambda: parse_program("""
      subroutine s(n, a, b)
      integer n, i
      real a(n), b(n), w, t
      common /c/ w
      w = 0.5
      t = 0.0
      do i = 1, n
         t = t + a(i) * w
         b(i) = t
      end do
      end
"""), lambda: [5, np.linspace(-1.5, 2.0, 5), np.zeros(5)], None),
    "reads-a-dummy-bound-to-an-element": (lambda: parse_program("""
      subroutine f(x, n, b)
      integer n, i
      real x, b(n), t
      t = 0.0
      do i = 1, n
         t = t * 0.5 + x
         b(i) = t
      end do
      end

      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      call f(a(3), n, b)
      end
"""), lambda: [5, np.linspace(-1.5, 2.0, 5), np.zeros(5)], None),
    "reads-an-unbound-local-first": (lambda: parse_program("""
      subroutine s(n, a, b)
      integer n, i
      real a(n), b(n), u
      do i = 1, n
         b(i) = a(i) + u
         u = a(i)
      end do
      end
"""), lambda: [5, np.linspace(-1.5, 2.0, 5), np.zeros(5)], None),
    "trips-the-budget-in-its-inner-loop": (lambda: parse_program("""
      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n), t
      do i = 1, n
         t = 0.0
         do j = 1, i
            t = t * 0.5 + a(j)
         end do
         b(i) = t
      end do
      end
"""), lambda: [5, np.linspace(-1.5, 2.0, 5), np.zeros(5)], 12),
    "has-a-zero-trip-inner-do": (lambda: parse_program("""
      subroutine s(n, a, b)
      integer n, i, j
      real a(n), b(n), t
      j = 7
      do i = 1, n
         t = a(i)
         do j = i, 2
            t = t * 2.0 + 1.0
         end do
         b(i) = t + j
      end do
      end
"""), lambda: [5, np.linspace(-1.5, 2.0, 5), np.zeros(5)], None),
    "doall-shares-write-a-shared-scalar": (lambda: _cedar("""
      subroutine s(n, a, b)
      integer n, i
      real a(n), b(n), x
      x = 0.25
      do i = 1, n
         b(i) = x
         x = a(i) * 2.0
      end do
      a(1) = x
      end
""", i=dict(level="C")), lambda: [7, np.linspace(-1.5, 2.0, 7),
                                  np.zeros(7)], None),
}


def _texts(monkeypatch) -> list:
    """The module texts the compiled engine is served from now on."""
    cache = get_cache()
    served = cache.jit_source
    texts = []

    def spy(source, *, fingerprint, emit):
        texts.append(served(source, fingerprint=fingerprint, emit=emit))
        return texts[-1]

    monkeypatch.setattr(cache, "jit_source", spy)
    return texts


@pytest.mark.parametrize("processors", [1, 4])
@pytest.mark.parametrize("name", sorted(CLOSED))
def test_closed_regions_are_the_trees(name, processors, monkeypatch):
    """The same bits in the same steps, or the same error at the same
    line, with each loop run as a closed region on locals of its
    scalars (none of them has a vector form)."""
    make, make_args, budget = CLOSED[name]
    program = make()
    texts = _texts(monkeypatch)
    runs = {}
    for engine in ("tree", "compiled"):
        interp = Interpreter(program, engine=engine, processors=processors,
                             step_budget=budget or Interpreter.STEP_BUDGET)
        try:
            runs[engine] = (interp.call("s", *make_args()), None)
        except InterpreterError as exc:
            runs[engine] = (None, (type(exc), str(exc),
                                   getattr(exc, "line", None)))
        runs[engine] += (interp._steps,)
    assert interp._compiler.vectorized_loops == 0
    (tree, terr, tsteps), (fast, ferr, fsteps) = (runs["tree"],
                                                  runs["compiled"])
    assert ferr == terr
    assert fsteps == tsteps
    if terr is None:
        assert_bit_identical(tree, fast, name)
    else:
        assert name in ("reads-an-unbound-local-first",
                        "trips-the-budget-in-its-inner-loop")
    assert any("# closed region" in text for text in texts)


def test_closed_regions_keep_common_names_and_dummies_per_access(
        monkeypatch):
    """A COMMON name or dummy argument may be bound to a box: its reads
    in a closed region stay lookups of its holder."""
    texts = _texts(monkeypatch)
    for name in ("reads-a-common-scalar",
                 "reads-a-dummy-bound-to-an-element"):
        make, make_args, _ = CLOSED[name]
        _run(make(), "s", make_args(), engine="compiled")
    text = "\n".join(texts)
    assert ".get('w')" in text and ".get('x')" in text
    assert "_u" in text


def test_integer_accumulator_is_the_trees(monkeypatch):
    """A reduction into an INTEGER accumulator replays every truncating
    store on a local and stores it back once, in the tree's steps, as a
    closed region of the scalar text."""
    src = """
      subroutine s(n, a, b)
      integer n, i, k
      real a(n), b(n)
      k = 3
      do i = 1, n
         k = k + a(i) * 2.5
      end do
      b(1) = k
      end
"""
    texts = []

    def spy(*args):
        texts.append(emit_module(*args))
        return texts[-1]

    monkeypatch.setattr(compiled, "emit_module", spy)
    monkeypatch.setattr(get_cache(), "jit_source",
                        lambda source, *, fingerprint, emit: emit())
    a = np.linspace(-3.7, 4.1, 9)
    k = 3
    for x in a:
        k = int(k + x * 2.5)
    args = [9, a, np.zeros(9)]
    for processors in (1, 4):
        (tree, _, t), (fast, _, c) = [
            _run(parse_program(src), "s", args, engine=engine,
                 processors=processors)
            for engine in ("tree", "compiled")]
        assert_bit_identical(tree, fast, f"P={processors}")
        assert fast["b"][0] == k
        assert c._compiler.vectorized_loops == 0
        assert c._steps == t._steps
    assert any("# closed region" in text and "SV('i', 'k'" in text
               for text in texts)


def test_spmv_worker_inner_loop_looks_nothing_up():
    """The unrecorded ``spmv`` worker's CSR inner loop reads and stores
    its scalars as locals: no lookup of a holder, no store ladder."""
    program, _ = cached_restructure(validation_cases()["sparse"].source)
    interp = Interpreter(program, engine="compiled")
    text = emit_module(interp, interp.units["spmv"].body, "spmv")
    lines = text.splitlines()
    start = next(k for k, line in enumerate(lines)
                 if "for _u" in line and "in range(" in line)
    depth = len(lines[start]) - len(lines[start].lstrip())
    inner = []
    for line in lines[start + 1:]:
        if len(line) - len(line.lstrip()) <= depth:
            break
        inner.append(line)
    assert inner
    body = "\n".join(inner)
    assert not re.search(r"_d\d+\.get\(", body)
    assert "isinstance(_o, FA)" not in body and "BOXW" not in body
