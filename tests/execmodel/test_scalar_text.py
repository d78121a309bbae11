"""The compiled engine's scalar text (repro.execmodel.source_jit).

Every statement the loop lowerer does not take as a whole grid is
written into its list's module as scalar Python over the ``Runtime``
helpers; a list holding a statement kind that text does not cover runs
whole on the tree walk.  The tree is the oracle: generated programs the
22 workloads never shaped are bit-identical on both engines, under the
race detector too; every declined kind gives the tree's result; and a
faulty program dies of the tree's own message.
"""

import numpy as np
import pytest

from repro.cedar.nodes import WhereStmt
from repro.engine import cached_parse, cached_restructure
from repro.engine.cache import get_cache
from repro.errors import InterpreterBudgetError, InterpreterError
from repro.execmodel.compiled import Compiler
from repro.execmodel.interp import Interpreter, cyclic_deal
from repro.execmodel.shadow import ShadowRecorder
from repro.fortran import ast_nodes as F
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.validate.configs import PIPELINE_CONFIGS
from tests.execmodel.test_engine_equivalence import assert_bit_identical
from tests.validate.test_order_independence import reversed_deal

FUZZ_SEED, FUZZ_COUNT = 2, 40


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


def test_goto_lands_on_a_label_of_an_emitted_list():
    """The IF arm holding the GOTO runs on the tree; the DO body it
    jumps within is module text, and its label map takes the signal."""
    _, _, interp = _run(parse_program(GOTO_OUT), "s", [4, A4],
                        engine="compiled")
    comp = interp._compiler
    assert (comp.tree_lists, comp.scalar_stmts) == (1, 5)


@pytest.mark.parametrize("src,budget", [(SPIN, 5000), (GOTO_OUT, 9)],
                         ids=["in-a-tree-list", "in-an-emitted-list"])
def test_budget_trip_names_the_trees_line(src, budget):
    sf = parse_program(src)
    tripped = {}
    for engine in ("tree", "compiled"):
        interp = Interpreter(sf, step_budget=budget, engine=engine)
        with pytest.raises(InterpreterBudgetError) as exc:
            interp.call("s", 4, np.copy(A4))
        tripped[engine] = (str(exc.value), exc.value.line)
    assert tripped["compiled"] == tripped["tree"]
    assert f"statement budget of {budget} exceeded in s" \
        in tripped["tree"][0]
    assert tripped["tree"][1] is not None


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
