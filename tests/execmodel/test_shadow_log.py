"""The recorder's array analysis against a brute-force reference.

``ShadowRecorder.close_loop`` decides conflicts on per-cell iteration
extremes over a flat NumPy log; the reference below decides them the
slow, obvious way — every pair of access events — over a model of the
same log kept by the test.  Random scripts drive both through the
public API only.
"""

import copy
import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cedar.nodes import ParallelDo
from repro.engine import cached_restructure
from repro.errors import InterpreterError
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import SMALL_LOG, ShadowRecorder
from repro.execmodel.values import FArray, Scope
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases
from tests.execmodel.test_lowered_recording import as_doall
from tests.validate.test_race_detector import LogsEveryLoop

CASES = validation_cases()

#: small enough that the whole 3x3 array coarsens to a supercell
CAP = 8
ALL = "all"

#: name -> (storage key, lower bounds, shape); ``b`` aliases ``a``
ARRAYS = {"a": ("v", (1,), (6,)), "b": ("v", (1,), (6,)),
          "m": ("m", (0, 1), (3, 3))}

kinds = st.sampled_from("rw")
bound = st.integers(1, 6)
row = st.integers(0, 2)
col = st.integers(1, 3)
control = st.one_of(
    st.tuples(st.sampled_from(("open", "close", "suspend", "resume"))),
    st.tuples(st.sampled_from(("lock", "unlock")),
              st.sampled_from(("p", "q"))),
)
access = st.one_of(
    st.tuples(st.just("scalar"), st.sampled_from(("s", "t")), kinds),
    st.tuples(st.just("elem"), st.sampled_from("ab"), kinds,
              st.tuples(bound)),
    st.tuples(st.just("elem"), st.just("m"), kinds, st.tuples(row, col)),
    st.tuples(st.just("sect"), st.sampled_from("ab"), kinds,
              st.tuples(st.tuples(bound, bound, st.sampled_from((None, 2))))),
    st.tuples(st.just("sect"), st.just("m"), kinds,
              st.tuples(row, st.tuples(col, col, st.none()))),
    st.tuples(st.just("whole"), st.sampled_from("abm"), kinds),
)
#: an iteration of the innermost open loop: its number, then its body
iterations = st.tuples(
    st.tuples(st.just("iter"), st.integers(1, 6)),
    st.lists(st.one_of(access, access, control), min_size=1, max_size=6))
scripts = st.lists(iterations, min_size=2, max_size=8).map(
    lambda its: [op for head, body in its for op in (head, *body)])


def cells_of(name, op, arg):
    """Fortran subscript tuples an access touches, or ALL past the cap."""
    _, lowers, shape = ARRAYS[name]
    if op == "elem":
        return [arg]
    axes = []
    for dim, (lo, n) in enumerate(zip(lowers, shape)):
        spec = arg[dim] if op == "sect" else (None, None, None)
        if isinstance(spec, tuple):
            first, last, step = spec
            axes.append(range(lo if first is None else first,
                              (lo + n - 1 if last is None else last) + 1,
                              step or 1))
        else:
            axes.append((spec,))
    cells = list(itertools.product(*axes))
    return ALL if len(cells) > CAP else cells


def reference(events):
    """{(var key, kind, cell)}: two accesses to one cell (an array's
    supercell touches each of its element cells), different iterations,
    at least one write, no common lock."""
    def clash(x, y):
        return x[3] != y[3] and not (x[4] & y[4])

    out = set()
    for e in (e for e in events if e[2] == "w"):
        touching = [o for o in events if o[0] == e[0] and (
            o[1] == e[1] or (o[1] == ALL and e[1] != ALL))]
        own = [o for o in touching if o[1] == e[1] and o[2] == "w"]
        if any(clash(x, y) for x in own for y in touching if y[2] == "w"):
            out.add((e[0], "write-write", e[1]))
        elif any(clash(x, y) for x in own for y in touching if y[2] == "r"):
            out.add((e[0], "read-write", e[1]))
    return out


class Model:
    """One open loop as the reference sees it."""

    def __init__(self, label, ctx, wscope):
        self.label, self.ctx, self.wscope = label, ctx, wscope
        self.iteration, self.suspended, self.events = None, False, []


@settings(max_examples=300, deadline=None)
@given(scripts)
def test_array_analysis_matches_pairwise_reference(script):
    sh = ShadowRecorder()
    sh.expand_cap = CAP
    storage = {"v": np.zeros(6), "m": np.zeros((3, 3))}
    arrays = {n: FArray(storage[k], lo) for n, (k, lo, _) in ARRAYS.items()}
    root = Scope()
    names: dict = {}          # storage key -> display name (first logged)
    expected = set()
    loops: list[Model] = []

    def open_loop(label):
        parent = loops[-1].wscope if loops else root
        m = Model(label, sh.open_loop(label, 6), Scope(parent=parent))
        m.wscope.declare("t", 0.0)        # loop-local: never recorded
        sh.begin_worker(m.ctx, m.wscope)
        loops.append(m)

    def close_loop():
        m = loops.pop()
        sh.close_loop(m.ctx)
        expected.update((m.label, names[key], kind, cell)
                        for key, kind, cell in reference(m.events))

    def log(key, name, cells, kind):
        for m in loops:
            if m.iteration is None or m.suspended:
                continue
            names.setdefault(key, name)
            for cell in ([ALL] if cells == ALL else cells):
                m.events.append((key, cell, kind, m.iteration,
                                 frozenset(held)))

    held: set = set()
    open_loop("outer")
    for op, *args in script:
        inner = loops[-1]
        if op == "iter":
            inner.iteration = args[0]
            sh.begin_iteration(inner.ctx, args[0])
        elif op == "open":
            if len(loops) == 1 and inner.iteration is not None:
                open_loop("inner")
        elif op == "close":
            if len(loops) == 2:
                close_loop()
        elif op in ("suspend", "resume"):
            inner.suspended = op == "suspend"
            getattr(sh, op)(inner.ctx)
        elif op == "lock":
            held.add(args[0])
            sh.acquire(args[0])
        elif op == "unlock":
            held.discard(args[0])
            sh.release(args[0])
        elif op == "scalar":
            name, kind = args
            if name == "t":               # private to the innermost loop
                sh.record_scalar(inner.wscope, "t", kind)
            else:
                sh.record_scalar(root, "s", kind)
                log("s", "s", [None], kind)
        else:
            name, kind, *arg = args
            arg = arg[0] if arg else None
            sh.record_array(arrays[name], name, kind,
                            idx=arg if op == "elem" else None,
                            specs=list(arg) if op == "sect" else None)
            log(ARRAYS[name][0], name, cells_of(name, op, arg), kind)
    while loops:
        close_loop()

    got = {(c.loop, c.var, c.kind, c.element) for c in sh.conflicts}
    assert got == {(loop, var, kind, None if cell == ALL else cell)
                   for loop, var, kind, cell in expected}
    assert all(c.iterations[0] < c.iterations[1] for c in sh.conflicts)


def test_worker_private_pins_die_with_their_loop():
    """Worker-private arrays are pinned so their ids stay unique while
    the loop's ``private_data`` refers to them — for that long only.
    They used to accumulate on the recorder for the whole run."""
    def pins_after(workers):
        sh = ShadowRecorder()
        shared = FArray(np.zeros(4), (1,))
        ctx = sh.open_loop("do i @ test", workers)
        for w in range(workers):
            wscope = Scope(parent=Scope())
            wscope.declare("tmp", FArray.zeros("real", [(1, 32)]))
            sh.begin_worker(ctx, wscope)
            sh.begin_iteration(ctx, w)
            sh.record_array(wscope.get("tmp"), "tmp", "w", idx=(1,))
            sh.record_array(shared, "x", "w", idx=(1 + w % 4,))
        sh.close_loop(ctx)
        return len(sh._pins)

    assert pins_after(2) == pins_after(200) == 1


def restructured(wname, config, stripped):
    """A case's restructured program; ``stripped`` drops every DOALL's
    private declarations so that it races."""
    case = CASES[wname]
    cedar, _ = cached_restructure(case.source, PIPELINE_CONFIGS[config]())
    if stripped:
        cedar = copy.deepcopy(cedar)     # the cached program is shared
        for node in cedar.walk():
            if isinstance(node, ParallelDo):
                node.locals_ = []
    return cedar


def verdicts(wname, config, stripped, engine, recorder):
    """What a race-checked run of one case says: the error it stopped
    with, the loops it counted and its conflicts, in order."""
    case = CASES[wname]
    sh, error = recorder(), None
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    try:
        Interpreter(restructured(wname, config, stripped), processors=8,
                    shadow=sh, engine=engine).call(case.entry, *args)
    except InterpreterError as exc:
        # a stripped array local is undeclared: every run stops there
        error = str(exc)
    return error, sh.loops_checked, [c.to_dict() for c in sh.conflicts]


@functools.lru_cache(maxsize=None)
def shipped_verdicts(wname, config, stripped, engine):
    return verdicts(wname, config, stripped, engine, ShadowRecorder)


@pytest.mark.parametrize("engine", ["tree", "compiled"])
@pytest.mark.parametrize("stripped", (False, True),
                         ids=("intact", "stripped"))
@pytest.mark.parametrize("config", ["automatic", "manual"])
@pytest.mark.parametrize("wname", sorted(CASES))
def test_two_iteration_rule_changes_no_verdict(wname, config, stripped,
                                              engine):
    """Every case and configuration, as restructured and with its
    privatisation stripped so that it races: the recorder that logs
    only executions of two or more iterations counts the same loops
    and reports the same conflicts, in the same order, as one that
    logs every execution."""
    assert shipped_verdicts(wname, config, stripped, engine) \
        == verdicts(wname, config, stripped, engine, LogsEveryLoop)


class LogsEveryRead(ShadowRecorder):
    """The recorder without the read rule: every log it opens keeps the
    reads of storage its loop cannot write too."""

    def open_loop(self, label, n, read_only=frozenset()):
        return super().open_loop(label, n)


@pytest.mark.parametrize("engine", ["tree", "compiled"])
@pytest.mark.parametrize("stripped", (False, True),
                         ids=("intact", "stripped"))
@pytest.mark.parametrize("config", ["automatic", "manual"])
@pytest.mark.parametrize("wname", sorted(CASES))
def test_read_rule_changes_no_verdict(wname, config, stripped, engine):
    """The same grid: the recorder that drops reads of storage no
    iteration of their loop writes says what one that logs every read
    says — the same error, loop count, and conflicts in the same order
    with the same names, elements and iteration pairs."""
    assert shipped_verdicts(wname, config, stripped, engine) \
        == verdicts(wname, config, stripped, engine, LogsEveryRead)


# ---------------------------------------------------------------------------
# the read rule on programs built to test it


@pytest.mark.parametrize("config", ["automatic", "manual"])
@pytest.mark.parametrize("wname", sorted(CASES))
def test_read_only_memo_is_a_fresh_computation(wname, config, monkeypatch):
    """On every execution that opens a log the memoised read-only set
    is the set worked out afresh in the same scope."""
    case = CASES[wname]
    memoised = Interpreter._read_only

    def checked(self, s, scope):
        keys = memoised(self, s, scope)
        assert keys == self._read_keys(s, scope)[0]
        return keys

    monkeypatch.setattr(Interpreter, "_read_only", checked)
    interp = Interpreter(restructured(wname, config, False), processors=8,
                         shadow=ShadowRecorder(), engine="compiled")
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    interp.call(case.entry, *args)


class TestReadOnlyMemo:
    """The memo per loop site misses on every change a fresh
    computation would see."""

    SRC = """
      subroutine t(n, a, b)
      integer n, i
      real a(8), b(8)
      do i = 1, n
         a(i) = b(i) * n
      end do
      end
"""

    def setup_method(self):
        sf = parse_program(self.SRC)
        self.interp = Interpreter(sf)
        self.loop = as_doall(sf.units[0].body[0])
        self.unit = Scope()
        self.unit.declare("n", 8)
        self.unit.declare("a", FArray(np.zeros(8), (1,)))
        self.unit.declare("b", FArray(np.ones(8), (1,)))

    def keys(self, scope):
        got = self.interp._read_only(self.loop, scope)
        assert got == self.interp._read_keys(self.loop, scope)[0]
        return got

    def test_a_new_scalar_value_hits(self):
        first = self.keys(self.unit)
        self.unit.vars["n"] = 5
        assert self.keys(self.unit) is first

    def test_an_array_rebound_in_its_scope_misses(self):
        first = self.keys(self.unit)
        b = FArray(np.ones(8), (1,))
        self.unit.vars["b"] = b
        again = self.keys(self.unit)
        assert id(b.data) in again and again != first

    def test_a_new_inner_binding_misses(self):
        inner = Scope(parent=self.unit)
        first = self.keys(inner)
        b = FArray(np.ones(8), (1,))
        inner.declare("b", b)
        again = self.keys(inner)
        assert id(b.data) in again and again != first
        inner.declare("n", 3)
        assert (id(inner), "n") in self.keys(inner)

    def test_another_scope_misses(self):
        first = self.keys(self.unit)
        other = Scope(parent=self.unit)
        assert self.keys(other) == first
        assert self.interp._read_sets[id(self.loop)][0] is other


class KeepsLogs:
    """Mixin: each closed log's rows, per loop execution, as
    ``(label, {kind: {(name, offset, iteration)}})``."""

    def __init__(self):
        super().__init__()
        self.logs = []

    def _analyze(self, ctx):
        rows = {kind: {(self._names[tok], off, it)
                       for tok, off, it, _ in log.flat().tolist()}
                for kind, log in (("w", ctx.writes), ("r", ctx.reads))}
        self.logs.append((ctx.label, rows))
        return super()._analyze(ctx)


class Shipped(KeepsLogs, ShadowRecorder):
    pass


class EveryRead(KeepsLogs, LogsEveryRead):
    pass


def checked_run(program, entry, args, engine, recorder):
    sh = recorder()
    fresh = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
    Interpreter(program, processors=4, shadow=sh,
                engine=engine).call(entry, *fresh)
    return sh


def both_recorders(program, entry, args, engine):
    """The shipped recorder's run and the every-read reference's, after
    checking that they report the same conflicts and write rows."""
    sh = checked_run(program, entry, args, engine, Shipped)
    ref = checked_run(program, entry, args, engine, EveryRead)
    assert sh.loops_checked == ref.loops_checked
    assert sh.conflicts == ref.conflicts
    assert [(label, rows["w"]) for label, rows in sh.logs] \
        == [(label, rows["w"]) for label, rows in ref.logs]
    return sh, ref


def doall_everywhere(src):
    """``src`` parsed, with every DO loop of every unit a DOALL (an
    inner loop stays one: ``as_doall`` keeps the body it is given)."""
    sf = parse_program(src)

    def convert(stmts):
        for k, st in enumerate(stmts):
            if isinstance(st, F.DoLoop):
                convert(st.body)
                stmts[k] = as_doall(st)

    for unit in sf.units:
        convert(unit.body)
    return sf


def read_names(sh, loop=None):
    return {name for label, rows in sh.logs
            if loop is None or loop in label
            for name, _, _ in rows["r"]}


ENGINES = ["tree", "compiled"]

ALIASED_DUMMIES_SRC = """
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


@pytest.mark.parametrize("engine", ENGINES)
def test_a_written_alias_keeps_the_read_only_names_reads(engine):
    """``b`` is read only, but it is ``a``'s storage, which the loop
    writes: its reads stay logged and the race is reported."""
    sf = doall_everywhere(ALIASED_DUMMIES_SRC)
    sh, _ = both_recorders(sf, "top", [16, np.arange(16.0)], engine)
    assert {c.kind for c in sh.conflicts} == {"read-write"}
    assert read_names(sh) == {"b"}      # the reads of ``b`` are logged


CALL_IN_LOOP_SRC = """
      subroutine top(n, x, y, z)
      integer n, i
      real x(8), y(8), z(8)
      do i = 1, n
         call f(i, x)
         y(i) = z(i)
      end do
      end
      subroutine f(i, x)
      integer i
      real x(8)
      x(i) = 1.0
      end
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_a_loop_that_calls_a_routine_logs_every_read(engine):
    """A CALL can write storage the loop's syntax does not name, so
    the loop has no read-only set: ``z`` is never written, and its
    reads are logged all the same."""
    sf = doall_everywhere(CALL_IN_LOOP_SRC)
    [pdo] = [n for n in sf.units[0].walk() if isinstance(n, ParallelDo)]
    assert Interpreter(sf)._summarize(pdo) == (None, None)
    sh, ref = both_recorders(sf, "top", [8, np.zeros(8), np.zeros(8),
                                         np.arange(8.0)], engine)
    assert [rows["r"] for _, rows in sh.logs] \
        == [rows["r"] for _, rows in ref.logs]
    assert "z" in read_names(sh)


COMMON_SRC = """
      subroutine top(n, x, y)
      integer n, i
      real x(8), y(8), c
      common /blk/ c
      c = 2.0
      do i = 1, n
         y(i) = x(i) * c
      end do
      do i = 1, n
         c = x(i)
         y(i) = c
      end do
      end
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_a_read_only_common_scalar_is_not_logged(engine):
    """A COMMON scalar lives in a box, keyed like an array: the first
    loop only reads ``c`` and logs none of it, the second writes it and
    races on it as before."""
    sf = doall_everywhere(COMMON_SRC)
    sh, ref = both_recorders(sf, "top", [8, np.arange(8.0), np.zeros(8)],
                             engine)
    first, second = [label for label, _ in sh.logs]
    assert "c" not in read_names(sh, first)
    assert "c" in read_names(ref, first)
    assert "c" in read_names(sh, second)
    assert [(c.loop, c.var) for c in sh.conflicts][0] == (second, "c")


NESTED_POSTAMBLE_SRC = """
      subroutine nest(n, m, x, y, t)
      integer n, m, i, j
      real x(8, 8), y(8), t
      do i = 1, n
         do j = 1, m
            p1 = p1 + x(i, j)
         end do
         y(i) = t
      end do
      end
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_an_inner_postamble_write_keeps_the_outer_read(engine):
    """The inner DOALL's postamble writes ``t`` (under its lock) and the
    outer body reads it: ``t`` may be written by an outer iteration, so
    the outer log keeps the read — the only side of the race that holds
    no lock."""
    sf = parse_program(NESTED_POSTAMBLE_SRC)
    outer = sf.units[0].body[-1]
    outer.body[0] = as_doall(outer.body[0], partials=[("p1", 0.0, "t", "+")],
                             level="C")
    sf.units[0].body[-1] = as_doall(outer)
    sh, _ = both_recorders(sf, "nest", [8, 3, np.ones((8, 8)), np.zeros(8),
                                        0.0], engine)
    outer_label = sh.logs[-1][0]
    assert "t" in read_names(sh, outer_label)
    assert [(c.var, c.kind) for c in sh.conflicts] == [("t", "read-write")]


TWO_ROUTINE_SRC = """
      subroutine top(n, p, q)
      integer n, i
      real p(16), q(16)
      call sub(n, p, q)
      do i = 1, n
         p(1) = q(i)
      end do
      end
      subroutine sub(n, x, q)
      integer n, i
      real x(16), q(16), t
      do i = 1, n
{body}
      end do
      end
"""

#: ``sub``'s loop body: one the compiled engine runs as a grid (bulk
#: rows), and one with a private scalar it runs on scalar text
SUB_BODIES = {
    "grid": "         q(i) = x(i) * 2.0",
    "scalar": "         t = x(i) * 2.0\n         q(i) = t",
}


@pytest.mark.parametrize("body", sorted(SUB_BODIES))
@pytest.mark.parametrize("engine", ENGINES)
def test_a_skipped_read_still_names_the_storage(engine, body):
    """``sub``'s loop reads ``p``'s storage as ``x`` and logs none of
    it, yet the race ``top``'s loop then has on ``p(1)`` is reported as
    ``x(1)``: the skipped read registered the storage's name, as a
    logged one would have."""
    sf = doall_everywhere(TWO_ROUTINE_SRC.format(body=SUB_BODIES[body]))
    if body == "scalar":
        loop = sf.units[1].body[-1]
        loop.locals_ = as_doall(loop, locals_=[("t", "real")]).locals_
    sh, _ = both_recorders(sf, "top", [16, np.arange(16.0), np.zeros(16)],
                           engine)
    assert "x" not in read_names(sh)
    assert [(c.var, c.element, c.kind) for c in sh.conflicts] \
        == [("x", (1,), "write-write")]


@pytest.mark.parametrize("engine", ENGINES)
def test_spmv_logs_no_read_of_its_operands(engine):
    """The guard that the rule engages: ``sparse``'s row loop writes
    only ``y`` (and its private ``s`` and ``k``), so its log keeps no
    read of ``rowptr``, ``val``, ``col`` or ``x`` — every read the
    every-read reference logs there — and the same write rows."""
    case = CASES["sparse"]
    cedar, _ = cached_restructure(case.source,
                                  PIPELINE_CONFIGS["automatic"]())
    spmv = next(u for u in cedar.units if u.name == "spmv")
    [pdo] = [n for n in spmv.walk() if isinstance(n, ParallelDo)]
    label = Interpreter._loop_label(pdo)
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    sh, ref = both_recorders(cedar, case.entry, args, engine)
    mine = [rows for lbl, rows in sh.logs if lbl == label]
    theirs = [rows for lbl, rows in ref.logs if lbl == label]
    assert mine and len(mine) == len(theirs)
    assert all(not rows["r"] for rows in mine)
    assert len({name for rows in theirs for name, _, _ in rows["r"]}) == 4


@pytest.mark.parametrize("engine", ENGINES)
def test_dot_product_loop_logs_no_read_of_its_operands(engine):
    """A Cedar library function only reads its arguments: ``cg``'s
    matrix-vector DOALL (``s = s + ces_dotproduct(a(i, 1:n), p(1:n))``)
    writes only ``q`` and its privates, so its log keeps no read of
    ``a`` or ``p`` — which the every-read reference logs there — and
    the same write rows and conflicts."""
    case = CASES["cg"]
    cedar, _ = cached_restructure(case.source,
                                  PIPELINE_CONFIGS["automatic"]())
    [pdo] = [n for n in cedar.walk() if isinstance(n, ParallelDo)
             and any(isinstance(m, F.FuncCall)
                     and m.name == "ces_dotproduct" for m in n.walk())]
    assert Interpreter(cedar)._summarize(pdo) != (None, None)
    label = Interpreter._loop_label(pdo)
    args, _ = case.make_args(case.n, np.random.default_rng(3))
    sh, ref = both_recorders(cedar, case.entry, args, engine)
    assert any(lbl == label for lbl, _ in sh.logs)
    assert not {"a", "p"} & read_names(sh, label)
    assert {"a", "p"} <= read_names(ref, label)


LIBRARY_OVER_WRITTEN_SRC = """
      subroutine top(n, x, y)
      integer n, i
      real x(8), y(8)
      do i = 1, n
         y(i) = ces_sum(x(1:n))
         x(i) = y(i) * 0.5
      end do
      end
"""


@pytest.mark.parametrize("engine", ENGINES)
def test_a_library_call_over_a_written_section_still_races(engine):
    """The negative control: every iteration's ``ces_sum`` reads the
    section ``x(1:n)`` that the other iterations write, so ``x`` is no
    read-only name, its section reads stay in the log and the loop is
    reported read-write — as the every-read reference reports it."""
    sf = doall_everywhere(LIBRARY_OVER_WRITTEN_SRC)
    sh, _ = both_recorders(sf, "top", [8, np.arange(8.0), np.zeros(8)],
                           engine)
    assert "x" in read_names(sh)
    assert {(c.var, c.kind) for c in sh.conflicts} == {("x", "read-write")}


# ---------------------------------------------------------------------------
# ``_analyze`` on logs built row by row


#: tokens of the hand-built logs: three arrays of ``SIZE`` elements, one
#: scalar
SIZE = 5
TOKENS = ("u", "v", "w", "s")
LOCKSETS = (frozenset(), frozenset("p"), frozenset("q"), frozenset("pq"))

offset = st.one_of(
    st.integers(0, SIZE - 1),                              # an element
    st.just(ALL),                                          # a supercell
    st.lists(st.integers(0, SIZE - 1), max_size=3),        # a section
)
log_rows = st.lists(st.tuples(kinds, st.integers(0, len(TOKENS) - 1),
                              offset, st.integers(-2, 3),
                              st.integers(0, len(LOCKSETS) - 1)),
                    min_size=1, max_size=90)


def first_conflicts(sh, found: dict) -> list:
    """What ``close_loop`` reports of a pass's conflicts: the first
    ones in first-write order."""
    return sorted(found.items())[:sh.max_conflicts_per_loop]


@settings(max_examples=400, deadline=None)
@given(log_rows)
def test_analysis_matches_a_pairwise_checker(rows):
    """Random logs — element, section and supercell rows, locksets,
    negative iteration numbers — against every pair of access events:
    the same conflicting cells and kinds, in first-write order, each
    with an iteration pair two of its events really make.  Up to 90
    rows, sections of up to three elements: the logs straddle
    ``SMALL_LOG``, and both passes give the same answer on each."""
    sh = ShadowRecorder()
    for tok, name in enumerate(TOKENS):
        arr = None if name == "s" else FArray(np.zeros(SIZE), (1,))
        sh._token(arr if arr is not None else Scope(), name, name, arr)
    for locks in LOCKSETS:
        sh._hold(locks)
    ctx = sh.open_loop("loop", 2)
    events, first_write = [], {}
    for kind, tok, off, it, lk in rows:
        if TOKENS[tok] == "s":
            off = 0                                   # a scalar's one cell
        log = ctx.writes if kind == "w" else ctx.reads
        cells = [ALL] if off == ALL else off if isinstance(off, list) \
            else [off]
        if isinstance(off, list):
            log.rows.extend((tok, -2 - len(log.sections), it, lk))
            log.sections.append(np.array(off, dtype=np.int64))
        else:
            log.rows.extend((tok, -1 if off == ALL else off, it, lk))
        for cell in cells:
            events.append((tok, cell, kind, it, LOCKSETS[lk]))
            if kind == "w":
                first_write.setdefault((tok, cell), len(first_write))
    # both passes of the analysis, whichever size the log has
    w, r = ctx.writes, ctx.reads
    assert first_conflicts(sh, sh._scan_small(w.tuples(), r.tuples())) \
        == first_conflicts(sh, sh._scan(w.flat(), r.flat()))
    sh.close_loop(ctx)

    def cell_of(c):
        tok = TOKENS.index(c.var)
        return tok, (ALL if c.element is None and c.var != "s"
                     else 0 if c.element is None else c.element[0] - 1)

    got = [(cell_of(c), c.kind) for c in sh.conflicts]
    assert {(tok, kind, cell) for (tok, cell), kind in got} \
        == reference(events)
    assert [cell for cell, _ in got] == sorted(
        (cell for cell, _ in got), key=first_write.__getitem__)
    for c, ((tok, cell), kind) in zip(sh.conflicts, got):
        i, j = c.iterations
        assert i < j
        writes = [(e[3], e[4]) for e in events
                  if e[:3] == (tok, cell, "w")]
        touching = [(e[3], e[4]) for e in events if e[0] == tok
                    and (e[1] == cell or (e[1] == ALL and cell != ALL))
                    and e[2] == kind[0]]
        assert any({a, b} == {i, j} and not (la & lb)
                   for a, la in writes for b, lb in touching)


@pytest.mark.parametrize("n", [1, SMALL_LOG // 2, SMALL_LOG // 2 + 1,
                               2 * SMALL_LOG])
@pytest.mark.parametrize("shape", ["elements", "section", "grid"])
def test_a_log_takes_the_pass_its_size_picks(n, shape, monkeypatch):
    """``n`` iterations each write ``u(i)`` and read ``u(i+1)`` — the
    reads one by one, as one section, or as one grid block: a log of at
    most ``SMALL_LOG`` rows, each section element and block lane
    counted, is checked in plain Python, a larger one with NumPy, and
    the two passes agree."""
    taken = []
    scan_small = ShadowRecorder._scan_small

    def spy(self, w, r):
        taken.append(len(w) + len(r))
        return scan_small(self, w, r)

    monkeypatch.setattr(ShadowRecorder, "_scan_small", spy)
    sh = ShadowRecorder()
    arr = FArray(np.zeros(8 * SMALL_LOG), (1,))
    ctx = sh.open_loop("loop", 2)
    if shape == "grid":
        sh.grid(ctx, np.arange(n))
        sh.record_block(ctx, "w", arr, "u", 0, 1)
        sh.record_block(ctx, "r", arr, "u", 1, 1)
    else:
        sh.begin_worker(ctx, Scope())
        for i in range(n):
            sh.begin_iteration(ctx, i)
            sh.record_array(arr, "u", "w", idx=(i + 1,))
            if shape == "elements":
                sh.record_array(arr, "u", "r", idx=(i + 2,))
        if shape == "section":
            sh.record_array(arr, "u", "r", specs=[(2, n + 1, None)])
    w, r = ctx.writes, ctx.reads
    assert w.size() + r.size() == 2 * n
    found = first_conflicts(sh, sh._scan(w.flat(), r.flat()))
    assert first_conflicts(sh, sh._scan_small(w.tuples(), r.tuples())) \
        == found
    taken.clear()
    sh.close_loop(ctx)
    assert taken == ([2 * n] if 2 * n <= SMALL_LOG else [])
    # each u(i+1) but the section reader's own is another iteration's
    others = n - 1 - (shape == "section")
    assert len(sh.conflicts) == len(found) == min(
        max(others, 0), sh.max_conflicts_per_loop)
