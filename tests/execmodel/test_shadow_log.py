"""The recorder's array analysis against a brute-force reference.

``ShadowRecorder.close_loop`` decides conflicts on per-cell iteration
extremes over a flat NumPy log; the reference below decides them the
slow, obvious way — every pair of access events — over a model of the
same log kept by the test.  Random scripts drive both through the
public API only.
"""

import copy
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cedar.nodes import ParallelDo
from repro.engine import cached_restructure
from repro.errors import InterpreterError
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import ShadowRecorder
from repro.execmodel.values import FArray, Scope
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases
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
    case = CASES[wname]
    cedar, _ = cached_restructure(case.source, PIPELINE_CONFIGS[config]())
    if stripped:
        cedar = copy.deepcopy(cedar)     # the cached program is shared
        for node in cedar.walk():
            if isinstance(node, ParallelDo):
                node.locals_ = []
    runs = []
    for recorder in (ShadowRecorder, LogsEveryLoop):
        sh, error = recorder(), None
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        try:
            Interpreter(cedar, processors=8, shadow=sh,
                        engine=engine).call(case.entry, *args)
        except InterpreterError as exc:
            # a stripped array local is undeclared: both runs stop there
            error = str(exc)
        runs.append((error, sh.loops_checked,
                     [c.to_dict() for c in sh.conflicts]))
    assert runs[0] == runs[1]
