"""Dynamic race detector tests.

The detector must flag exactly the accesses the planner failed to
discharge: a deliberately un-privatized scalar races, while privatized
scalars, recognized reductions and lock-protected critical sections all
stay quiet.
"""

import numpy as np
import pytest

from repro.api import restructure
from repro.cedar.nodes import ParallelDo
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import ShadowRecorder
from repro.execmodel.values import Scope
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.restructurer.options import RestructurerOptions
from repro.validate.configs import options_for_stages
from repro.workloads import validation_cases
from tests.execmodel.test_lowered_recording import as_doall


def find_pdos(sf):
    return [node for u in sf.units for s in u.body
            for node in s.walk() if isinstance(node, ParallelDo)]


@pytest.fixture
def engine():
    """The engine hosting the recorder in the end-to-end cases below;
    ``test_race_oracle`` re-collects them with ``compiled`` here."""
    return "tree"


def run_with_shadow(cedar, entry, *args, engine, processors=4):
    sh = ShadowRecorder()
    Interpreter(cedar, processors=processors, shadow=sh,
                engine=engine).call(entry, *args)
    return sh


PRIVATE_SCALAR_SRC = """
      subroutine s(n, a, b)
      integer n
      real a(n), b(n)
      real t
      integer i
      do i = 1, n
         t = a(i) * 2.0
         b(i) = t + 1.0
      end do
      end
"""


class TestPrivatization:
    def _restructured(self):
        # privatization only: the loop stays element-wise (the full
        # manual pipeline would vectorize and scalar-expand t instead)
        opts = options_for_stages(["scalar-privatization"])
        cedar, _ = restructure(parse_program(PRIVATE_SCALAR_SRC), opts)
        pdos = find_pdos(cedar)
        assert pdos, "the test loop must parallelize"
        assert pdos[0].locals_, "t must be privatized"
        return cedar, pdos[0]

    def test_privatized_scalar_is_quiet(self, engine):
        cedar, _ = self._restructured()
        sh = run_with_shadow(cedar, "s", 16, np.ones(16), np.zeros(16),
                             engine=engine)
        assert sh.loops_checked == 1
        assert sh.conflicts == []

    def test_unprivatized_scalar_is_flagged(self, engine):
        # Deliberately strip the privatization the planner proved
        # necessary: t becomes shared and every iteration writes it.
        cedar, pdo = self._restructured()
        pdo.locals_.clear()
        sh = run_with_shadow(cedar, "s", 16, np.ones(16), np.zeros(16),
                             engine=engine)
        assert sh.conflicts, "shared t must race"
        c = sh.conflicts[0]
        assert c.var == "t"
        assert c.kind in ("write-write", "read-write")
        assert c.iterations[0] != c.iterations[1]

    def test_conflict_survives_into_report_dict(self, engine):
        cedar, pdo = self._restructured()
        pdo.locals_.clear()
        sh = run_with_shadow(cedar, "s", 16, np.ones(16), np.zeros(16),
                             engine=engine)
        d = sh.to_dict()
        assert d["loops_checked"] == 1
        assert d["conflicts"][0]["var"] == "t"


REDUCTION_SRC = """
      subroutine s(n, a, b, total)
      integer n
      real a(n), b(n), total
      integer i
      total = 0.0
      do i = 1, n
         b(i) = a(i) * a(i)
         total = total + b(i)
      end do
      end
"""


class TestReduction:
    def test_recognized_reduction_is_quiet(self, engine):
        # The partials live in worker-local storage; the lock-protected
        # combine runs in the synchronized postamble.  Neither may be
        # reported.  (A bare sum loop would become a library call, so
        # the reduction rides along with independent per-element work.)
        cedar, _ = restructure(parse_program(REDUCTION_SRC),
                               RestructurerOptions.manual())
        assert find_pdos(cedar), "the reduction loop must parallelize"
        sh = run_with_shadow(cedar, "s", 64, np.ones(64), np.zeros(64), 0.0,
                             engine=engine)
        assert sh.loops_checked >= 1
        assert sh.conflicts == []


class TestCriticalSection:
    def test_track_critical_section_is_quiet(self, engine):
        # TRACK's hits-list append runs under lock(crit): the counter
        # updates conflict textually but share the lock.
        case = validation_cases()["TRACK"]
        cedar, _ = restructure(parse_program(case.source),
                               RestructurerOptions.manual())
        args, _ = case.make_args(256, np.random.default_rng(7))
        sh = run_with_shadow(cedar, case.entry, *args, engine=engine)
        assert sh.loops_checked >= 1
        assert sh.conflicts == []


class LogsEveryLoop(ShadowRecorder):
    """The recorder without the two-iteration rule: every execution of
    a DOALL opens a log, however few iterations it has."""

    def open_loop(self, label, n, read_only=frozenset()):
        return super().open_loop(label, max(n, 2), read_only)


class CountsLogs(ShadowRecorder):
    """A recorder that counts the loop executions it opens a log for."""

    logged = 0

    def open_loop(self, label, n, read_only=frozenset()):
        ctx = super().open_loop(label, n, read_only)
        self.logged += ctx is not None
        return ctx


SHARED_CELL_SRC = """
      subroutine w(n, a, b)
      integer n, i
      real a(8), b(8)
      do i = 1, n
         a(1) = b(i)
      end do
      end
"""

ELEMENTWISE_SRC = """
      subroutine e(n, a, b)
      integer n, i
      real a(8), b(8)
      do i = 1, n
         a(i) = b(i) * 2.0
      end do
      end
"""

NESTED_ONE_TRIP_SRC = """
      subroutine nest(n, m, a, b)
      integer n, m, i, k
      real a(8), b(8)
      do k = 1, n
         do i = 1, m
            a(i) = b(k) + 1.0
         end do
      end do
      end
"""


def doalls(src):
    """``src`` with every DO loop turned into a DOALL, innermost
    first."""
    sf = parse_program(src)

    def convert(body):
        for k, st in enumerate(body):
            if isinstance(st, F.DoLoop):
                convert(st.body)
                body[k] = as_doall(st)

    for u in sf.units:
        convert(u.body)
    return sf


def race_run(program, entry, args, engine, recorder=ShadowRecorder):
    sh = recorder()
    fresh = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
    out = Interpreter(program, processors=4, shadow=sh,
                      engine=engine).call(entry, *fresh)
    return out, sh


def verdicts(sh):
    return [(c.loop, c.var, c.element, c.kind, c.iterations)
            for c in sh.conflicts]


class TestFewerThanTwoIterations:
    """A conflict needs two different iterations, so a DOALL execution
    of fewer than two is counted and not logged — and no verdict moves."""

    def test_two_iterations_still_race(self, engine):
        _, sh = race_run(doalls(SHARED_CELL_SRC), "w",
                         [2, np.zeros(8), np.arange(8.0)], engine,
                         CountsLogs)
        assert (sh.loops_checked, sh.logged) == (1, 1)
        assert [(c.var, c.element, c.kind, c.iterations)
                for c in sh.conflicts] \
            == [("a", (1,), "write-write", (1, 2))]

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("src", [SHARED_CELL_SRC, ELEMENTWISE_SRC],
                             ids=["shared-cell", "elementwise"])
    def test_short_loops_are_counted_not_logged(self, src, n, engine):
        program = doalls(src)
        entry = program.units[0].name
        args = [n, np.zeros(8), np.arange(8.0)]
        out, sh = race_run(program, entry, args, engine, CountsLogs)
        assert (sh.loops_checked, sh.logged) == (1, 0)
        assert sh.conflicts == []
        bare = Interpreter(program, processors=4, engine="tree").call(
            entry, *[np.copy(a) if isinstance(a, np.ndarray) else a
                     for a in args])
        for k in bare:
            assert np.asarray(out[k]).tobytes() \
                == np.asarray(bare[k]).tobytes(), k

    def test_outer_race_around_a_one_trip_inner_doall(self, engine):
        """Every outer iteration writes ``a(1)`` inside an inner DOALL
        of one iteration: the inner loop logs nothing, the outer one
        still logs its accesses and reports the conflict it always
        did."""
        program = doalls(NESTED_ONE_TRIP_SRC)
        args = [4, 1, np.zeros(8), np.arange(8.0)]
        out, sh = race_run(program, "nest", args, engine, CountsLogs)
        old_out, old = race_run(program, "nest", args, engine,
                                LogsEveryLoop)
        assert (sh.loops_checked, sh.logged) == (5, 1)
        assert old.loops_checked == 5
        assert verdicts(sh) == verdicts(old)
        assert [(c.loop, c.var, c.element, c.kind) for c in sh.conflicts] \
            == [("xdoall do k @ line 5", "a", (1,), "write-write")]
        for k in out:
            assert np.asarray(out[k]).tobytes() \
                == np.asarray(old_out[k]).tobytes(), k


class TestShadowRecorderUnit:
    """Direct API tests pinning the cell-keying semantics."""

    def _loop(self):
        sh = ShadowRecorder()
        root = Scope()
        root.declare("m", 64)
        root.declare("nhit", 0)
        ctx = sh.open_loop("do i @ test", 2)
        sh.begin_worker(ctx, Scope(parent=root))
        return sh, ctx, root

    def test_scalars_in_one_scope_get_distinct_cells(self):
        # Regression: cells used to be keyed by the containing scope
        # alone, so a read-only loop bound (m) collapsed into the same
        # cell as a lock-protected counter (nhit) and "raced" with it.
        sh, ctx, root = self._loop()
        for it in (1, 2):
            sh.begin_iteration(ctx, it)
            sh.record_scalar(root, "m", "r")       # unlocked read
            sh.acquire("crit")
            sh.record_scalar(root, "nhit", "w")    # locked write
            sh.release("crit")
        sh.close_loop(ctx)
        assert sh.conflicts == []

    def test_unlocked_scalar_write_still_races(self):
        sh, ctx, root = self._loop()
        for it in (1, 2):
            sh.begin_iteration(ctx, it)
            sh.record_scalar(root, "m", "r")
            sh.record_scalar(root, "nhit", "w")    # no lock this time
        sh.close_loop(ctx)
        assert [c.var for c in sh.conflicts] == ["nhit"]
        assert sh.conflicts[0].kind == "write-write"

    def test_distinct_locks_do_not_serialize(self):
        sh, ctx, root = self._loop()
        for it, lock in ((1, "crit_a"), (2, "crit_b")):
            sh.begin_iteration(ctx, it)
            sh.acquire(lock)
            sh.record_scalar(root, "nhit", "w")
            sh.release(lock)
        sh.close_loop(ctx)
        assert [c.var for c in sh.conflicts] == ["nhit"]

    def test_same_iteration_never_conflicts(self):
        sh, ctx, root = self._loop()
        sh.begin_iteration(ctx, 5)
        sh.record_scalar(root, "nhit", "w")
        sh.record_scalar(root, "nhit", "w")
        sh.record_scalar(root, "nhit", "r")
        sh.close_loop(ctx)
        assert sh.conflicts == []

    def test_worker_local_scalar_is_private(self):
        sh, ctx, root = self._loop()
        wscope = ctx.wscope
        wscope.declare("t", 0.0)
        for it in (1, 2):
            sh.begin_iteration(ctx, it)
            sh.record_scalar(wscope, "t", "w")
        sh.close_loop(ctx)
        assert sh.conflicts == []

    def test_suspended_accesses_are_skipped(self):
        sh, ctx, root = self._loop()
        sh.begin_iteration(ctx, 1)
        sh.suspend(ctx)
        sh.record_scalar(root, "nhit", "w")
        sh.resume(ctx)
        sh.begin_iteration(ctx, 2)
        sh.record_scalar(root, "nhit", "w")
        sh.close_loop(ctx)
        assert sh.conflicts == []


class TestArrayCells:
    def _arr(self, n=8):
        from repro.execmodel.values import FArray
        return FArray(data=np.zeros(n), lowers=(1,))

    def _loop(self):
        sh = ShadowRecorder()
        ctx = sh.open_loop("do i @ test", 2)
        sh.begin_worker(ctx, Scope(parent=Scope()))
        return sh, ctx

    def test_same_element_different_iterations_race(self):
        sh, ctx = self._loop()
        a = self._arr()
        sh.begin_iteration(ctx, 1)
        sh.record_array(a, "a", "w", idx=(3,))
        sh.begin_iteration(ctx, 2)
        sh.record_array(a, "a", "w", idx=(3,))
        sh.close_loop(ctx)
        assert sh.conflicts and sh.conflicts[0].var == "a"
        assert sh.conflicts[0].element == (3,)

    def test_disjoint_elements_do_not_race(self):
        sh, ctx = self._loop()
        a = self._arr()
        sh.begin_iteration(ctx, 1)
        sh.record_array(a, "a", "w", idx=(1,))
        sh.begin_iteration(ctx, 2)
        sh.record_array(a, "a", "w", idx=(2,))
        sh.close_loop(ctx)
        assert sh.conflicts == []

    def test_aliased_names_share_cells(self):
        # two FArray views over the same storage must collide even when
        # accessed under different names (argument aliasing)
        from repro.execmodel.values import FArray
        sh, ctx = self._loop()
        data = np.zeros(8)
        a = FArray(data=data, lowers=(1,))
        b = FArray(data=data, lowers=(1,))
        sh.begin_iteration(ctx, 1)
        sh.record_array(a, "a", "w", idx=(3,))
        sh.begin_iteration(ctx, 2)
        sh.record_array(b, "b", "w", idx=(3,))
        sh.close_loop(ctx)
        assert len(sh.conflicts) == 1

    def test_section_overlap_races(self):
        sh, ctx = self._loop()
        a = self._arr()
        sh.begin_iteration(ctx, 1)
        sh.record_array(a, "a", "w", specs=[(1, 4, None)])
        sh.begin_iteration(ctx, 2)
        sh.record_array(a, "a", "w", specs=[(4, 8, None)])
        sh.close_loop(ctx)
        assert sh.conflicts and sh.conflicts[0].element == (4,)

    def test_wide_section_coarsens_to_supercell(self):
        sh, ctx = self._loop()
        from repro.execmodel.values import FArray
        big = FArray(data=np.zeros(ShadowRecorder.expand_cap + 1),
                     lowers=(1,))
        sh.begin_iteration(ctx, 1)
        sh.record_array(big, "big", "w")          # whole array, coarse
        sh.begin_iteration(ctx, 2)
        sh.record_array(big, "big", "w", idx=(5,))
        sh.close_loop(ctx)
        assert sh.conflicts, "a supercell write conflicts with any element"


class TestDoacrossExcluded:
    def test_doacross_loops_are_not_checked(self, engine):
        # ordered loops synchronize their carried dependences with
        # await/advance; the detector must not second-guess them
        src = """
      subroutine s(n, a, b, c)
      integer n
      real a(n), b(n), c(n)
      integer i
      do i = 2, n
         b(i) = sqrt(abs(a(i))) + a(i) * a(i) + exp(a(i) * 0.01)
         c(i) = c(i - 1) + b(i)
      end do
      end
"""
        cedar, _ = restructure(parse_program(src),
                               options_for_stages(["doacross"]))
        pdos = find_pdos(cedar)
        assert [p.order for p in pdos] == ["doacross"]
        sh = run_with_shadow(cedar, "s", 32, np.ones(32), np.zeros(32),
                             np.zeros(32), engine=engine)
        assert sh.loops_checked == 0
        assert sh.conflicts == []
