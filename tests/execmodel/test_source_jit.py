"""The compiled engine's loop lowering (repro.execmodel.source_jit).

Bit-identity with the tree walk is the golden suite's job
(test_engine_equivalence.py); this file pins the *mechanics*: which
loop shapes vectorize (whole nests, guarded bodies, reductions), which
are rejected (recurrences), that the restructurer's strip-mined
PARALLEL DO output is recognized, that emitted modules round-trip
through the jit-source cache, and that a poisoned module never breaks
execution — the list falls back to the tree walk.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cedar import nodes as C
from repro.engine import cached_parse, cached_restructure
from repro.engine import cache as cache_mod
from repro.execmodel.interp import Interpreter
from repro.execmodel.source_jit import JIT_VERSION
from repro.fortran import ast_nodes as F
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

CASES = validation_cases()

#: what the unrecorded compiled engine did to every committed program at
#: the current emitter version: ``workload/config`` -> [vectorized_loops,
#: scalar_stmts, tree_lists, digest of every statement list's cache-key
#: inputs and module text].  Regenerate (only together with a JIT_VERSION bump) by
#: running this file:
#: ``PYTHONPATH=src python tests/execmodel/test_source_jit.py`` — which
#: refuses to write a file in which any entry vectorizes fewer loops
#: than the one it replaces.
GOLDEN = Path(__file__).with_name("jit_source_golden.json")

ELEM = """
      subroutine scale2(n, a, b)
      integer n, i, j
      real a(n,n), b(n,n)
      do 20 j = 1, n
         do 10 i = 1, n
            a(i,j) = b(i,j) * 2.0 + 1.0
   10    continue
   20 continue
      return
      end
"""

GUARD = """
      subroutine clip(n, a, b)
      integer n, i
      real a(n), b(n)
      do 10 i = 1, n
         if (b(i) .gt. 0.0) then
            a(i) = b(i)
         else
            a(i) = 0.0
         endif
   10 continue
      return
      end
"""

RED = """
      subroutine sums(n, x, s, lo)
      integer n, i
      real x(n), s, lo
      s = 0.0
      lo = x(1)
      do 10 i = 1, n
         s = s + x(i)
   10 continue
      do 20 i = 1, n
         lo = min(lo, x(i))
   20 continue
      return
      end
"""

RECUR = """
      subroutine scan(n, x)
      integer n, i
      real x(n)
      do 10 i = 2, n
         x(i) = x(i-1) + x(i)
   10 continue
      return
      end
"""

STENCIL = """
      subroutine relax(n, u, v)
      integer n, j
      real u(n), v(n)
      do 10 j = 2, n - 1
         v(j) = 0.5 * (u(j-1) + u(j+1))
   10 continue
      return
      end
"""


RANK_STORE = """
      subroutine rk(n, a, b)
      integer n, i
      real a(n,n), b(n)
      do 10 i = 1, n
         a(i) = b(i) * 2.0
   10 continue
      return
      end
"""

RANK_LOAD = RANK_STORE.replace("a(i) = b(i) * 2.0", "b(i) = a(i) * 2.0")

#: the loop is the same text (same lines) with and without the user's
#: ``abs`` below it, so both programs probe the jit-source cache with
#: the same statement dump
ABS_LOOP = """
      subroutine t(n, a, b)
      integer n, i
      real a(n), b(n)
      do 10 i = 1, n
         b(i) = abs(a(i))
   10 continue
      return
      end
"""

USER_ABS = ABS_LOOP + """
      real function abs(x)
      real x
      abs = x + 100.0
      return
      end
"""


def _both(src, entry, *args, processors=1):
    """Run both engines; return (tree_out, compiled_out, compiler)."""
    def fresh():
        return [np.copy(a) if isinstance(a, np.ndarray) else a
                for a in args]

    sf = cached_parse(src)
    tree = Interpreter(sf, processors=processors,
                       engine="tree").call(entry, *fresh())
    interp = Interpreter(sf, processors=processors, engine="compiled")
    out = interp.call(entry, *fresh())
    return tree, out, interp._compiler


def _assert_bits(tree, out):
    assert set(tree) == set(out)
    for k in tree:
        assert np.asarray(tree[k]).tobytes() \
            == np.asarray(out[k]).tobytes(), k


class TestVectorizedShapes:
    def test_whole_nest_broadcasts(self):
        b = np.arange(36.0).reshape(6, 6)
        tree, out, comp = _both(ELEM, "scale2", 6, np.zeros((6, 6)), b)
        _assert_bits(tree, out)
        assert comp.vectorized_loops == 1

    def test_guarded_body_uses_masked_lanes(self):
        b = np.linspace(-1.0, 1.0, 8)
        tree, out, comp = _both(GUARD, "clip", 8, np.zeros(8), b)
        _assert_bits(tree, out)
        assert comp.vectorized_loops == 1

    def test_sum_and_min_reductions(self):
        x = np.arange(9.0) - 4.0
        tree, out, comp = _both(RED, "sums", 9, x, 0.0, 0.0)
        _assert_bits(tree, out)
        assert comp.vectorized_loops == 2    # the + spine and the min

    def test_affine_stencil_with_disjoint_reads(self):
        """Reads at j-1/j+1 of an array *not* written in the loop are
        loop-invariant inputs — the offset subscripts vectorize."""
        u = np.arange(10.0)
        tree, out, comp = _both(STENCIL, "relax", 10, u, np.zeros(10))
        _assert_bits(tree, out)
        assert comp.vectorized_loops == 1


class TestRejectedShapes:
    def test_recurrence_falls_back_not_wrong(self):
        """x(i) = x(i-1) + x(i): the read mask differs from the write
        mask, so the proof rejects the loop; the tree semantics are
        replayed by the loop's scalar text."""
        x = np.arange(7.0) + 1.0
        tree, out, comp = _both(RECUR, "scan", 7, x)
        _assert_bits(tree, out)
        assert comp.vectorized_loops == 0
        assert comp.scalar_stmts >= 1 and comp.tree_lists == 0

    def test_recurrent_workload_never_vectorizes(self):
        """tridag's sweeps are genuine recurrences end to end — the
        engine must not claim a single nest there."""
        case = CASES["tridag"]
        cedar, _ = cached_restructure(case.source)
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        interp = Interpreter(cedar, processors=4, engine="compiled")
        interp.call(case.entry, *args)
        assert interp._compiler.vectorized_loops == 0


class TestLoweredLoopIsTheTreesLoop:
    """Programs the tree walk answers one way and a too-eager lowering
    another."""

    @pytest.mark.parametrize("engine", ["tree", "compiled"])
    @pytest.mark.parametrize("src", [RANK_STORE, RANK_LOAD],
                             ids=["store", "load"])
    def test_rank_mismatch_raises_the_trees_error(self, src, engine):
        """One subscript on a rank-2 array: the grid store used to
        write whole rows, the grid load died in NumPy."""
        from repro.errors import InterpreterError

        interp = Interpreter(cached_parse(src), processors=1,
                             engine=engine)
        with pytest.raises(InterpreterError, match=(
                "rank mismatch: 1 subscripts for rank 2 array")):
            interp.call("rk", 3, np.zeros((3, 3)), np.ones(3))

    def test_a_unit_named_like_an_intrinsic_is_what_gets_called(self):
        a = np.array([-1.0, 2.0, -3.0])
        tree, out, comp = _both(USER_ABS, "t", 3, a, np.zeros(3))
        assert tree["b"].tolist() == [99.0, 102.0, 97.0]
        _assert_bits(tree, out)
        assert comp.vectorized_loops == 0

    def test_cached_text_does_not_cross_programs(self, monkeypatch):
        """The intrinsic-only program lowers ``abs`` to ``NP['abs']``;
        the same statements in the program that defines ``abs`` must not
        be served that text."""
        monkeypatch.setattr(cache_mod, "_DEFAULT",
                            cache_mod.CompilationCache())
        a = np.array([-1.0, 2.0, -3.0])
        _, out, comp = _both(ABS_LOOP, "t", 3, a, np.zeros(3))
        assert out["b"].tolist() == [1.0, 2.0, 3.0]
        assert comp.vectorized_loops == 1
        tree, out, comp = _both(USER_ABS, "t", 3, a, np.zeros(3))
        assert out["b"].tolist() == [99.0, 102.0, 97.0]
        _assert_bits(tree, out)


#: ``a(i)`` loaded, stored, and loaded again: the last load must see the
#: store (``gaussj``'s shape: ``a(k,j) = a(k,j) * piv; rowk(j) = a(k,j)``)
STORE_BETWEEN = """
      subroutine sb(n, a, b, c)
      integer n, i
      real a(n), b(n), c(n)
      do 10 i = 1, n
         b(i) = a(i) * 2.0
         a(i) = a(i) + 1.0
         c(i) = a(i) * 3.0
   10 continue
      return
      end
"""

#: ``w(3)`` loaded inside a guard arm that may take no lane, then again
#: after it, and ``a(i)`` in the guard and after it
IN_AND_OUT_OF_ARM = """
      subroutine arm(n, a, b, c, w)
      integer n, i
      real a(n), b(n), c(n), w(4)
      do 10 i = 1, n
         if (a(i) .gt. w(2)) then
            b(i) = a(i) * w(3)
         else
            b(i) = w(3) - a(i)
         endif
         c(i) = a(i) + w(3)
   10 continue
      return
      end
"""

#: ``k(1)`` loaded in the stored element's subscript, evaluated before
#: the value that loads it again
SUBSCRIPT_AND_VALUE = """
      subroutine sv(n, a, b, k)
      integer n, i, k(2)
      real a(n, 2), b(n)
      do 10 i = 1, n
         a(i, k(1)) = b(i) * k(1)
   10 continue
      return
      end
"""


def _module_text(src, rec):
    from repro.execmodel.source_jit import emit_module

    sf = cached_parse(src)
    unit = sf.units[0]
    return emit_module(Interpreter(sf, engine="compiled"), unit.body,
                       unit.name, rec)


class TestLoadReuse:
    """Vector text loads a grid once per straight-line block: a repeat
    of the same load text reads the local the first one filled, until
    the next store, guard arm or nest level."""

    def _check(self, src, entry, args):
        from repro.execmodel.shadow import ShadowRecorder
        from repro.fortran.parser import parse_program
        from tests.execmodel.test_lowered_recording import as_doall

        sf = cached_parse(src)
        doall = parse_program(src)       # not the cached, shared tree
        body = doall.units[0].body
        at = next(i for i, st in enumerate(body)
                  if isinstance(st, F.DoLoop))
        body[at] = as_doall(body[at])
        for program in (sf, doall):
            for shadowed in (False, True):
                runs = []
                for engine in ("tree", "compiled"):
                    sh = ShadowRecorder() if shadowed else None
                    interp = Interpreter(program, processors=4, shadow=sh,
                                         engine=engine)
                    out = interp.call(entry, *[
                        np.copy(a) if isinstance(a, np.ndarray) else a
                        for a in args])
                    runs.append((out, sh))
                (tree, sh_t), (out, sh_c) = runs
                _assert_bits(tree, out)
                assert interp._compiler.vectorized_loops == 1
                if shadowed:
                    assert sh_c.loops_checked == sh_t.loops_checked
                    assert sh_c.conflicts == sh_t.conflicts

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_a_store_between_two_loads_reloads(self, n):
        a = np.arange(7.0) - 3.0
        self._check(STORE_BETWEEN, "sb", [n, a, np.zeros(7), np.zeros(7)])
        for rec in (False, True):
            # each statement loads a(i) itself: the first is followed by
            # a store (to b), the last follows the store to a
            assert _module_text(STORE_BETWEEN, rec).count("VL(") == 3

    @pytest.mark.parametrize("cut", [-10.0, 0.0, 10.0],
                             ids=["every-lane", "some-lanes", "no-lane"])
    def test_a_load_in_an_arm_and_after_it(self, cut):
        a = np.linspace(-2.0, 2.0, 9)
        w = np.array([0.0, cut, 0.5, 0.0])
        self._check(IN_AND_OUT_OF_ARM, "arm",
                    [9, a, np.zeros(9), np.zeros(9), w])
        for rec in (False, True):
            # guard: a(i), w(2); each arm: a(i), w(3) on its own lanes;
            # after the arms: a(i), w(3) again
            assert _module_text(IN_AND_OUT_OF_ARM, rec).count("VL(") == 8

    def test_a_load_in_the_stored_subscript_and_in_the_value(self):
        self._check(SUBSCRIPT_AND_VALUE, "sv",
                    [5, np.zeros((5, 2)), np.arange(5.0),
                     np.array([2, 1], dtype=np.int64)])
        for rec in (False, True):
            assert _module_text(SUBSCRIPT_AND_VALUE, rec).count("VL(") == 2

    def test_svdcmp_reduction_loop_loads_each_column_once(self):
        """svdcmp's partial-sum DOALL accumulates a(i,p)**2, a(i,q)**2
        and a(i,p)*a(i,q): two grid loads, each logged once."""
        from repro.execmodel.shadow import ShadowRecorder
        from repro.execmodel.source_jit import _LoopLowerer

        case = CASES["svdcmp"]
        cedar, _ = cached_restructure(case.source,
                                      PIPELINE_CONFIGS["automatic"]())
        [pdo] = [n for n in cedar.walk()
                 if isinstance(n, C.ParallelDo) and n.postamble]
        interp = Interpreter(cedar, processors=4, engine="compiled",
                             shadow=ShadowRecorder())
        text = "\n".join(_LoopLowerer(interp, pdo, "svdcmp", True).emit(0))
        assert "OPEN(" in text and text.count("VL(") == 2


class TestRestructuredPrograms:
    """The generalized fast path must engage on the restructurer's own
    output — strip-mined PARALLEL DO nests, guards, reductions — not
    just on handwritten kernels.  These counts are the breadth
    regression guard: a silent narrowing of eligibility flips one to
    zero long before wall clocks move."""

    # every workload here gets at least one vectorized nest today
    EXPECTED_MIN = {"OCEAN": 2, "ARC2D": 2, "cg": 3, "sparse": 3,
                    "TRFD": 2, "MDG": 1, "svdcmp": 1}

    @pytest.mark.parametrize("wname", sorted(EXPECTED_MIN))
    def test_vectorizes_stripmined_output(self, wname):
        case = CASES[wname]
        cedar, _ = cached_restructure(case.source)
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        interp = Interpreter(cedar, processors=4, engine="compiled")
        interp.call(case.entry, *args)
        assert interp._compiler.vectorized_loops \
            >= self.EXPECTED_MIN[wname], (
                f"{wname}: fast-path coverage narrowed to "
                f"{interp._compiler.vectorized_loops} nest(s)")

    def test_qcd_automatic_doall_is_lowered(self):
        """The XDOALL at line 19 of QCD's automatic output is the one
        loop in the committed workloads that only a vectoriser deleted
        with its tier once took under ``engine="compiled"``; rejected
        by the lowerer, it would silently run worker-by-worker through
        ``_parallel_do``."""
        from repro.cedar.nodes import ParallelDo
        from repro.execmodel.source_jit import _LoopLowerer
        from repro.validate.configs import PIPELINE_CONFIGS

        case = CASES["QCD"]
        cedar, _ = cached_restructure(case.source,
                                      PIPELINE_CONFIGS["automatic"]())
        [pdo] = [n for n in cedar.walk() if isinstance(n, ParallelDo)]
        assert (pdo.line, pdo.order) == (19, "doall")
        interp = Interpreter(cedar, processors=4, engine="compiled")
        _LoopLowerer(interp, pdo, "qcd")    # raises when ineligible
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        interp.call(case.entry, *args)
        assert interp._compiler.vectorized_loops == 1


def compiled_engine_footprint(cache) -> dict:
    """Run all 22 workloads x {sequential, automatic, manual} on the
    compiled engine, no recorder attached, through ``cache`` (which must
    be the process default) and summarise what was compiled."""
    seen = hashlib.sha256()
    orig = cache.jit_source

    def spy(source, *, fingerprint, emit):
        text = orig(source, fingerprint=fingerprint, emit=emit)
        for part in (source, fingerprint, text):
            seen.update(part.encode() + b"\0")
        return text

    cache.jit_source = spy
    out = {}
    for wname, case in sorted(CASES.items()):
        programs = {"sequential": cached_parse(case.source)}
        for config in sorted(PIPELINE_CONFIGS):
            programs[config] = cached_restructure(
                case.source, PIPELINE_CONFIGS[config]())[0]
        for config, program in programs.items():
            seen = hashlib.sha256()
            args, _ = case.make_args(case.n, np.random.default_rng(3))
            interp = Interpreter(program, processors=4, engine="compiled")
            interp.call(case.entry, *args)
            comp = interp._compiler
            out[f"{wname}/{config}"] = [
                comp.vectorized_loops, comp.scalar_stmts, comp.tree_lists,
                seen.hexdigest()[:16]]
    return out


class TestOffMeansOff:
    """A recorder can ride on the compiled engine; without one the
    engine must not know: same module text under the same cache keys,
    same loops vectorized, same statements on scalar text, and not one
    list of the 66 programs left to the tree."""

    def test_unrecorded_footprint_is_the_golden_one(self, monkeypatch):
        golden = json.loads(GOLDEN.read_text())
        assert golden.pop("jit_version") == JIT_VERSION, (
            "emitter changed: regenerate jit_source_golden.json")
        cache = cache_mod.CompilationCache()
        monkeypatch.setattr(cache_mod, "_DEFAULT", cache)
        assert compiled_engine_footprint(cache) == golden
        assert len(golden) == 3 * len(CASES)
        assert not any(tree_lists for _, _, tree_lists, _ in
                       golden.values())


class TestModuleCache:
    @pytest.fixture
    def fresh_cache(self, monkeypatch, tmp_path):
        c = cache_mod.CompilationCache(cache_dir=tmp_path)
        monkeypatch.setattr(cache_mod, "_DEFAULT", c)
        return c

    def test_modules_served_from_cache(self, fresh_cache):
        sf = cached_parse(ELEM)
        b = np.arange(36.0).reshape(6, 6)
        Interpreter(sf, processors=1, engine="compiled").call(
            "scale2", 6, np.zeros((6, 6)), b)
        st = fresh_cache.stats()["by_kind"]["jit-source"]
        assert st["misses"] >= 1 and st["disk_writes"] >= 1
        # a second interpreter over the same program recompiles nothing
        Interpreter(sf, processors=1, engine="compiled").call(
            "scale2", 6, np.zeros((6, 6)), b)
        st = fresh_cache.stats()["by_kind"]["jit-source"]
        assert st["hits"] >= 1

    def test_poisoned_module_text_falls_back(self, fresh_cache, tmp_path):
        """A digest-valid but unparseable stored module (stale entry,
        hand-edited store) must not take the engine down: compile()
        fails, that list — here the entry unit's body — runs on the
        tree, says so once, and results stay bit-identical."""
        from repro.telemetry import log

        served = []
        orig = fresh_cache.jit_source

        def poison_first(source, *, fingerprint, emit):
            text = orig(source, fingerprint=fingerprint, emit=emit)
            served.append(text)
            return "this is not python (" if len(served) == 1 else text

        fresh_cache.jit_source = poison_first
        case = CASES["cg"]
        cedar, _ = cached_restructure(case.source)
        args, _ = case.make_args(case.n, np.random.default_rng(3))
        tree = Interpreter(cedar, processors=4,
                           engine="tree").call(case.entry, *args)
        args2, _ = case.make_args(case.n, np.random.default_rng(3))
        interp = Interpreter(cedar, processors=4, engine="compiled")
        log.configure("warning", path=tmp_path / "log.jsonl")
        try:
            out = interp.call(case.entry, *args2)
        finally:
            log.shutdown()
        _assert_bits(tree, out)
        assert interp._compiler.tree_lists == 1
        assert interp._compiler.vectorized_loops >= 1   # nested lists
        events = [json.loads(line) for line in
                  (tmp_path / "log.jsonl").read_text().splitlines()]
        assert [(e["event"], e["fields"]["error_type"]) for e in events] \
            == [("module_rejected", "SyntaxError")]

    def test_emitted_module_is_deterministic(self, fresh_cache):
        """Same statements + same symbol facts => byte-identical module
        text (the content address would otherwise be meaningless)."""
        sf = cached_parse(ELEM)
        texts = []
        orig = fresh_cache.jit_source

        def spy(source, *, fingerprint, emit):
            text = orig(source, fingerprint=fingerprint, emit=emit)
            texts.append(text)
            return text

        fresh_cache.jit_source = spy
        b = np.arange(36.0).reshape(6, 6)
        for _ in range(2):
            fresh_cache.clear()
            Interpreter(sf, processors=1, engine="compiled").call(
                "scale2", 6, np.zeros((6, 6)), b)
        assert len(texts) >= 2
        assert texts[0] == texts[-1]


class TestEngineSelection:
    def test_source_is_no_longer_an_engine(self):
        from repro.errors import InterpreterError

        with pytest.raises(InterpreterError, match="unknown engine"):
            Interpreter(cached_parse(ELEM), engine="source")


if __name__ == "__main__":
    cache_mod._DEFAULT = cache_mod.CompilationCache()
    rows = {"jit_version": JIT_VERSION,
            **compiled_engine_footprint(cache_mod._DEFAULT)}
    before = json.loads(GOLDEN.read_text())
    fell = {k: (before[k][0], v[0]) for k, v in rows.items()
            if k != "jit_version" and k in before and v[0] < before[k][0]}
    assert not fell, f"vectorized_loops fell (was, now): {fell}"
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(k)}: {json.dumps(v)}" for k, v in rows.items())
        + "\n}\n")
