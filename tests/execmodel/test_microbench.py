"""Interpreter microbenchmarks: the compiled engine must beat the tree
walk, and the tree walk must clear a statement-throughput floor that
pins the memoized-dispatch fast path (a regression to per-statement
isinstance ladders shows up here long before it shows up in CI wall
clock)."""

import time

import numpy as np

from repro.engine import cached_parse
from repro.execmodel.interp import Interpreter

# statement-heavy kernel: ~n^2 assignments with subscript arithmetic,
# branches, and intrinsic calls — exactly the dispatch-bound shape the
# compiler and the memoized handler tables target
KERNEL = """
      subroutine churn(n, a, b, s)
      integer n, i, j
      real a(n,n), b(n,n), s
      s = 0.0
      do 20 j = 1, n
         do 10 i = 1, n
            a(i,j) = b(i,j) * 2.0 + sqrt(abs(b(i,j)))
            if (a(i,j) .gt. 1.0) then
               a(i,j) = a(i,j) - 1.0
            endif
            s = s + a(i,j)
   10    continue
   20 continue
      return
      end
"""

N = 40


def _run(engine: str) -> tuple[float, dict]:
    sf = cached_parse(KERNEL)
    rng = np.random.default_rng(7)
    b = np.asarray(rng.standard_normal((N, N)), dtype=np.float64)
    best = float("inf")
    out = None
    for _ in range(3):                      # best-of-3 damps host noise
        a = np.zeros((N, N))
        interp = Interpreter(sf, processors=1, engine=engine)
        t0 = time.perf_counter()
        out = interp.call("churn", N, a, b.copy(), 0.0)
        best = min(best, time.perf_counter() - t0)
    return best, out


def test_compiled_engine_beats_tree_walk():
    t_tree, out_tree = _run("tree")
    t_comp, out_comp = _run("compiled")
    # numerics first — a fast wrong answer is not a win
    assert np.array_equal(out_tree["a"], out_comp["a"])
    assert out_tree["s"] == out_comp["s"]
    # compile time included (a new interpreter per run), the compiled
    # engine measures over 10x here; asserting a 10% margin keeps this
    # robust on noisy CI hosts
    assert t_comp < t_tree * 0.9, (
        f"compiled engine not faster: {t_comp:.4f}s vs tree "
        f"{t_tree:.4f}s")


def test_tree_walk_throughput_floor():
    """The memoized dispatch tables keep the tree walk above a
    statements-per-second floor that the old isinstance ladder missed
    by a wide margin on slow hosts; set generously (5x below current
    measurements) to catch order-of-magnitude regressions only."""
    t_tree, _ = _run("tree")
    interp = Interpreter(cached_parse(KERNEL), processors=1,
                         engine="tree")
    rng = np.random.default_rng(7)
    b = np.asarray(rng.standard_normal((N, N)), dtype=np.float64)
    interp.call("churn", N, np.zeros((N, N)), b, 0.0)
    steps = interp._steps
    assert steps > N * N                    # the kernel really ran
    rate = steps / t_tree
    assert rate > 20_000, (
        f"tree-walk throughput collapsed: {rate:,.0f} stmt/s "
        f"({steps} steps in {t_tree:.4f}s)")


# elementwise nest + guard (3 stmts x n^2 iterations): unrecorded, it
# runs its scalar text, written inline as a closed region
VEC_KERNEL = """
      subroutine smooth(n, a, b, c)
      integer n, i, j
      real a(n,n), b(n,n), c(n,n)
      do 20 j = 1, n
         do 10 i = 1, n
            c(i,j) = a(i,j) * 0.25 + b(i,j) * 0.75
            if (c(i,j) .lt. 0.0) then
               c(i,j) = 0.0
            endif
            b(i,j) = c(i,j) + a(i,j)
   10    continue
   20 continue
      return
      end
"""

#: the same elementwise work as one level, the shape the loop lowerer
#: turns into whole-array NumPy instead of per-element dispatch once the
#: DO is a DOALL run under a race detector
FLAT_KERNEL = """
      subroutine smooth(n, a, b, c)
      integer n, i
      real a(n), b(n), c(n)
      do 10 i = 1, n
         c(i) = a(i) * 0.25 + b(i) * 0.75
         b(i) = c(i) + a(i)
   10 continue
      return
      end
"""

VN = 64


def _skip_if_opted_out():
    """Set REPRO_SKIP_PERF_TESTS=1 to skip wall-clock assertions
    entirely on hosts too loaded to time anything (shared build boxes,
    heavily throttled containers)."""
    import os

    if os.environ.get("REPRO_SKIP_PERF_TESTS") == "1":
        import pytest

        pytest.skip("REPRO_SKIP_PERF_TESTS=1: host opted out of "
                    "wall-clock assertions")


def _run_warm(engine: str, program, recorded: bool, shape: tuple
              ) -> tuple[float, dict, object]:
    """Best-of-5 *warm* call time: compilation (and module emission)
    happens on a discarded warmup call, so this measures the execute
    path alone — the quantity the engines differ on."""
    from repro.execmodel.shadow import ShadowRecorder

    rng = np.random.default_rng(7)
    a = np.asarray(rng.standard_normal(shape), dtype=np.float64)
    b = np.asarray(rng.standard_normal(shape), dtype=np.float64)
    interp = Interpreter(program, processors=1, engine=engine,
                         shadow=ShadowRecorder() if recorded else None)
    interp.call("smooth", shape[0], a, b.copy(), np.zeros(shape))
    best = float("inf")
    out = None
    for _ in range(5):
        t0 = time.perf_counter()
        out = interp.call("smooth", shape[0], a, b.copy(),
                          np.zeros(shape))
        best = min(best, time.perf_counter() - t0)
    return best, out, interp._compiler


def _engines(program, recorded: bool, shape: tuple = (VN, VN)
             ) -> tuple[float, float, object]:
    """Warm tree and compiled times of the kernel, checked bit-equal."""
    t_tree, out_tree, _ = _run_warm("tree", program, recorded, shape)
    t_fast, out_fast, comp = _run_warm("compiled", program, recorded,
                                       shape)
    # numerics first — a fast wrong answer is not a win
    for k in out_tree:
        assert np.asarray(out_tree[k]).tobytes() \
            == np.asarray(out_fast[k]).tobytes(), k
    return t_tree, t_fast, comp


def test_vectorized_nest_beats_tree_walk():
    """The warm vector-text floor: on a race-checked DOALL the emitted
    NumPy module, logging in bulk, must beat the recorded tree walk's
    per-element dispatch and logging.

    Asserting 4x (t < 0.25 * tree) leaves ample margin for noisy CI
    runners; REPRO_SKIP_PERF_TESTS=1 skips it."""
    from tests.execmodel.test_lowered_recording import doall_program

    _skip_if_opted_out()
    # the DO as a DOALL: the shape the recorder-aware vector text takes
    t_tree, t_fast, comp = _engines(doall_program(FLAT_KERNEL),
                                    recorded=True, shape=(VN * VN,))
    # the lowering must actually have engaged, or the comparison is
    # scalar-text-vs-tree and proves nothing about the vector path
    assert comp.vectorized_loops >= 1
    assert t_fast < t_tree * 0.25, (
        f"warm recorded vector text not faster: {t_fast * 1e3:.2f}ms vs "
        f"tree {t_tree * 1e3:.2f}ms")


def test_scalar_text_beats_tree_walk_on_the_vector_kernel():
    """The warm scalar-text floor on the same kernel unrecorded, where
    no loop takes a vector form: names resolved once, the nest written
    inline as a closed region.

    Measured at about 14x on a 2-CPU x86-64 container; asserting 4x
    leaves margin for noisy runners.  REPRO_SKIP_PERF_TESTS=1 skips
    it."""
    _skip_if_opted_out()
    t_tree, t_fast, comp = _engines(cached_parse(VEC_KERNEL),
                                    recorded=False)
    assert comp.vectorized_loops == 0
    assert t_fast < t_tree * 0.25, (
        f"warm scalar text not 4x the tree walk: {t_fast * 1e3:.2f}ms "
        f"vs tree {t_tree * 1e3:.2f}ms")


def test_scalar_text_beats_tree_walk_on_the_csr_row_loop():
    """The warm scalar-text floor: ``sparse``'s ``spmv`` — a ragged
    ``do k`` over ``x(col(k))``, which no vector form takes — runs its
    names resolved once per statement, its inner bodies inline.

    Measured at 8-9x on a 2-CPU x86-64 container; asserting 4x leaves
    margin for noisy runners.  REPRO_SKIP_PERF_TESTS=1 skips it, like
    the floors above."""
    _skip_if_opted_out()
    from repro.workloads.linalg import sparse

    n = 24
    rowptr, col, val, _ = sparse.make_csr(n, None)
    x = np.random.default_rng(7).standard_normal(n)
    sf = cached_parse(sparse.SOURCE)
    best, ys = {}, {}
    for engine in ("tree", "compiled"):
        interp = Interpreter(sf, processors=1, engine=engine)
        interp.call("spmv", n, rowptr, col, val, x, np.zeros(n))
        best[engine] = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            out = interp.call("spmv", n, rowptr, col, val, x, np.zeros(n))
            best[engine] = min(best[engine], time.perf_counter() - t0)
        ys[engine] = out["y"].tobytes()
    assert ys["compiled"] == ys["tree"]
    assert interp._compiler.vectorized_loops == 0
    assert best["compiled"] < best["tree"] * 0.25, (
        f"scalar text not 4x the tree walk: {best['compiled'] * 1e3:.3f}"
        f"ms vs tree {best['tree'] * 1e3:.3f}ms")
