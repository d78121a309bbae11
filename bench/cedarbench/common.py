"""Shared measurement machinery: order statistics, set-up timing, RSS,
the in-memory span tracer and the wrappers that put spans around each
layer's public functions.

Nothing here imports ``repro`` at module level: ``run.py`` scrubs the
environment and checks that ``src/`` exists before the program under
test is loaded.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: fresh interpreters timed per set-up measurement (median reported)
SETUP_SAMPLES = 5


def child_env() -> dict:
    """Environment for every subprocess: no ``REPRO_*`` switch leaks in
    and the checkout's own ``src/`` is the only ``repro`` on the path."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# statistics: exact order statistics over raw samples, never buckets


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (an observed sample, not an interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def digest(obj: Any) -> str:
    """SHA-256 of a JSON-serialisable object in canonical form."""
    text = json.dumps(obj, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up time and memory


def fresh_import_spans(module: str, samples: int = SETUP_SAMPLES) -> list[tuple[float, float]]:
    """``(start, seconds)`` of ``python -c "import <module>"`` in fresh
    interpreters: process start + import, what every CLI run pays."""
    out = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", f"import {module}"],
                       check=True, env=child_env(), cwd=str(ROOT))
        out.append((t0, time.perf_counter() - t0))
    return out


def fresh_import_seconds(module: str, samples: int = SETUP_SAMPLES) -> list[float]:
    return [seconds for _, seconds in fresh_import_spans(module, samples)]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the high-water RSS of ``pid`` and its descendants."""
    total, todo = 0.0, [pid]
    while todo:
        p = todo.pop()
        try:
            for line in Path(f"/proc/{p}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total += float(line.split()[1]) / 1024.0
            for task in Path(f"/proc/{p}/task").iterdir():
                todo += [int(c) for c in
                         (task / "children").read_text().split()]
        except OSError:
            continue               # the process ended while we looked
    return total


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


# ---------------------------------------------------------------------------
# host speed: the benchmark runs on a few virtual CPUs of a shared host
# whose speed moves by a factor of 1.5-2 for seconds to minutes at a time
# (measured: a fixed pure-Python kernel reads 3.9 ms, then 6.3 ms for three
# minutes, then 3.9 ms again, with CPU time equal to wall time and no steal
# reported).  No estimator over raw wall time is steady under that, so
# CPU-bound work is timed on a clock that runs at the host's current speed.


class _Leaf:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Load:
    __slots__ = ("array", "index")

    def __init__(self, array, index):
        self.array, self.index = array, index


class _Binary:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _evaluate(node, env):
    if isinstance(node, _Leaf):
        value = node.value
        return env[value] if isinstance(value, str) else value
    if isinstance(node, _Load):
        return env[node.array][int(_evaluate(node.index, env)) % 64]
    left, right = _evaluate(node.left, env), _evaluate(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "*":
        return left * right
    return left - right


_REFERENCE_TREE = _Binary(
    "+", _Binary("*", _Load("a", _Leaf("i")), _Leaf(1.0001)),
    _Binary("-", _Load("b", _Binary("+", _Leaf("i"), _Leaf(3))), _Leaf("x")))


def reference_kernel(env) -> float:
    """A fixed piece of work shaped like the program's own (an isinstance-
    dispatched tree walk over NumPy cells, then token bucketing) that
    shares no code with it; returns the thread CPU seconds it took."""
    t0 = time.thread_time()
    total = 0.0
    for i in range(400):
        env["i"] = i
        total += _evaluate(_REFERENCE_TREE, env)
        env["a"][i % 64] = total * 1e-6
    buckets: dict[str, list[int]] = {}
    for i in range(300):
        buckets.setdefault("tok%d" % (i & 31), []).append(i)
    return time.thread_time() - t0


class HostClock:
    """A clock that advances one second while the host does one nominal
    second's worth of work.

    A daemon thread of this process runs :func:`reference_kernel` every
    ``PERIOD`` seconds and records the thread CPU time it took; the rate
    of the clock at that moment is ``NOMINAL / that``.  ``elapsed(t0,
    t1)`` integrates the rate between two ``perf_counter`` readings; the
    clock stands still while the kernel itself runs, so sampling is not
    billed to the timed work.  The process is pinned to one CPU while the
    clock runs, so the thread, the timed work and any child process share
    the virtual CPU whose speed is being read (the speeds of two virtual
    CPUs were measured to be uncorrelated).
    """

    PERIOD = 0.04
    #: thread CPU seconds of the kernel on the undisturbed definition host
    NOMINAL = 0.00080

    def __init__(self):
        import numpy

        self._env = {"a": numpy.arange(64, dtype=float),
                     "b": numpy.ones(64), "x": 0.5}
        self._samples: list[tuple[float, float]] = []   # (ended, cpu s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        seconds = reference_kernel(self._env)
        self._samples.append((time.perf_counter(), seconds))

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            self._sample()

    def __enter__(self):
        self._affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._affinity)})
        for _ in range(3):          # the first call pays for cold caches
            reference_kernel(self._env)
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        import numpy

        self._stop.set()
        self._thread.join()
        self._sample()
        os.sched_setaffinity(0, self._affinity)
        ended, cpu = numpy.array(self._samples).T
        rate = self.NOMINAL / cpu
        began = numpy.maximum(ended - cpu, numpy.concatenate(
            ([-numpy.inf], ended[:-1])))
        # nominal seconds run up between one kernel's end and the next
        # one's beginning (trapezoid rule), none while a kernel runs
        steps = (began[1:] - ended[:-1]) * (rate[1:] + rate[:-1]) / 2.0
        total = numpy.concatenate(([0.0], numpy.cumsum(steps)))
        self._knots = numpy.column_stack((began, ended)).ravel()[1:]
        self._nominal = numpy.repeat(total, 2)[1:]

    def elapsed(self, t0: float, t1: float) -> float:
        """Nominal seconds between two ``perf_counter`` readings taken
        while the clock ran; call after the ``with`` block has ended."""
        import numpy

        a, b = numpy.interp([t0, t1], self._knots, self._nominal)
        return float(b - a)

    def slowdown(self) -> float:
        """Host seconds per nominal second over the whole run."""
        return float((self._knots[-1] - self._knots[0]) / self._nominal[-1])


# ---------------------------------------------------------------------------
# timed operations


@dataclass
class Op:
    """One timed operation: what ran, from when (a ``perf_counter``
    reading), how long, what it returned, and how many checkable units
    (cells, requests) it stands for.  ``cpu_seconds`` is the part of
    ``seconds`` spent computing on the host clock's CPU; ``None`` means
    all of it."""

    label: str
    start: float
    seconds: float
    result: Any = None
    units: int = 1
    kind: str = ""
    cpu_seconds: Optional[float] = None


@dataclass
class Pass:
    wall: float
    ops: list[Op] = field(default_factory=list)


def on_host_clock(passes: list[Pass], clock: HostClock) -> list[Pass]:
    """The same passes with every duration in nominal seconds: the
    computing part of each op is read on the host clock, any waiting part
    (the server's 40 ms delayed-ACK stall) stays wall time, and a pass
    shrinks by as much as its ops did."""
    out = []
    for p in passes:
        ops = []
        for op in p.ops:
            cpu = min(op.seconds if op.cpu_seconds is None
                      else op.cpu_seconds, op.seconds)
            rate = (clock.elapsed(op.start, op.start + op.seconds)
                    / op.seconds)
            ops.append(replace(op, seconds=op.seconds - cpu + cpu * rate))
        share = sum(op.seconds for op in ops) / sum(
            op.seconds for op in p.ops)
        out.append(Pass(p.wall * share, ops))
    return out


def end_to_end(passes: list[Pass], setup: list[float], correct_units: int,
               peak_rss_mb: float, repeats_ops: bool) -> dict:
    """The end-to-end metric set, identical for every workload:
    ``{name: (value, sample count)}``.  ``repeats_ops`` says every pass
    runs the same ops under the same labels (the sweeps); the server's
    passes each send new requests, labelled by their class."""
    by_label: dict[str, list[float]] = {}
    for p in passes:
        for op in p.ops:
            by_label.setdefault(op.label, []).append(op.seconds)
    # the slowest cell is the label whose median is largest: on a sweep
    # the one op that sets the floor of any ``--jobs N`` run, on the
    # server the slowest class of request (a raw maximum over hundreds
    # of requests would be a noise reading, not a property of the code)
    slowest = max(by_label.values(), key=median)
    # the op percentiles are over distinct ops: a repeated op counts
    # once, at its median over the passes
    if repeats_ops:
        op_ms = [median(v) * 1e3 for v in by_label.values()]
    else:
        op_ms = [op.seconds * 1e3 for p in passes for op in p.ops]
    wall = median([p.wall for p in passes])
    return {
        "setup_s": (median(setup), len(setup)),
        "wall_s": (wall, len(passes)),
        "slowest_cell_s": (median(slowest), len(slowest)),
        "ops_per_s": (correct_units / len(passes) / wall, correct_units),
        "op_p50_ms": (percentile(op_ms, 50), len(op_ms)),
        "op_p95_ms": (percentile(op_ms, 95), len(op_ms)),
        "peak_rss_mb": (peak_rss_mb, 1),
    }


# ---------------------------------------------------------------------------
# tracing: spans kept in memory, recorded from the benchmark's own files


class Tracer:
    """Span recorder.  A span is ``{id, name, start, end, parent, op}``;
    a layer's self time is its spans' duration minus their children's."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = ""

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "start": 0.0,
               "end": 0.0, "op": self.op,
               "parent": self._stack[-1] if self._stack else None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_seconds(self) -> dict[str, float]:
        spans = self.spans
        own = {s["id"]: s["end"] - s["start"] for s in spans}
        for s in spans:
            if s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in spans:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
        return out

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"schema": "cedarbench-trace/1", **meta,
                       "spans": self.spans}, fh)
            fh.write("\n")


def _restructure_name(self, *args) -> str:
    from repro.restructurer.options import RestructurerOptions

    for config in ("automatic", "manual"):
        if self.opt == getattr(RestructurerOptions, config)():
            return f"restructurer.run.{config}"
    return "restructurer.run.other"


def _exec_name(self, *args) -> str:
    return ("execmodel.shadow_exec" if self.shadow is not None
            else "execmodel.exec")


#: the layer boundaries: (module, class or None, attribute, span name or
#: a function of the call's arguments).  Module-level functions are
#: re-bound in every ``repro`` module that imported them by name.
LAYER_BOUNDARIES: list[tuple[str, Optional[str], str, Any]] = [
    ("repro.fortran.lexer", None, "lex_source", "fortran.lex"),
    ("repro.fortran.parser", None, "parse_program", "fortran.parse"),
    ("repro.fortran.unparse", None, "unparse", "fortran.unparse"),
    ("repro.cedar.unparse", None, "unparse_cedar", "cedar.unparse"),
    ("repro.lint.engine", None, "lint_source", "lint.lint"),
    ("repro.engine.cache", "CompilationCache", "parse", "engine.cache"),
    ("repro.engine.cache", "CompilationCache", "restructure",
     "engine.cache"),
    ("repro.restructurer.pipeline", "Restructurer", "run",
     _restructure_name),
    ("repro.execmodel.perf", "PerfEstimator", "estimate",
     "execmodel.perf"),
    ("repro.execmodel.interp", "Interpreter", "call", _exec_name),
    ("repro.validate.differential", None, "compare_outputs",
     "validate.compare"),
    ("repro.faults.sweep", None, "run_cell", "faults.cell"),
]


@contextmanager
def layer_spans(tracer: Tracer, on_result: Optional[Callable] = None):
    """Put a span around every layer boundary for the duration of the
    block.  A boundary that no longer exists is skipped (its time then
    shows in its caller's span), so a removed layer drops a row instead
    of breaking the benchmark.  ``on_result(span_name, result)`` sees
    every wrapped call's return value."""
    undo: list[tuple[Any, str, Any]] = []

    def wrap(original, name):
        def traced(*args, **kwargs):
            with tracer.span(name if isinstance(name, str)
                             else name(*args)) as rec:
                result = original(*args, **kwargs)
            if on_result is not None:
                on_result(rec["name"], result)
            return result
        traced.__wrapped__ = original
        return traced

    try:
        for modname, clsname, attr, name in LAYER_BOUNDARIES:
            try:
                owner = importlib.import_module(modname)
                if clsname is not None:
                    owner = getattr(owner, clsname)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                print(f"# layer boundary {modname}:{clsname or ''}.{attr} "
                      "is gone; not traced")
                continue
            traced = wrap(original, name)
            holders = [owner] if clsname is not None else [
                m for n, m in list(sys.modules.items())
                if n.startswith("repro") and m is not None
                and getattr(m, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, traced)
                undo.append((holder, attr, original))
        yield
    finally:
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)
