"""Per-layer measurements for ``--trace 1``.

Two kinds of number come out of here.  *Pass-derived* metrics are self
times and counts from one traced pass of the workload itself (spans put
around each layer's public functions by :func:`common.layer_spans`).
*Probes* call one layer's public function directly on the workload's own
inputs — the stage ladder, the engine tiers, the lexer — because no
single pass exercises them separately.

A metric reads 0 on a workload whose replay never enters that layer or
whose probe does not apply (no interpreter runs on ``experiments-sweep``,
so every ``execmodel.exec_*`` row is 0 there).
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time

from cedarbench.common import (OUT_DIR, ROOT, Tracer, child_env,
                               fresh_import_seconds, median, percentile)

#: entry modules whose cold import is timed (process.import_s.<key>)
ENTRY_MODULES = {
    "experiments": "repro.experiments.__main__",
    "validate": "repro.validate.__main__",
    "faults": "repro.faults.__main__",
    "server": "repro.server.__main__",
    "lint": "repro.lint.__main__",
}

#: techniques with their own ``restructurer.applied.<name>`` row; any
#: other technique seen at run time is summed into ``.other``
TECHNIQUES = (
    "fusion", "globalize", "inline", "privatize", "reduction",
    "induction-substitution", "library", "runtime-two-version",
    "critical-xdoall", "cdoacross", "cdoall", "cdoall-vector",
    "sdoall-cdoall", "xdoall", "xdoall-vector", "serial",
)

STATUS_CLASSES = ("ok", "degraded", "invalid-input", "shed", "error")

LEX_PROGRAMS = 200


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def import_seconds(own: str, own_samples: list[float]) -> dict:
    out = {}
    for key, module in ENTRY_MODULES.items():
        out[f"process.import_s.{key}"] = (
            median(own_samples) if module == own
            else min(fresh_import_seconds(module, samples=2)))
    return out


# ---------------------------------------------------------------------------
# front end and restructurer, called directly on the workload's sources


def frontend(sources: list[str]) -> dict:
    from repro.cedar.unparse import unparse_cedar
    from repro.fortran.parser import parse_program
    from repro.fortran.unparse import unparse
    from repro.lint.engine import lint_source
    from repro.restructurer.options import RestructurerOptions
    from repro.restructurer.pipeline import Restructurer

    parse_s, trees = timed(lambda: [parse_program(s) for s in sources])
    unparse_s, _ = timed(lambda: [unparse(t) for t in trees])
    reports = [lint_source(s) for s in sources]
    lines = sum(s.count("\n") + 1 for s in sources)
    out = {
        "fortran.parse_lines_per_s": lines / parse_s,
        "fortran.unparse_s": unparse_s,
        "fortran.ast_nodes": sum(1 for t in trees for _ in t.walk()),
        "lint.diagnostics": sum(len(r.diagnostics) for r in reports),
    }
    applied = dict.fromkeys(TECHNIQUES + ("other",), 0)
    loops = decisions = nodes = text_bytes = 0
    cedar_unparse_s = 0.0
    for config in ("automatic", "manual"):
        options = getattr(RestructurerOptions, config)
        for source in sources:
            cedar, report = Restructurer(options()).run(
                parse_program(source))
            dt, text = timed(unparse_cedar, cedar)
            cedar_unparse_s += dt
            text_bytes += len(text.encode())
            nodes += sum(1 for _ in cedar.walk())
            decisions += len(report.events)
            loops += sum(u.parallelized_loops
                         for u in report.units.values())
            for event in report.events:
                if event.action in ("applied", "accepted"):
                    key = (event.technique if event.technique in applied
                           else "other")
                    applied[key] += 1
    out.update({
        "restructurer.parallel_loops": loops,
        "restructurer.decisions": decisions,
        "restructurer.cedar_nodes": nodes,
        "cedar.unparse_s": cedar_unparse_s,
        "cedar.text_bytes": text_bytes,
    })
    out.update({f"restructurer.applied.{k}": v for k, v in applied.items()})
    return out


def lex_rate(seed: int) -> dict:
    from repro.fortran import fuzz
    from repro.fortran.lexer import lex_source

    programs = [fuzz.generate(seed + i, "surface").source
                for i in range(LEX_PROGRAMS)]
    seconds, tokens = timed(
        lambda: sum(len(lex_source(p)) for p in programs))
    return {"fortran.lex_tokens_per_s": tokens / seconds}


def stage_seconds(sources: list[str]) -> dict:
    """Marginal restructure seconds of each ``PASS_STAGES`` label: the
    time with the first k stages enabled minus the time with k-1 (the
    faster of two runs each, since a rung is a difference of two noisy
    timings and can read below zero)."""
    from repro.fortran.parser import parse_program
    from repro.restructurer.pipeline import PASS_STAGES, Restructurer
    from repro.validate.configs import options_for_stages

    labels = [label for label, _ in PASS_STAGES]
    trees = [parse_program(s) for s in sources]

    def rung(k: int) -> float:
        options = options_for_stages(labels[:k])
        fresh = [t.clone() for t in trees]
        return timed(lambda: [Restructurer(options).run(t)
                              for t in fresh])[0]

    ladder = [min(rung(k), rung(k)) for k in range(len(labels) + 1)]
    return {f"restructurer.stage_s.{label}": ladder[k + 1] - ladder[k]
            for k, label in enumerate(labels)}


# ---------------------------------------------------------------------------
# execution engines and the race detector, on the workload's own cases


def engine_seconds(cases: list, seed: int) -> dict:
    """Sequential run of every case under every engine tier: first with
    an empty compilation cache (lowering and emission included), then
    again warm.  Tiers are enumerated at run time."""
    from repro.engine.cache import get_cache
    from repro.execmodel.interp import ENGINES
    from repro.validate.differential import run_baseline

    out = {}
    for engine in ENGINES:
        if not cases:
            out[f"execmodel.exec_s.{engine}"] = 0.0
            out[f"execmodel.exec_warm_s.{engine}"] = 0.0
            continue
        get_cache().clear()
        run = lambda: [run_baseline(c, seed, engine=engine) for c in cases]
        out[f"execmodel.exec_s.{engine}"] = timed(run)[0]
        out[f"execmodel.exec_warm_s.{engine}"] = timed(run)[0]
    return out


def unshadowed_variant_seconds(cases: list, seed: int, processors) -> float:
    """The restructured runs of a validate pass on the tree engine with no
    recorder attached — the base of ``execmodel.shadow_slowdown``."""
    from repro.validate.configs import PIPELINE_CONFIGS
    from repro.validate.differential import run_variant

    def run():
        for case in cases:
            for factory in PIPELINE_CONFIGS.values():
                for p in processors:
                    run_variant(case, factory(), seed, p, engine="tree")
    return timed(run)[0]


def telemetry_overhead() -> float:
    """``experiments --json`` with ``--telemetry DIR`` over without."""
    scratch = OUT_DIR / "telemetry"
    base = [sys.executable, "-m", "repro.experiments", "--json"]

    def run(extra):
        return timed(subprocess.run, base + extra, check=True,
                     env=child_env(), cwd=str(ROOT),
                     stdout=subprocess.DEVNULL,
                     stderr=subprocess.DEVNULL)[0]
    try:
        off, on = [], []
        for _ in range(3):
            off.append(run([]))
            on.append(run(["--telemetry", str(scratch)]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return median(on) / median(off) - 1.0


# ---------------------------------------------------------------------------
# numbers read off a traced pass


class PassObserver:
    """Counts taken at the layer boundaries during the traced pass."""

    def __init__(self):
        self.estimates = 0
        self.sim_cycles = 0.0

    def __call__(self, span_name: str, result) -> None:
        if span_name == "execmodel.perf":
            self.estimates += 1
            self.sim_cycles += result.total


def cache_hit_shares(before: dict, after: dict) -> dict:
    out = {}
    for kind in ("parse", "restructure"):
        hits = after["by_kind"][kind]["hits"] - before["by_kind"][kind]["hits"]
        misses = (after["by_kind"][kind]["misses"]
                  - before["by_kind"][kind]["misses"])
        out[f"engine.cache.hit_share.{kind}"] = (
            hits / (hits + misses) if hits + misses else 0.0)
    return out


def pass_metrics(tracer: Tracer, observer: PassObserver) -> dict:
    """Layer self times and boundary counts of everything traced."""
    own = tracer.self_seconds()
    get = lambda name: own.get(name, 0.0)
    return {
        "fortran.lex_s": get("fortran.lex"),
        "fortran.parse_s": get("fortran.parse"),
        "lint.lint_s": get("lint.lint"),
        "engine.cache_s": get("engine.cache"),
        "restructurer.run_s.automatic": get("restructurer.run.automatic"),
        "restructurer.run_s.manual": get("restructurer.run.manual"),
        "restructurer.run_s.other": get("restructurer.run.other"),
        "execmodel.perf.estimate_s": get("execmodel.perf"),
        "execmodel.perf.estimates": observer.estimates,
        "machine.sim_cycles_total": observer.sim_cycles,
        "execmodel.unshadowed_exec_s": get("execmodel.exec"),
        "execmodel.shadow_exec_s": get("execmodel.shadow_exec"),
        "validate.compare_s": get("validate.compare"),
        "faults.oracle_s": get("faults.cell"),
        "faults.cell_s.p50": percentile(tracer.durations("faults.cell"), 50),
        "unattributed_s": get("op") + get("pass"),
    }


#: counts that must repeat exactly between two identical runs
EXACT_COUNTS = ("restructurer.parallel_loops", "restructurer.decisions",
                "restructurer.cedar_nodes", "cedar.text_bytes",
                "fortran.ast_nodes", "lint.diagnostics")


def source_probes(sources: list[str], seed: int) -> tuple[dict, list[str]]:
    """Every probe that calls the front end or the restructurer directly
    on the workload's sources.  The counts are taken twice and must
    repeat exactly (the determinism guard); returns
    ``(metrics, problems)``."""
    metrics = frontend(sources)
    again = frontend(sources)
    problems = [f"{name} differs between two identical runs: "
                f"{metrics[name]!r} vs {again[name]!r}"
                for name in EXACT_COUNTS if metrics[name] != again[name]]
    metrics.update(lex_rate(seed))
    metrics.update(stage_seconds(sources))
    return metrics, problems
