"""The differential translation-validation runner.

For one workload and one restructurer configuration:

1. interpret the sequential original (``processors=1``) on seeded
   randomized inputs — the baseline;
2. restructure a fresh parse under the configuration, interpret the
   Cedar program with several simulated processor counts and a
   :class:`~repro.execmodel.shadow.ShadowRecorder` attached;
3. compare every dummy-argument result element-wise with dtype-aware
   tolerances (integers and logicals exactly, floats within
   ``atol``/``rtol``);
4. on divergence, bisect over the configuration's pass-stage prefix
   list to name the pass that introduced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.engine import cached_parse, cached_restructure
from repro.errors import ReproError
from repro.execmodel.interp import Interpreter
from repro.execmodel.shadow import RaceConflict, ShadowRecorder
from repro.restructurer.options import RestructurerOptions
from repro.validate.configs import config_stages, options_for_stages
from repro.workloads.record import Workload

#: float comparison tolerances: reductions and recurrences legitimately
#: reassociate, so bit-identity is not the bar — these mirror the
#: equivalence bounds the workload test suites have always used
DEFAULT_ATOL = 1e-4
DEFAULT_RTOL = 1e-3
#: interpreter engine for every run — baselines, race-checked variants
#: and bisection probes — and the one default library and CLI callers
#: share; ``tree`` is the oracle the fast engine's verdicts are pinned to
DEFAULT_ENGINE = "compiled"


@dataclass(frozen=True)
class Divergence:
    """One result key whose parallel value disagrees with the baseline."""

    key: str
    dtype: str
    max_abs: float
    max_rel: float
    mismatches: int               # element count out of tolerance
    processors: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "key": self.key, "dtype": self.dtype,
            "max_abs": self.max_abs, "max_rel": self.max_rel,
            "mismatches": self.mismatches,
            "processors": self.processors, "seed": self.seed,
        }

    def describe(self) -> str:
        return (f"{self.key}[{self.dtype}]: {self.mismatches} element(s) "
                f"diverge (max abs {self.max_abs:.3g}, max rel "
                f"{self.max_rel:.3g}) at P={self.processors}, "
                f"seed {self.seed}")


@dataclass
class ConfigResult:
    """Validation outcome of one workload × configuration."""

    config: str
    stages: list[str]
    status: str = "ok"            # ok | divergent | race | error
    divergences: list[Divergence] = field(default_factory=list)
    races: list[RaceConflict] = field(default_factory=list)
    error: Optional[str] = None
    culprit_pass: Optional[str] = None
    parallel_loops: int = 0
    loops_checked: int = 0
    compared_keys: list[str] = field(default_factory=list)
    discharged: dict[str, dict[str, str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "stages": list(self.stages),
            "status": self.status,
            "divergences": [d.to_dict() for d in self.divergences],
            "races": [r.to_dict() for r in self.races],
            "error": self.error,
            "culprit_pass": self.culprit_pass,
            "parallel_loops": self.parallel_loops,
            "loops_checked": self.loops_checked,
            "compared_keys": list(self.compared_keys),
            "discharged": {k: dict(v) for k, v in self.discharged.items()},
        }


@dataclass
class WorkloadResult:
    """Validation outcome of one workload across configurations."""

    workload: str
    suite: str
    entry: str
    n: int
    seeds: list[int]
    processors: list[int]
    configs: list[ConfigResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.configs)

    def to_dict(self) -> dict:
        return {
            "workload": self.workload, "suite": self.suite,
            "entry": self.entry, "n": self.n,
            "seeds": list(self.seeds),
            "processors": list(self.processors),
            "configs": [c.to_dict() for c in self.configs],
        }


# ---------------------------------------------------------------------------
# execution


def run_baseline(case: Workload, seed: int, *,
                 engine: str = DEFAULT_ENGINE) -> dict:
    """Interpret the sequential original; returns the result dict.

    The parse is served by the compilation cache — one parse per source
    no matter how many seeds/configs/bisection steps revisit it (the
    interpreter never mutates the tree, so the instance is shared).
    """
    args, _ = case.make_args(case.n, np.random.default_rng(seed))
    sf = cached_parse(case.source)
    return Interpreter(sf, processors=1, engine=engine).call(
        case.entry, *args)


def run_variant(case: Workload, options: RestructurerOptions,
                seed: int, processors: int,
                shadow: Optional[ShadowRecorder] = None, *,
                engine: str = DEFAULT_ENGINE,
                cedar=None, report=None, deal=None) -> tuple[dict, object]:
    """Interpret the restructured Cedar program.

    The parse → restructure front end is served by the compilation
    cache; callers looping over (seed × processors) cells may also pass
    a pre-restructured ``cedar``/``report`` pair to skip even the cache
    probe.  ``engine`` applies with or without a shadow recorder;
    ``deal`` is the interpreter's iteration→worker deal (default cyclic).
    """
    if cedar is None:
        cedar, report = cached_restructure(case.source, options)
    args, _ = case.make_args(case.n, np.random.default_rng(seed))
    interp = Interpreter(cedar, processors=processors, shadow=shadow,
                         engine=engine, deal=deal)
    return interp.call(case.entry, *args), report


# ---------------------------------------------------------------------------
# comparison


def compare_outputs(baseline: dict, candidate: dict, *,
                    permutation_ok: bool = False,
                    atol: float = DEFAULT_ATOL,
                    rtol: float = DEFAULT_RTOL,
                    processors: int = 0,
                    seed: int = 0) -> list[Divergence]:
    """Element-wise, dtype-aware comparison of two interpreter results."""
    out: list[Divergence] = []
    for key in baseline:
        b, c = baseline[key], candidate.get(key)
        if b is None and c is None:
            continue
        xb = np.asarray(b)
        xc = np.asarray(c) if c is not None else np.asarray(np.nan)
        if permutation_ok and xb.ndim:
            xb, xc = np.sort(xb.ravel()), np.sort(xc.ravel())
        if xb.shape != xc.shape:
            out.append(Divergence(key=key, dtype=str(xb.dtype),
                                  max_abs=float("inf"),
                                  max_rel=float("inf"),
                                  mismatches=max(xb.size, xc.size),
                                  processors=processors, seed=seed))
            continue
        exact = (np.issubdtype(xb.dtype, np.integer)
                 or np.issubdtype(xb.dtype, np.bool_))
        if exact:
            bad = xb != xc
            if bool(np.any(bad)):
                diff = np.abs(xb.astype(np.float64)
                              - xc.astype(np.float64))
                out.append(Divergence(
                    key=key, dtype=str(xb.dtype),
                    max_abs=float(diff.max()),
                    max_rel=float(np.max(
                        diff / np.maximum(np.abs(
                            xb.astype(np.float64)), 1.0))),
                    mismatches=int(np.count_nonzero(bad)),
                    processors=processors, seed=seed))
            continue
        xb64 = xb.astype(np.float64)
        xc64 = xc.astype(np.float64)
        bad = ~np.isclose(xc64, xb64, atol=atol, rtol=rtol, equal_nan=True)
        if bool(np.any(bad)):
            diff = np.abs(xc64 - xb64)
            finite = np.where(np.isfinite(diff), diff, np.inf)
            out.append(Divergence(
                key=key, dtype=str(xb.dtype),
                max_abs=float(np.max(finite)),
                max_rel=float(np.max(
                    finite / np.maximum(np.abs(xb64), 1e-30))),
                mismatches=int(np.count_nonzero(bad)),
                processors=processors, seed=seed))
    return out


# ---------------------------------------------------------------------------
# bisection


def bisect_stages(case: Workload, stages: list[str], *,
                  seed: int, processors: int,
                  atol: float = DEFAULT_ATOL,
                  rtol: float = DEFAULT_RTOL,
                  engine: str = DEFAULT_ENGINE,
                  baseline: Optional[dict] = None) -> Optional[str]:
    """Name the pass stage that introduced a divergence.

    Binary-searches the shortest prefix of ``stages`` whose configuration
    still diverges from the baseline; returns its last stage label, or
    ``"base-parallelization"`` when even the empty prefix (all passes
    off, planner still active) diverges.  Returns None if the full list
    unexpectedly converges (a flaky divergence).  Callers that already
    hold the baseline result for this seed pass it in to avoid a re-run.
    """
    if baseline is None:
        baseline = run_baseline(case, seed, engine=engine)

    def diverges(k: int) -> bool:
        opts = options_for_stages(stages[:k])
        try:
            result, _ = run_variant(case, opts, seed, processors,
                                    engine=engine)
        except ReproError:
            return True  # crashing is as divergent as a wrong answer
        return bool(compare_outputs(
            baseline, result, permutation_ok=case.permutation_ok,
            atol=atol, rtol=rtol, processors=processors, seed=seed))

    if not diverges(len(stages)):
        return None
    if diverges(0):
        return "base-parallelization"
    lo, hi = 0, len(stages)          # invariant: !diverges(lo), diverges(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if diverges(mid):
            hi = mid
        else:
            lo = mid
    return stages[hi - 1]


# ---------------------------------------------------------------------------
# the per-workload driver


def validate_workload(case: Workload,
                      configs: dict[str, Callable[[], RestructurerOptions]],
                      *, seeds: Sequence[int] = (3,),
                      processors: Sequence[int] = (2, 8),
                      atol: float = DEFAULT_ATOL,
                      rtol: float = DEFAULT_RTOL,
                      bisect: bool = True,
                      engine: str = DEFAULT_ENGINE) -> WorkloadResult:
    """Differentially validate one workload under every configuration.

    ``engine`` selects the interpreter engine for every run: baselines,
    the shadow-instrumented variant runs and bisection probes.  Results
    and race verdicts are engine-independent — the compiled engine is
    numerics-identical to the tree walk and records the same accesses.
    """
    wr = WorkloadResult(workload=case.name, suite=case.suite,
                        entry=case.entry, n=case.n,
                        seeds=list(seeds), processors=list(processors))
    baselines = {seed: run_baseline(case, seed, engine=engine)
                 for seed in seeds}
    for cname, factory in configs.items():
        opts = factory()
        cr = ConfigResult(config=cname, stages=config_stages(opts))
        try:
            # one restructure per configuration — the (seed × processors)
            # cells below reuse the pair instead of re-running the front
            # end per cell (and the cache makes even this probe-cheap)
            cedar, report0 = cached_restructure(case.source, opts)
            for seed in seeds:
                for p in processors:
                    shadow = ShadowRecorder()
                    result, report = run_variant(case, opts, seed, p,
                                                 shadow=shadow,
                                                 engine=engine,
                                                 cedar=cedar,
                                                 report=report0)
                    cr.loops_checked += shadow.loops_checked
                    cr.races.extend(shadow.conflicts)
                    cr.divergences.extend(compare_outputs(
                        baselines[seed], result,
                        permutation_ok=case.permutation_ok,
                        atol=atol, rtol=rtol, processors=p, seed=seed))
                    if not cr.compared_keys:
                        cr.compared_keys = sorted(baselines[seed])
                        cr.parallel_loops = sum(
                            u.parallelized_loops
                            for u in report.units.values())
                        # sorted: the underlying map is built from set
                        # iteration, which varies with hash randomization
                        # — canonical order keeps payloads byte-stable
                        # across processes and runs
                        cr.discharged = {
                            pl.loop_id: dict(sorted(pl.discharged.items()))
                            for u in report.units.values()
                            for pl in u.plans if pl.discharged}
        except ReproError as exc:
            cr.status = "error"
            cr.error = f"{type(exc).__name__}: {exc}"
        else:
            if cr.divergences:
                cr.status = "divergent"
            elif cr.races:
                cr.status = "race"
        if cr.status == "divergent" and bisect:
            first = cr.divergences[0]
            cr.culprit_pass = bisect_stages(
                case, cr.stages, seed=first.seed,
                processors=first.processors, atol=atol, rtol=rtol,
                engine=engine, baseline=baselines.get(first.seed))
        wr.configs.append(cr)
    return wr
