"""The three in-process sweep workloads: ``experiments-sweep``,
``validate-sweep`` and ``faults-sweep``.

Each class generates its inputs from the seed, runs one pass as a list
of timed operations through the same public functions the CLI calls,
and checks the outputs after the timed section.  The program under test
only ever sees the generated inputs.
"""

from __future__ import annotations

import math
import random
import time

from cedarbench.common import Op, digest

#: ``repro.validate``'s CLI default engine for baselines (its ``main``
#: spells it inline); ``None`` falls back to the library default should
#: the tier be removed
VALIDATE_CLI_ENGINE = "compiled"

#: the paper tables' geometric-mean simulated speedup at the commit that
#: defined this benchmark.  Compile time must not be bought with it: a
#: lower value fails the run.
SIM_SPEEDUP_FLOOR = 5.288087402575015


def _timed(label: str, fn, *, units: int = 1, kind: str = "") -> Op:
    t0 = time.perf_counter()
    result = fn()
    return Op(label, t0, time.perf_counter() - t0, result, units, kind)


def cli_engine():
    from repro.execmodel.interp import ENGINES

    return VALIDATE_CLI_ENGINE if VALIDATE_CLI_ENGINE in ENGINES else None


def identical(a: dict, b: dict) -> bool:
    """Bit-identity of two interpreter result dicts."""
    import numpy as np

    if set(a) != set(b):
        return False
    for key in a:
        xa, xb = np.asarray(a[key]), np.asarray(b[key])
        if xa.shape != xb.shape or not np.array_equal(
                xa, xb, equal_nan=xa.dtype.kind in "fc"):
            return False
    return True


def execution_problems(case, seed: int, restructured: bool = True) -> list[str]:
    """Run one program and compare: sequential vs restructured under the
    tree engine (validation tolerances; skipped where the timed cells
    already did it), the CLI's fast engine bit-identical to tree, and
    the workload's own ``verify`` callback."""
    import numpy as np

    from repro.engine import cached_parse, cached_restructure
    from repro.execmodel.interp import Interpreter
    from repro.validate.differential import compare_outputs

    def run(tree, processors, engine):
        args, aux = case.make_args(case.n, np.random.default_rng(seed))
        kwargs = {"engine": engine} if engine else {}
        return Interpreter(tree, processors=processors, **kwargs).call(
            case.entry, *args), aux

    problems = []
    serial, aux = run(cached_parse(case.source), 1, "tree")
    final = serial
    if restructured:
        cedar, _ = cached_restructure(case.source)
        final, _ = run(cedar, 4, "tree")
        if compare_outputs(serial, final,
                           permutation_ok=case.permutation_ok):
            problems.append(f"{case.name}: restructured diverges from "
                            "serial")
    fast, _ = run(cached_parse(case.source), 1, cli_engine())
    if not identical(serial, fast):
        problems.append(f"{case.name}: {cli_engine()} engine is not "
                        "bit-identical to tree")
    if case.verify is not None and not case.verify(case.n, aux, final):
        problems.append(f"{case.name}: verify callback rejects the result")
    return problems


def measured_ratios(table) -> list[float]:
    """Every measured simulated-speed ratio of one experiment table (the
    paper's own numbers and raw cycle counts are not ratios we produce)."""
    keep = [i for i, c in enumerate(table.columns)
            if "paper" not in c and "cycles" not in c]
    return [row[i] for row in table.rows for i in keep
            if isinstance(row[i], float)]


def geomean(values: list[float]) -> float:
    values = [v for v in values if v > 0.0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Sweep:
    """Common shape of a sweep workload."""

    name = ""
    entry_module = ""
    repeats_ops = True          # every pass runs the same labelled ops

    def __init__(self, seed: int, smoke: bool = False):
        self.seed = seed

    def inputs(self):           # JSON-serialisable, hashed for the log
        raise NotImplementedError

    def run_pass(self, tracer=None) -> list[Op]:
        raise NotImplementedError

    def check(self, passes) -> tuple[int, int, list[str]]:
        """``(units attempted, units failed, problems)`` over all passes."""
        raise NotImplementedError

    def sources(self) -> list[str]:
        """Fortran sources this workload compiles (front-end probes)."""
        raise NotImplementedError

    def cases(self) -> list:
        """Executable cases this workload interprets (engine probes)."""
        return []

    def layer_probes(self, untraced, traced, tracer) -> dict:
        """Per-layer metrics only this workload can measure."""
        return {}

    def _ops(self, plan, tracer):
        ops = []
        for label, fn, units, kind in plan:
            if tracer is None:
                ops.append(_timed(label, fn, units=units, kind=kind))
                continue
            tracer.op = label
            with tracer.span("op"):
                ops.append(_timed(label, fn, units=units, kind=kind))
        return ops

    def deterministic(self, passes) -> list[str]:
        """Every pass must produce the same outputs."""
        seen = {digest([self.output_record(op) for op in p.ops])
                for p in passes}
        return [] if len(seen) == 1 else [
            f"{self.name}: outputs differ between passes"]

    def output_record(self, op):
        raise NotImplementedError


class ExperimentsSweep(Sweep):
    name = "experiments-sweep"
    entry_module = "repro.experiments.__main__"
    FUZZ_PROGRAMS = 40
    EXECUTED_CANONICAL = 4

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        from repro.fortran import fuzz

        self.programs = [fuzz.generate(seed + i, "executable")
                         for i in range(self.FUZZ_PROGRAMS)]

    def inputs(self):
        return [p.source for p in self.programs]

    def sources(self):
        from repro.workloads import validation_cases

        return ([c.source for c in validation_cases().values()]
                + [p.source for p in self.programs])

    def run_pass(self, tracer=None):
        from repro.experiments import ALL_EXPERIMENTS
        from repro.experiments.ingest import ingest_source

        plan = [(name, lambda fn=fn: fn(quick=False), 1, "driver")
                for name, fn in ALL_EXPERIMENTS.items()]
        plan += [(p.name, lambda p=p: ingest_source(p.source,
                                                    f"{p.name}.f")[0],
                  1, "ingest") for p in self.programs]
        return self._ops(plan, tracer)

    def output_record(self, op):
        return None if op.result is None else op.result.to_dict()

    @staticmethod
    def speedups(ops, kind):
        return geomean([r for op in ops if op.kind == kind
                        and op.result is not None
                        for r in measured_ratios(op.result)])

    def layer_probes(self, untraced, traced, tracer):
        from cedarbench.probes import telemetry_overhead

        return {
            "sim_speedup_geomean": self.speedups(traced.ops, "driver"),
            "sim_speedup_geomean_fuzz": self.speedups(traced.ops, "ingest"),
            "telemetry.enabled_overhead_share": telemetry_overhead(),
        }

    def check(self, passes):
        from repro.fortran import fuzz
        from repro.workloads import validation_cases

        problems = self.deterministic(passes)
        attempted = failed = 0
        for p in passes:
            for op in p.ops:
                attempted += 1
                table = op.result
                ok = table is not None and table.rows and all(
                    math.isfinite(r) and r > 0.0
                    for r in measured_ratios(table))
                if not ok:
                    failed += 1
                    problems.append(f"{op.label}: no usable table")
        paper = self.speedups(passes[0].ops, "driver")
        if paper < SIM_SPEEDUP_FLOOR * (1.0 - 1e-9):
            problems.append(f"sim_speedup_geomean {paper!r} fell below "
                            f"{SIM_SPEEDUP_FLOOR!r}")
        # every generated program, and a seeded draw of the canonical
        # ones (validate-sweep executes all 22 of those), must compute
        # the same values restructured as sequential
        canonical = validation_cases()
        drawn = random.Random(self.seed).sample(
            sorted(canonical), self.EXECUTED_CANONICAL)
        for case in ([fuzz.make_case(p) for p in self.programs]
                     + [canonical[n] for n in drawn]):
            problems += execution_problems(case, self.seed)
        return attempted, failed, problems


class ValidateSweep(Sweep):
    name = "validate-sweep"
    entry_module = "repro.validate.__main__"
    #: the CLI default is (2, 8); the harness's time cap leaves room for
    #: one simulated processor count at three passes, and P=8 gives each
    #: DOALL the more interleavings for the race detector to check
    PROCESSORS = (8,)

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        from repro.workloads import validation_cases

        self._cases = validation_cases()

    def inputs(self):
        import numpy as np

        # the generated argument arrays themselves, so the digest moves
        # with anything that changes what the program is fed
        out = {}
        for name, case in sorted(self._cases.items()):
            args, _ = case.make_args(case.n, np.random.default_rng(self.seed))
            out[name] = [np.asarray(a).tolist() for a in args]
        return out

    def sources(self):
        return [c.source for c in self._cases.values()]

    def cases(self):
        return [self._cases[n] for n in sorted(self._cases)]

    def run_pass(self, tracer=None):
        from repro.validate.configs import PIPELINE_CONFIGS
        from repro.validate.differential import validate_workload

        engine = cli_engine()
        kwargs = {"engine": engine} if engine else {}
        plan = [(name, lambda case=case: validate_workload(
                    case, PIPELINE_CONFIGS, seeds=[self.seed],
                    processors=self.PROCESSORS, **kwargs),
                 len(PIPELINE_CONFIGS), "workload")
                for name, case in sorted(self._cases.items())]
        return self._ops(plan, tracer)

    def output_record(self, op):
        return op.result.to_dict()

    def jobs2_seconds(self) -> float:
        """One cold pass through the CLI's own ``--jobs 2`` fan-out."""
        from repro.engine.cache import get_cache
        from repro.engine.parallel import parallel_map
        from repro.validate.configs import PIPELINE_CONFIGS
        from repro.validate.differential import DEFAULT_ATOL, DEFAULT_RTOL
        from repro.validate.worker import run_workload_cell

        jobs = [{"workload": name, "configs": sorted(PIPELINE_CONFIGS),
                 "seeds": [self.seed], "processors": list(self.PROCESSORS),
                 "atol": DEFAULT_ATOL, "rtol": DEFAULT_RTOL, "bisect": True,
                 "timeout": None, "engine": cli_engine() or "tree"}
                for name in sorted(self._cases)]
        get_cache().clear()
        t0 = time.perf_counter()
        results = parallel_map(run_workload_cell, jobs, 2)
        seconds = time.perf_counter() - t0
        if not all(isinstance(r, dict) and r["fault"] is None
                   for r in results):
            raise RuntimeError("a --jobs 2 validate cell crashed")
        return seconds

    def layer_probes(self, untraced, traced, tracer):
        import os

        from cedarbench.probes import unshadowed_variant_seconds

        shadow = tracer.self_seconds().get("execmodel.shadow_exec", 0.0)
        base = unshadowed_variant_seconds(self.cases(), self.seed,
                                          self.PROCESSORS)
        print(f"# execmodel.shadow_slowdown base: {base:.4f} s of "
              "unshadowed tree-engine variant runs")
        if (os.cpu_count() or 1) >= 2:
            jobs2 = untraced.wall / self.jobs2_seconds()
        else:
            jobs2 = 0.0
            print('# engine.parallel.jobs2_speedup: null '
                  '{"unmeasurable": "cpu_count<2"}')
        return {
            "execmodel.shadow_slowdown": shadow / base,
            "execmodel.shadow_loops_checked": sum(
                cfg.loops_checked for op in traced.ops
                for cfg in op.result.configs),
            "engine.parallel.jobs2_speedup": jobs2,
        }

    def check(self, passes):
        problems = self.deterministic(passes)
        attempted = failed = 0
        for p in passes:
            for op in p.ops:
                for cfg in op.result.configs:
                    attempted += 1
                    # known answer: every committed workload validates
                    # clean under both pipeline configurations
                    if cfg.status != "ok":
                        failed += 1
                        problems.append(f"{op.label}/{cfg.config}: "
                                        f"{cfg.status} {cfg.error or ''}")
        for case in self.cases():
            problems += execution_problems(case, self.seed,
                                           restructured=False)
        problems += race_detector_control()
        return attempted, failed, problems


def race_detector_control() -> list[str]:
    """Negative control: a DOALL whose private scalar was made shared
    must be reported as a race, and the untouched one must not — a race
    detector that detects nothing cannot pass."""
    import numpy as np

    from repro.cedar.nodes import ParallelDo
    from repro.execmodel.interp import Interpreter
    from repro.execmodel.shadow import ShadowRecorder
    from repro.fortran.parser import parse_program
    from repro.restructurer.pipeline import Restructurer
    from repro.validate.configs import options_for_stages
    from repro.workloads.synthetic import PRIVATE_TEMP

    def conflicts(strip: bool) -> int:
        cedar, _ = Restructurer(options_for_stages(
            ["scalar-privatization"])).run(parse_program(PRIVATE_TEMP))
        loops = [s for u in cedar.units for s in u.body
                 if isinstance(s, ParallelDo)]
        if not loops or not all(s.locals_ for s in loops):
            return -1
        if strip:
            for s in loops:
                s.locals_ = []
        shadow = ShadowRecorder()
        rng = np.random.default_rng(1)
        Interpreter(cedar, processors=4, shadow=shadow).call(
            "ptmp", 24, rng.random(24), rng.random(24))
        return len(shadow.conflicts)

    clean, stripped = conflicts(False), conflicts(True)
    if clean != 0:
        return [f"race control: untouched DOALL reports {clean} conflicts"]
    if stripped < 1:
        return ["race control: DOALL with its locals stripped was not "
                "reported as a race"]
    return []


class FaultsSweep(Sweep):
    name = "faults-sweep"
    entry_module = "repro.faults.__main__"

    def __init__(self, seed, smoke=False):
        super().__init__(seed, smoke)
        from repro.faults.plan import SCENARIO_SPECS
        from repro.faults.sweep import SWEEP_WORKLOADS

        # the matrix is the input; the seed fixes the order it is given in
        rng = random.Random(seed)
        self.workloads = list(SWEEP_WORKLOADS)
        self.scenarios = list(SCENARIO_SPECS)
        rng.shuffle(self.workloads)
        rng.shuffle(self.scenarios)

    def inputs(self):
        return {"workloads": self.workloads, "scenarios": self.scenarios}

    def cases(self):
        # the synthetic ``cascade`` row is private to the sweep module;
        # the probes make do with the five public cases
        from repro.workloads import validation_cases

        known = validation_cases()
        return [known[w] for w in self.workloads if w in known]

    def sources(self):
        return [c.source for c in self.cases()]

    def run_pass(self, tracer=None):
        from repro.faults.sweep import run_sweep

        # one call per workload row — the unit ``--jobs N`` fans out, so
        # the slowest row is the floor of any parallel run
        plan = [(w, lambda w=w: run_sweep(workloads=[w],
                                          scenarios=self.scenarios, jobs=1),
                 len(self.scenarios), "row") for w in self.workloads]
        return self._ops(plan, tracer)

    def output_record(self, op):
        return op.result["runs"]

    def layer_probes(self, untraced, traced, tracer):
        return {"faults.invariant_violations": sum(
            n for op in traced.ops
            for n in op.result["summary"]["checks_failed"].values())}

    @staticmethod
    def cell_ok(run: dict) -> bool:
        from repro.faults.sweep import CHECKS

        return bool(run["ok"]) and all(run["checks"].get(c) for c in CHECKS)

    def check(self, passes):
        problems = self.deterministic(passes)
        attempted = failed = 0
        for p in passes:
            for op in p.ops:
                payload = op.result
                attempted += op.units
                good = sum(1 for r in payload["runs"] if self.cell_ok(r))
                failed += op.units - good
                if good != op.units or payload["faults"]:
                    problems.append(
                        f"{op.label}: {good}/{op.units} cells hold every "
                        f"invariant, {len(payload['faults'])} harness faults")
        # negative control: a cell with one invariant knocked out must be
        # counted as failed by the same predicate
        sample = dict(passes[0].ops[0].result["runs"][0])
        sample["checks"] = {**sample["checks"], "monotone": False}
        if self.cell_ok(sample):
            problems.append("faults control: a violated invariant passed")
        return attempted, failed, problems


SWEEPS = {cls.name: cls for cls in
          (ExperimentsSweep, ValidateSweep, FaultsSweep)}
