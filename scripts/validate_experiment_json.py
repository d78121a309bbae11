#!/usr/bin/env python3
"""Validate a repro JSON payload — experiment tables or profiles.

Usage: ``validate_experiment_json.py payload.json`` (or ``-`` for stdin).
Dispatches on the payload's ``schema`` tag:

- ``repro-experiment/1`` (``python -m repro.experiments --json``,
  ``BENCH_*.json``) against ``schemas/experiment.schema.json``;
- ``repro-profile/1`` (``--profile`` output) against
  ``schemas/profile.schema.json``;
- ``repro-validate/1`` (``python -m repro.validate --json``) against
  ``schemas/validate.schema.json``;
- ``repro-faults/1`` (``python -m repro.faults sweep --json``) against
  ``schemas/faults.schema.json``;
- ``repro-bench-history/1`` (one ``python -m repro.obs record`` entry,
  i.e. one line of ``benchmarks/history/history.jsonl``) against
  ``schemas/bench_history.schema.json``, by delegating to the canonical
  checker in ``repro.obs.history`` (which also enforces that the stored
  fingerprint matches the host stamp);
- ``repro-metrics/1`` (``--telemetry`` session artifacts) against
  ``schemas/metrics.schema.json``, by delegating to the canonical
  checker in ``repro.telemetry.schema`` (the one place the histogram /
  span / summary invariants live);
- ``repro-lint/1`` (``python -m repro.lint --json``) against
  ``schemas/lint.schema.json``.

This is a hand-rolled checker — the environment deliberately carries no
jsonschema dependency — plus semantic invariants the schema language
cannot express:

- every cycle breakdown's group totals sum to its grand total (1e-6
  relative): attribution never changes totals;
- every loop the planner accepted as ``serial`` has at least one
  rejection/failure decision with a reason: the trace must explain why a
  loop did not parallelize;
- for profiles: the memory-side ledger cycles must equal the cycles
  recomputed from the hardware counters and the embedded machine
  constants (1e-6 relative), and every loop's per-CE busy cycles must
  sum to its ``busy_time``;
- for validation reports: every status label must be consistent with its
  evidence (``divergent`` iff divergences recorded, ``race`` iff
  conflicts but no divergences, ``error`` carries a message, ``ok``
  carries nothing), culprit passes must come from the configuration's
  own stage list (or be ``base-parallelization``), and the summary
  counts must equal recounts over the body;
- for fault sweeps: summary counts must equal recounts over the runs,
  every cell's ``ok`` flag must equal the conjunction of its checks,
  degradation ratios must be consistent with the recorded cycle counts,
  ok cells must degrade monotonically within their bound, and scenario
  dicts must carry exactly the ``FaultPlan`` fields;
- for lint reports: every diagnostic must carry a 1-based line *and*
  column (the front end's no-location-free-diagnostics invariant,
  enforced at the artifact level too), codes must match ``[FW]NNN``
  with severity agreeing with the prefix, per-file and top-level
  ``ok``/counts must equal recounts over the diagnostics.

- for server envelopes (``repro-server/1``): the status must be one of
  the five classified outcomes, it decides which of ``result`` /
  ``fault`` / ``reason`` must be present, ``retries`` must equal
  ``attempts - 1``, and a successful ``/restructure`` result must embed
  a full ``repro-experiment/1`` payload, checked recursively — the
  service serves the same artifact the CLI emits.

Validation/experiment payloads produced under ``--keep-going`` /
``--timeout`` may additionally carry a top-level ``faults`` array of
structured harness-fault reports; it is checked everywhere it appears.
"""

from __future__ import annotations

import json
import sys

SCHEMA_TAG = "repro-experiment/1"
PROFILE_TAG = "repro-profile/1"
VALIDATE_TAG = "repro-validate/1"
FAULTS_TAG = "repro-faults/1"
BENCH_HISTORY_TAG = "repro-bench-history/1"
METRICS_TAG = "repro-metrics/1"
LINT_TAG = "repro-lint/1"
SERVER_TAG = "repro-server/1"

#: the classified-outcome contract: every repro.server response carries
#: exactly one of these
SERVER_STATUSES = {"ok", "degraded", "shed", "invalid-input", "error"}
SERVER_ENDPOINTS = {"restructure", "lint"}
ACTIONS = {"accepted", "rejected", "failed", "applied", "declined", "noted"}
REL_TOL = 1e-6

#: machine constants every profile run must embed (besides "name")
PROFILE_MACHINE_KEYS = ("lat_cache", "lat_cluster", "lat_global",
                        "lat_global_prefetched", "prefetch_trigger",
                        "page_fault_cost")
PROFILE_ROLES = {"serial", "parallel"}
MEMORY_KEYS = ("mem_global", "mem_cluster", "mem_cache", "prefetch",
               "page_fault")

_errors: list[str] = []


def err(path: str, msg: str) -> None:
    _errors.append(f"{path}: {msg}")


def _expect(cond: bool, path: str, msg: str) -> bool:
    if not cond:
        err(path, msg)
    return cond


def check_breakdown(bd, path: str) -> None:
    if not _expect(isinstance(bd, dict), path, "breakdown must be an object"):
        return
    if not _expect("total" in bd and "groups" in bd, path,
                   "breakdown needs 'total' and 'groups'"):
        return
    total = bd["total"]
    group_sum = 0.0
    for g, cats in bd["groups"].items():
        gpath = f"{path}.groups.{g}"
        if not _expect(isinstance(cats, dict) and "total" in cats, gpath,
                       "group needs a 'total'"):
            continue
        cat_sum = sum(v for k, v in cats.items() if k != "total")
        _expect(abs(cat_sum - cats["total"])
                <= REL_TOL * max(abs(cats["total"]), 1.0),
                gpath, f"category sum {cat_sum} != group total "
                       f"{cats['total']}")
        group_sum += cats["total"]
    _expect(abs(group_sum - total) <= REL_TOL * max(abs(total), 1.0),
            path, f"group sum {group_sum} != total {total}")


def check_decision(d, path: str) -> None:
    if not _expect(isinstance(d, dict), path, "decision must be an object"):
        return
    for key in ("kind", "unit", "technique", "action"):
        _expect(key in d, path, f"decision missing {key!r}")
    if "action" in d:
        _expect(d["action"] in ACTIONS, path,
                f"unknown action {d['action']!r}")
    if "kind" in d:
        _expect(d["kind"] in ("plan", "pass"), path,
                f"unknown kind {d['kind']!r}")


def check_serial_loops_explained(decisions, path: str) -> None:
    """Every planner-accepted 'serial' loop must carry a rejection reason."""
    serial = {(d.get("loop"), d.get("line")) for d in decisions
              if d.get("kind") == "plan" and d.get("action") == "accepted"
              and d.get("technique") == "serial"}
    for loop, line in sorted(serial, key=str):
        explained = any(
            (d.get("loop"), d.get("line")) == (loop, line)
            and d.get("action") in ("rejected", "failed")
            and d.get("reason")
            for d in decisions)
        _expect(explained, path,
                f"serial loop {loop!r} (line {line}) has no rejection "
                f"reason in the trace")


def check_trace_entry(w, path: str) -> None:
    if not _expect(isinstance(w, dict), path, "trace entry must be an object"):
        return
    for key in ("speedup", "serial_cycles", "parallel_cycles"):
        _expect(isinstance(w.get(key), (int, float)), path,
                f"missing numeric {key!r}")
    for key in ("serial_breakdown", "parallel_breakdown"):
        if key in w:
            check_breakdown(w[key], f"{path}.{key}")
    decisions = w.get("decisions", [])
    for i, d in enumerate(decisions):
        check_decision(d, f"{path}.decisions[{i}]")
    check_serial_loops_explained(decisions, path)


def check_table(t, path: str) -> None:
    if not _expect(isinstance(t, dict), path, "table must be an object"):
        return
    for key in ("title", "columns", "rows", "notes", "meta"):
        _expect(key in t, path, f"table missing {key!r}")
    cols = t.get("columns", [])
    _expect(isinstance(cols, list) and all(isinstance(c, str) for c in cols),
            f"{path}.columns", "columns must be a list of strings")
    for i, row in enumerate(t.get("rows", [])):
        rpath = f"{path}.rows[{i}]"
        if _expect(isinstance(row, dict), rpath, "row must be an object"):
            _expect(set(row) == set(cols), rpath,
                    "row keys must match the columns")
    for name, w in t.get("meta", {}).get("trace", {}).items():
        check_trace_entry(w, f"{path}.meta.trace.{name}")


def _rel_eq(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def memory_cycles_from_counters(counters: dict, machine: dict) -> dict:
    """Recompute the memory-side cycle categories from raw counters.

    Must stay in lockstep with
    ``repro.prof.counters.memory_cycles_from_counters`` — the point of
    embedding the machine constants in the document is that this script
    can audit the reconciliation with no repro import.
    """
    c = lambda k: float(counters.get(k, 0.0))  # noqa: E731
    return {
        "mem_cache": c("cache_refs") * machine["lat_cache"],
        "mem_cluster": c("cluster_refs") * machine["lat_cluster"],
        "mem_global": (c("global_refs") * machine["lat_global"]
                       + c("global_stream_elems")
                       * (0.55 * machine["lat_global"])
                       + c("bank_stall_cycles")),
        "prefetch": (c("prefetch_triggers") * machine["prefetch_trigger"]
                     + c("prefetch_elems")
                     * machine["lat_global_prefetched"]),
        "page_fault": c("page_faults") * machine["page_fault_cost"],
    }


def check_profile_loop(lp, path: str) -> None:
    if not _expect(isinstance(lp, dict), path, "loop must be an object"):
        return
    for key in ("label", "level", "order", "workers", "base", "total_time",
                "busy_time", "worker_busy", "utilization", "imbalance",
                "n_spans"):
        _expect(key in lp, path, f"loop missing {key!r}")
    wb = lp.get("worker_busy")
    if isinstance(wb, list):
        _expect(len(wb) == lp.get("workers"), path,
                f"worker_busy has {len(wb)} entries for "
                f"{lp.get('workers')} workers")
        busy = lp.get("busy_time", 0.0)
        _expect(_rel_eq(sum(wb), busy), path,
                f"worker busy sum {sum(wb)} != busy_time {busy}")
    for key in ("utilization", "imbalance"):
        v = lp.get(key)
        if isinstance(v, (int, float)):
            _expect(-REL_TOL <= v <= 1.0 + REL_TOL, path,
                    f"{key} {v} outside [0, 1]")
    _expect(lp.get("level") in ("C", "S", "X"), path,
            f"unknown loop level {lp.get('level')!r}")
    _expect(lp.get("order") in ("doall", "doacross"), path,
            f"unknown loop order {lp.get('order')!r}")


def check_profile_run(run, path: str) -> None:
    if not _expect(isinstance(run, dict), path, "run must be an object"):
        return
    _expect(isinstance(run.get("workload"), str) and run.get("workload"),
            path, "run needs a workload name")
    _expect(run.get("role") in PROFILE_ROLES, path,
            f"role must be one of {sorted(PROFILE_ROLES)}, "
            f"got {run.get('role')!r}")
    machine = run.get("machine")
    machine_ok = _expect(isinstance(machine, dict), path,
                         "run needs a machine object")
    if machine_ok:
        _expect(isinstance(machine.get("name"), str), f"{path}.machine",
                "machine needs a name")
        for k in PROFILE_MACHINE_KEYS:
            machine_ok &= _expect(
                isinstance(machine.get(k), (int, float)),
                f"{path}.machine", f"missing numeric constant {k!r}")
    _expect(isinstance(run.get("total_cycles"), (int, float))
            and run.get("total_cycles", -1) >= 0,
            path, "total_cycles must be a non-negative number")
    counters = run.get("counters")
    counters_ok = _expect(bool(isinstance(counters, dict) and counters),
                          path, "run needs a non-empty counters object")
    if counters_ok:
        for k, v in counters.items():
            counters_ok &= _expect(
                isinstance(v, (int, float)) and v >= 0,
                f"{path}.counters.{k}", f"counter must be >= 0, got {v!r}")
    mc = run.get("memory_cycles")
    if _expect(isinstance(mc, dict) and "ledger" in mc
               and "from_counters" in mc, path,
               "run needs memory_cycles.{ledger,from_counters}"):
        ledger, fc = mc["ledger"], mc["from_counters"]
        for d, name in ((ledger, "ledger"), (fc, "from_counters")):
            _expect(isinstance(d, dict) and set(d) == set(MEMORY_KEYS),
                    f"{path}.memory_cycles.{name}",
                    f"must have exactly the keys {sorted(MEMORY_KEYS)}")
        if (machine_ok and counters_ok and isinstance(ledger, dict)
                and isinstance(fc, dict) and set(ledger) == set(MEMORY_KEYS)
                and set(fc) == set(MEMORY_KEYS)):
            recomputed = memory_cycles_from_counters(counters, machine)
            for k in MEMORY_KEYS:
                _expect(_rel_eq(fc[k], recomputed[k]),
                        f"{path}.memory_cycles.from_counters.{k}",
                        f"stored {fc[k]} != recomputed {recomputed[k]}")
                _expect(_rel_eq(ledger[k], recomputed[k]),
                        f"{path}.memory_cycles.ledger.{k}",
                        f"ledger {ledger[k]} does not reconcile with "
                        f"counters ({recomputed[k]})")
    hr = run.get("prefetch_hit_rate")
    if hr is not None:
        _expect(isinstance(hr, (int, float)) and 0.0 <= hr <= 1.0, path,
                f"prefetch_hit_rate {hr!r} outside [0, 1]")
    loops = run.get("loops")
    if _expect(isinstance(loops, list), path, "run needs a loops array"):
        for i, lp in enumerate(loops):
            check_profile_loop(lp, f"{path}.loops[{i}]")


def validate_profile(payload) -> None:
    _expect(isinstance(payload.get("experiment"), str)
            and payload.get("experiment"),
            "$.experiment", "need a non-empty experiment name")
    runs = payload.get("runs")
    if _expect(isinstance(runs, list) and runs, "$.runs",
               "need a non-empty runs array"):
        for i, run in enumerate(runs):
            check_profile_run(run, f"$.runs[{i}]")
        names = [(r.get("workload"), r.get("role")) for r in runs
                 if isinstance(r, dict)]
        _expect(len(names) == len(set(names)), "$.runs",
                "duplicate (workload, role) pairs")


VALIDATE_STATUSES = {"ok", "divergent", "race", "error"}
VALIDATE_SUITES = {"linalg", "perfect"}
RACE_KINDS = {"write-write", "read-write"}


def check_divergence(d, path: str) -> None:
    if not _expect(isinstance(d, dict), path,
                   "divergence must be an object"):
        return
    for key in ("key", "dtype", "max_abs", "max_rel", "mismatches",
                "processors", "seed"):
        _expect(key in d, path, f"divergence missing {key!r}")
    m = d.get("mismatches")
    if isinstance(m, int):
        _expect(m >= 1, path, f"a divergence needs >= 1 mismatch, got {m}")


def check_race(r, path: str) -> None:
    if not _expect(isinstance(r, dict), path, "race must be an object"):
        return
    for key in ("loop", "var", "kind", "iterations"):
        _expect(key in r, path, f"race missing {key!r}")
    _expect(r.get("kind") in RACE_KINDS, path,
            f"unknown race kind {r.get('kind')!r}")
    its = r.get("iterations")
    if _expect(isinstance(its, list) and len(its) == 2, path,
               "iterations must be a pair"):
        _expect(its[0] != its[1], path,
                "a conflict needs two *different* iterations")


def check_config_result(c, path: str) -> None:
    if not _expect(isinstance(c, dict), path, "config must be an object"):
        return
    status = c.get("status")
    _expect(status in VALIDATE_STATUSES, path,
            f"unknown status {status!r}")
    divs = c.get("divergences", [])
    races = c.get("races", [])
    for i, d in enumerate(divs):
        check_divergence(d, f"{path}.divergences[{i}]")
    for i, r in enumerate(races):
        check_race(r, f"{path}.races[{i}]")
    # the status label must be consistent with the recorded evidence
    if status == "ok":
        _expect(not divs, path, "status 'ok' but divergences recorded")
        _expect(not races, path, "status 'ok' but races recorded")
        _expect(c.get("error") is None, path,
                "status 'ok' but an error message is present")
    elif status == "divergent":
        _expect(bool(divs), path,
                "status 'divergent' without any divergence")
    elif status == "race":
        _expect(bool(races), path, "status 'race' without any conflict")
        _expect(not divs, path,
                "status 'race' but divergences recorded (divergent wins)")
    elif status == "error":
        _expect(isinstance(c.get("error"), str) and c.get("error"), path,
                "status 'error' needs a message")
    culprit = c.get("culprit_pass")
    if culprit is not None:
        _expect(status == "divergent", path,
                "culprit_pass only makes sense on a divergent config")
        stages = c.get("stages", [])
        _expect(culprit == "base-parallelization" or culprit in stages,
                path, f"culprit {culprit!r} is not one of the config's "
                      f"stages")
    _expect(c.get("loops_checked", 0) >= 0, path,
            "loops_checked must be >= 0")


def validate_validation(payload) -> None:
    configs = payload.get("configs")
    _expect(isinstance(configs, list) and configs
            and all(isinstance(x, str) for x in configs),
            "$.configs", "need a non-empty list of config names")
    workloads = payload.get("workloads")
    runs = []
    if _expect(isinstance(workloads, list) and workloads, "$.workloads",
               "need a non-empty workloads array"):
        for i, w in enumerate(workloads):
            wpath = f"$.workloads[{i}]"
            if not _expect(isinstance(w, dict), wpath,
                           "workload must be an object"):
                continue
            _expect(isinstance(w.get("workload"), str) and w.get("workload"),
                    wpath, "workload needs a name")
            _expect(w.get("suite") in VALIDATE_SUITES, wpath,
                    f"unknown suite {w.get('suite')!r}")
            for j, c in enumerate(w.get("configs", [])):
                check_config_result(c, f"{wpath}.configs[{j}]")
                if isinstance(c, dict):
                    runs.append(c)
        names = [w.get("workload") for w in workloads
                 if isinstance(w, dict)]
        _expect(len(names) == len(set(names)), "$.workloads",
                "duplicate workload names")
    summary = payload.get("summary")
    if _expect(isinstance(summary, dict), "$.summary",
               "need a summary object"):
        recount = {
            "workloads": len(workloads) if isinstance(workloads, list)
            else 0,
            "configs_run": len(runs),
            "ok": sum(1 for c in runs if c.get("status") == "ok"),
            "divergent": sum(1 for c in runs
                             if c.get("status") == "divergent"),
            "race": sum(1 for c in runs if c.get("status") == "race"),
            "error": sum(1 for c in runs if c.get("status") == "error"),
            "loops_checked": sum(c.get("loops_checked", 0) for c in runs),
            "conflicts": sum(len(c.get("races", [])) for c in runs),
        }
        for key, want in recount.items():
            _expect(summary.get(key) == want, f"$.summary.{key}",
                    f"stored {summary.get(key)!r} != recount {want}")


FAULT_REPORT_KINDS = {"timeout", "error", "internal"}
FAULT_CHECKS = ("monotone", "attributed", "bounded", "numerics_identical",
                "recovery_ok", "no_deadlock")
FAULT_PLAN_KEYS = frozenset({
    "name", "seed", "dead_ces", "death_cycle", "ce_slowdown",
    "cluster_slowdown", "memory_degradation", "bandwidth_factor",
    "prefetch_disabled", "lost_sync_rate", "helper_delay"})


def check_fault_report(f, path: str) -> None:
    if not _expect(isinstance(f, dict), path,
                   "fault report must be an object"):
        return
    for key in ("label", "kind", "error_type", "message", "elapsed_s"):
        _expect(key in f, path, f"fault report missing {key!r}")
    _expect(f.get("kind") in FAULT_REPORT_KINDS, path,
            f"unknown fault kind {f.get('kind')!r}")
    es = f.get("elapsed_s")
    if isinstance(es, (int, float)):
        _expect(es >= 0, path, f"elapsed_s must be >= 0, got {es}")


def check_harness_faults(payload) -> None:
    """The optional top-level ``faults`` array (keep-going harness)."""
    faults = payload.get("faults")
    if faults is None:
        return
    if _expect(isinstance(faults, list), "$.faults",
               "faults must be an array"):
        for i, f in enumerate(faults):
            check_fault_report(f, f"$.faults[{i}]")


def check_fault_plan(plan, path: str) -> None:
    if not _expect(isinstance(plan, dict), path,
                   "scenario plan must be an object"):
        return
    _expect(set(plan) == FAULT_PLAN_KEYS, path,
            f"plan must carry exactly the FaultPlan fields "
            f"(got {sorted(plan)})")
    if not set(plan) == FAULT_PLAN_KEYS:
        return
    _expect(plan["cluster_slowdown"] >= 1, path, "cluster_slowdown < 1")
    _expect(plan["memory_degradation"] >= 1, path, "memory_degradation < 1")
    _expect(0 < plan["bandwidth_factor"] <= 1, path,
            "bandwidth_factor outside (0, 1]")
    _expect(0 <= plan["lost_sync_rate"] <= 1, path,
            "lost_sync_rate outside [0, 1]")
    _expect(plan["death_cycle"] >= 0 and plan["helper_delay"] >= 0, path,
            "death_cycle/helper_delay must be >= 0")
    _expect(all(isinstance(w, int) and w >= 0 for w in plan["dead_ces"]),
            path, "dead_ces must be worker indices >= 0")
    _expect(all(isinstance(e, list) and len(e) == 2 and e[1] >= 1
                for e in plan["ce_slowdown"]),
            path, "ce_slowdown must be [worker, factor >= 1] pairs")


def check_fault_run(r, path: str, scenarios) -> None:
    if not _expect(isinstance(r, dict), path, "run must be an object"):
        return
    for key in ("workload", "scenario", "healthy_cycles", "faulted_cycles",
                "fault_cycles", "degradation", "bound", "injected_faults",
                "sync_retries", "survivors", "checks", "ok"):
        if not _expect(key in r, path, f"run missing {key!r}"):
            return
    if isinstance(scenarios, dict):
        _expect(r["scenario"] in scenarios, path,
                f"scenario {r['scenario']!r} not in the sweep's matrix")
    checks = r["checks"]
    if not _expect(isinstance(checks, dict)
                   and set(FAULT_CHECKS) <= set(checks), path,
                   f"checks must cover {list(FAULT_CHECKS)}"):
        return
    _expect(r["ok"] == all(checks[c] for c in FAULT_CHECKS), path,
            "ok flag does not equal the conjunction of the checks")
    healthy, faulted = r["healthy_cycles"], r["faulted_cycles"]
    ratio = faulted / max(healthy, 1e-9)
    _expect(_rel_eq(r["degradation"], ratio), path,
            f"degradation {r['degradation']} != faulted/healthy {ratio}")
    _expect(r["survivors"] >= 1, path,
            "survivors must be >= 1 (no-deadlock guarantee)")
    _expect(r["fault_cycles"] >= 0, path, "fault_cycles must be >= 0")
    if r["ok"]:
        _expect(r["degradation"] >= 1.0 - REL_TOL, path,
                f"ok cell degraded below healthy ({r['degradation']})")
        _expect(faulted <= healthy * r["bound"] + 1.0, path,
                f"ok cell exceeds its bound "
                f"({faulted} > {healthy} * {r['bound']})")


def validate_faults(payload) -> None:
    _expect(isinstance(payload.get("machine"), str)
            and payload.get("machine"),
            "$.machine", "need a machine name")
    workloads = payload.get("workloads")
    _expect(isinstance(workloads, list) and workloads
            and all(isinstance(w, str) for w in workloads),
            "$.workloads", "need a non-empty list of workload names")
    scenarios = payload.get("scenarios")
    if _expect(isinstance(scenarios, dict) and scenarios, "$.scenarios",
               "need a non-empty scenarios object"):
        for name, plan in scenarios.items():
            check_fault_plan(plan, f"$.scenarios.{name}")
            if isinstance(plan, dict) and plan.get("name") not in (None,
                                                                   name):
                err(f"$.scenarios.{name}",
                    f"plan name {plan.get('name')!r} != key {name!r}")
    runs = payload.get("runs")
    if not _expect(isinstance(runs, list), "$.runs",
                   "need a runs array"):
        runs = []
    for i, r in enumerate(runs):
        check_fault_run(r, f"$.runs[{i}]", scenarios)
    cells = [(r.get("workload"), r.get("scenario")) for r in runs
             if isinstance(r, dict)]
    _expect(len(cells) == len(set(cells)), "$.runs",
            "duplicate (workload, scenario) cells")
    check_harness_faults(payload)
    summary = payload.get("summary")
    if _expect(isinstance(summary, dict), "$.summary",
               "need a summary object"):
        runs_d = [r for r in runs if isinstance(r, dict)]
        n_ok = sum(1 for r in runs_d if r.get("ok"))
        recount = {
            "cells_run": len(runs_d),
            "ok": n_ok,
            "failed": len(runs_d) - n_ok,
            "harness_faults": len(payload.get("faults") or []),
        }
        for key, want in recount.items():
            _expect(summary.get(key) == want, f"$.summary.{key}",
                    f"stored {summary.get(key)!r} != recount {want}")
        cf = summary.get("checks_failed")
        if _expect(isinstance(cf, dict) and set(FAULT_CHECKS) <= set(cf),
                   "$.summary.checks_failed",
                   f"must cover {list(FAULT_CHECKS)}"):
            for c in FAULT_CHECKS:
                want = sum(1 for r in runs_d
                           if not r.get("checks", {}).get(c, False))
                _expect(cf[c] == want, f"$.summary.checks_failed.{c}",
                        f"stored {cf[c]!r} != recount {want}")


def validate_bench_history_entry(payload) -> list[str]:
    """Delegate to the canonical repro-bench-history/1 checker."""
    try:
        from repro.obs.history import validate_entry
    except ImportError:
        import os
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"))
        from repro.obs.history import validate_entry
    return validate_entry(payload)


def validate_metrics_payload(payload) -> list[str]:
    """Delegate to the canonical repro-metrics/1 checker.

    The invariants live in ``repro.telemetry.schema`` (one code path);
    this script only needs ``src`` importable, falling back to its own
    repo-relative location when ``PYTHONPATH`` is not set.
    """
    try:
        from repro.telemetry.schema import validate_metrics
    except ImportError:
        import os
        sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"))
        from repro.telemetry.schema import validate_metrics
    return validate_metrics(payload)


LINT_SEVERITIES = {"error", "warning"}


def check_lint_diag(d, path: str) -> None:
    if not _expect(isinstance(d, dict), path,
                   "diagnostic must be an object"):
        return
    code = d.get("code")
    code_ok = _expect(
        isinstance(code, str) and len(code) == 4 and code[0] in "FW"
        and code[1:].isdigit(), path, f"malformed code {code!r}")
    _expect(isinstance(d.get("slug"), str) and d.get("slug"), path,
            "diagnostic needs a slug")
    sev = d.get("severity")
    _expect(sev in LINT_SEVERITIES, path, f"unknown severity {sev!r}")
    if code_ok and sev in LINT_SEVERITIES:
        want = "error" if code[0] == "F" else "warning"
        _expect(sev == want, path,
                f"severity {sev!r} disagrees with code prefix {code[0]!r}")
    _expect(isinstance(d.get("message"), str) and d.get("message"), path,
            "diagnostic needs a message")
    # the front end's core invariant: no diagnostic without a location
    for key in ("line", "col"):
        v = d.get(key)
        _expect(isinstance(v, int) and v >= 1, path,
                f"{key} must be a 1-based integer, got {v!r}")


def check_lint_file(f, path: str) -> None:
    if not _expect(isinstance(f, dict), path, "file must be an object"):
        return
    for key in ("path", "ok", "error_count", "warning_count",
                "suppressed_errors", "diagnostics"):
        if not _expect(key in f, path, f"file missing {key!r}"):
            return
    _expect(isinstance(f["path"], str) and f["path"], path,
            "file needs a path")
    diags = f["diagnostics"]
    if not _expect(isinstance(diags, list), f"{path}.diagnostics",
                   "must be an array"):
        return
    for i, d in enumerate(diags):
        check_lint_diag(d, f"{path}.diagnostics[{i}]")
    n_err = sum(1 for d in diags if isinstance(d, dict)
                and d.get("severity") == "error")
    n_warn = sum(1 for d in diags if isinstance(d, dict)
                 and d.get("severity") == "warning")
    _expect(f["error_count"] == n_err, path,
            f"error_count {f['error_count']!r} != recount {n_err}")
    _expect(f["warning_count"] == n_warn, path,
            f"warning_count {f['warning_count']!r} != recount {n_warn}")
    _expect(isinstance(f["suppressed_errors"], int)
            and f["suppressed_errors"] >= 0, path,
            "suppressed_errors must be an integer >= 0")
    want_ok = n_err == 0 and f.get("suppressed_errors") == 0
    _expect(f["ok"] == want_ok, path,
            f"ok flag {f['ok']!r} disagrees with the diagnostics")


def validate_lint(payload) -> None:
    files = payload.get("files")
    if not _expect(isinstance(files, list) and files, "$.files",
                   "need a non-empty files array"):
        return
    for i, f in enumerate(files):
        check_lint_file(f, f"$.files[{i}]")
    files_d = [f for f in files if isinstance(f, dict)]
    _expect(payload.get("ok") == all(f.get("ok") is True for f in files_d),
            "$.ok", "ok flag must equal the conjunction of the files")
    for key in ("error_count", "warning_count"):
        want = sum(f.get(key, 0) for f in files_d
                   if isinstance(f.get(key), int))
        _expect(payload.get(key) == want, f"$.{key}",
                f"stored {payload.get(key)!r} != recount {want}")
    names = [f.get("path") for f in files_d]
    _expect(len(names) == len(set(names)), "$.files",
            "duplicate file paths")
    meta = payload.get("meta")
    if _expect(isinstance(meta, dict), "$.meta", "need a meta object"):
        _expect(meta.get("tool") == "repro.lint", "$.meta.tool",
                f"expected 'repro.lint', got {meta.get('tool')!r}")


def validate_server(payload) -> None:
    """The ``repro-server/1`` response envelope.

    Cross-field invariants: the status decides which of ``result`` /
    ``fault`` / ``reason`` must be present, ``retries`` must equal
    ``attempts - 1``, and a successful ``/restructure`` result must
    embed a full ``repro-experiment/1`` payload (checked recursively —
    the service serves the same artifact the CLI emits).
    """
    for key in ("schema", "request_id", "endpoint", "status", "attempts",
                "retries", "degraded", "reason", "elapsed_s", "result",
                "fault"):
        _expect(key in payload, f"$.{key}", "required envelope key")
    status = payload.get("status")
    if not _expect(status in SERVER_STATUSES, "$.status",
                   f"expected one of {sorted(SERVER_STATUSES)}, "
                   f"got {status!r}"):
        return
    _expect(isinstance(payload.get("request_id"), str)
            and payload.get("request_id"), "$.request_id",
            "need a non-empty request id")
    endpoint = payload.get("endpoint")
    _expect(endpoint in SERVER_ENDPOINTS, "$.endpoint",
            f"expected one of {sorted(SERVER_ENDPOINTS)}, "
            f"got {endpoint!r}")
    attempts = payload.get("attempts")
    if _expect(isinstance(attempts, int) and attempts >= 1, "$.attempts",
               f"need a positive attempt count, got {attempts!r}"):
        _expect(payload.get("retries") == attempts - 1, "$.retries",
                f"retries {payload.get('retries')!r} != attempts - 1 "
                f"({attempts - 1})")
    degraded = payload.get("degraded")
    _expect(isinstance(degraded, list)
            and all(isinstance(d, str) and d for d in degraded),
            "$.degraded", "must be a list of non-empty strings")
    elapsed = payload.get("elapsed_s")
    _expect(isinstance(elapsed, (int, float)) and elapsed >= 0,
            "$.elapsed_s", f"need a non-negative number, got {elapsed!r}")

    result, fault = payload.get("result"), payload.get("fault")
    if status in ("ok", "degraded"):
        _expect(fault is None, "$.fault",
                f"a {status} response must not carry a fault")
        _expect(result is not None, "$.result",
                f"a {status} response must carry a result")
        if status == "ok":
            _expect(not degraded, "$.degraded",
                    "an ok response must have an empty degraded list")
        else:
            _expect(bool(degraded), "$.degraded",
                    "a degraded response must say how it degraded")
    elif status == "error":
        _expect(result is None, "$.result",
                "an error response must not carry a result")
        if _expect(isinstance(fault, dict), "$.fault",
                   "an error response must carry a fault object"):
            for key in ("label", "kind", "error_type", "message"):
                _expect(key in fault, f"$.fault.{key}",
                        "required fault key")
    else:                        # shed / invalid-input
        _expect(result is None, "$.result",
                f"a {status} response must not carry a result")
        _expect(isinstance(payload.get("reason"), str)
                and payload.get("reason"), "$.reason",
                f"a {status} response must carry a reason")

    if result is None or not isinstance(result, dict):
        return
    if endpoint == "restructure":
        exp = result.get("experiment")
        if _expect(isinstance(exp, dict), "$.result.experiment",
                   "restructure results embed the experiment payload"):
            _expect(exp.get("schema") == SCHEMA_TAG,
                    "$.result.experiment.schema",
                    f"expected {SCHEMA_TAG!r}, got {exp.get('schema')!r}")
            experiments = exp.get("experiments")
            if _expect(isinstance(experiments, dict) and experiments,
                       "$.result.experiment.experiments",
                       "need a non-empty experiments object"):
                for name, t in experiments.items():
                    check_table(t, f"$.result.experiment"
                                   f".experiments.{name}")
    elif endpoint == "lint":
        _expect(result.get("schema") == LINT_TAG, "$.result.schema",
                f"expected {LINT_TAG!r}, got {result.get('schema')!r}")
        validate_lint(result)


def validate(payload) -> list[str]:
    """Return a list of violations (empty == valid)."""
    _errors.clear()
    if not _expect(isinstance(payload, dict), "$", "payload must be an object"):
        return list(_errors)
    tag = payload.get("schema")
    if tag == PROFILE_TAG:
        validate_profile(payload)
        return list(_errors)
    if tag == VALIDATE_TAG:
        validate_validation(payload)
        check_harness_faults(payload)
        return list(_errors)
    if tag == FAULTS_TAG:
        validate_faults(payload)
        return list(_errors)
    if tag == BENCH_HISTORY_TAG:
        _errors.extend(validate_bench_history_entry(payload))
        return list(_errors)
    if tag == METRICS_TAG:
        _errors.extend(validate_metrics_payload(payload))
        return list(_errors)
    if tag == LINT_TAG:
        validate_lint(payload)
        return list(_errors)
    if tag == SERVER_TAG:
        validate_server(payload)
        return list(_errors)
    _expect(tag == SCHEMA_TAG, "$.schema",
            f"expected {SCHEMA_TAG!r}, {PROFILE_TAG!r}, "
            f"{VALIDATE_TAG!r}, {FAULTS_TAG!r}, {BENCH_HISTORY_TAG!r}, "
            f"{METRICS_TAG!r}, {LINT_TAG!r} or {SERVER_TAG!r}, "
            f"got {tag!r}")
    experiments = payload.get("experiments")
    if _expect(isinstance(experiments, dict) and experiments,
               "$.experiments", "need a non-empty experiments object"):
        for name, t in experiments.items():
            check_table(t, f"$.experiments.{name}")
    check_harness_faults(payload)
    return list(_errors)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    raw = sys.stdin.read() if argv[1] == "-" else open(argv[1]).read()
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"invalid JSON: {exc}", file=sys.stderr)
        return 1
    problems = validate(payload)
    if problems:
        for p in problems:
            print(p, file=sys.stderr)
        print(f"{len(problems)} violation(s)", file=sys.stderr)
        return 1
    if payload.get("schema") == PROFILE_TAG:
        print(f"OK: {len(payload['runs'])} profiled run(s) conform to "
              f"{PROFILE_TAG}")
    elif payload.get("schema") == VALIDATE_TAG:
        s = payload["summary"]
        print(f"OK: {s['configs_run']} validation run(s) over "
              f"{s['workloads']} workload(s) conform to {VALIDATE_TAG}")
    elif payload.get("schema") == FAULTS_TAG:
        s = payload["summary"]
        print(f"OK: {s['cells_run']} oracle cell(s) "
              f"({s['ok']} ok, {s['harness_faults']} harness fault(s)) "
              f"conform to {FAULTS_TAG}")
    elif payload.get("schema") == BENCH_HISTORY_TAG:
        print(f"OK: history entry with {len(payload['metrics'])} "
              f"metric(s) conforms to {BENCH_HISTORY_TAG}")
    elif payload.get("schema") == METRICS_TAG:
        s = payload["summary"]
        print(f"OK: {len(payload['spans'])} span(s) over "
              f"{s['cells']} cell(s) and {len(payload['pids'])} "
              f"process(es) conform to {METRICS_TAG}")
    elif payload.get("schema") == LINT_TAG:
        print(f"OK: lint report over {len(payload['files'])} file(s) "
              f"({payload['error_count']} error(s), "
              f"{payload['warning_count']} warning(s)) conforms to "
              f"{LINT_TAG}")
    else:
        n = len(payload["experiments"])
        print(f"OK: {n} experiment(s) conform to {SCHEMA_TAG}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
