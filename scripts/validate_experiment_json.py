#!/usr/bin/env python3
"""Validate a repro JSON artifact against its schema and invariants.

Usage: ``validate_experiment_json.py payload.json`` (or ``-`` for stdin).
Exit status: 0 valid; 1 invalid JSON or violations; 2 usage error
(wrong argument count, unreadable path).

The payload's ``schema`` tag selects one of ``schemas/*.schema.json``
(keyed by its ``$id``): ``repro-experiment/1`` (``python -m
repro.experiments --json``, ``BENCH_*.json``), ``repro-profile/1``
(``--profile``), ``repro-validate/1``, ``repro-faults/1``,
``repro-lint/1``, ``repro-metrics/1`` (``--telemetry`` sessions) and
``repro-server/1`` (service envelopes).

Validation is schema-first.  :func:`check_shape` interprets the
JSON-Schema subset those files use and is the only code that checks
artifact *shape*; every violation names the JSON path.  Only when the
shape is clean does the tag's invariant hook run the cross-field
semantics the schema language cannot say, so the hooks index the
payload without guards:

- experiments: every cycle breakdown's group totals sum to its grand
  total (1e-6 relative — attribution never changes totals), rows carry
  exactly the table's columns, and every loop the planner accepted as
  ``serial`` has a rejection/failure decision with a reason;
- profiles: the memory-side ledger cycles equal the cycles recomputed
  from the hardware counters and the embedded machine constants, and
  every loop's per-CE busy cycles sum to its ``busy_time``;
- validation reports: every status label is consistent with its
  evidence (``divergent`` iff divergences recorded, ``race`` iff
  conflicts but no divergences, ``error`` carries a message, ``ok``
  carries nothing), culprit passes come from the configuration's own
  stage list (or are ``base-parallelization``), and the summary counts
  equal recounts over the body;
- fault sweeps: summary counts equal recounts over the runs, every
  cell's ``ok`` flag equals the conjunction of its checks, degradation
  ratios are consistent with the recorded cycle counts, and ok cells
  degrade monotonically within their bound;
- lint reports: severity agrees with the ``[FW]NNN`` code prefix and
  per-file and top-level ``ok``/counts equal recounts over the
  diagnostics;
- telemetry sessions: histogram bucket counts sum to ``count`` and the
  sum lies within ``count * [min, max]``, every span's pid and parent
  resolve within the document, and the summary's cell / stage /
  worker / cache figures equal recounts over the spans and counters;
- server envelopes: the status decides which of ``result`` / ``fault`` /
  ``reason`` is present, ``retries == attempts - 1``, and a successful
  result embeds a full ``repro-experiment/1`` (``/restructure``) or
  ``repro-lint/1`` (``/lint``) payload, validated recursively — the
  service serves the same artifact the CLI emits.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schemas"
REL_TOL = 1e-6


def load_schemas() -> dict[str, dict]:
    """Every ``schemas/*.schema.json``, keyed by its ``$id`` (the tag)."""
    docs = (json.loads(p.read_text())
            for p in sorted(SCHEMA_DIR.glob("*.schema.json")))
    return {doc["$id"]: doc for doc in docs}


SCHEMAS = load_schemas()

# ---------------------------------------------------------------------------
# shape: the JSON-Schema subset the schema files use

_JSON_TYPES = {"object": dict, "array": list, "string": str,
               "boolean": bool, "null": type(None)}

#: every keyword :func:`check_shape` understands; the first five
#: describe rather than constrain
KEYWORDS = frozenset({
    "$schema", "$id", "title", "description", "definitions",
    "$ref", "type", "const", "enum", "oneOf",
    "minimum", "maximum", "exclusiveMinimum", "minLength", "pattern",
    "minItems", "maxItems", "items",
    "minProperties", "required", "properties", "additionalProperties"})


def _has_type(v, name: str) -> bool:
    if name in ("number", "integer"):
        kinds = int if name == "integer" else (int, float)
        return isinstance(v, kinds) and not isinstance(v, bool)
    return isinstance(v, _JSON_TYPES[name])


def check_shape(v, schema: dict, root: dict, path: str,
                out: list[str]) -> None:
    """Append one ``path: message`` per way *v* departs from *schema*.

    *root* is the document a local ``$ref`` resolves in.  A keyword
    outside :data:`KEYWORDS` raises: a constraint the interpreter would
    silently skip must not look enforced.
    """
    unknown = set(schema) - KEYWORDS
    if unknown:
        raise ValueError(f"{path}: unsupported schema keyword(s) "
                         f"{sorted(unknown)}")
    if "$ref" in schema:
        target = root
        for part in schema["$ref"].removeprefix("#/").split("/"):
            target = target[part]
        return check_shape(v, target, root, path, out)

    def bad(msg: str, at: str = path) -> None:
        out.append(f"{at}: {msg}")

    if "type" in schema:
        names = schema["type"]
        names = names if isinstance(names, list) else [names]
        if not any(_has_type(v, n) for n in names):
            # the remaining keywords presuppose the type
            return bad(f"expected {' or '.join(names)}, "
                       f"got {type(v).__name__}")
    if "const" in schema and v != schema["const"]:
        bad(f"expected {schema['const']!r}, got {v!r}")
    if "enum" in schema and v not in schema["enum"]:
        bad(f"expected one of {schema['enum']}, got {v!r}")
    if "oneOf" in schema:
        matches = 0
        for alternative in schema["oneOf"]:
            trial: list[str] = []
            check_shape(v, alternative, root, path, trial)
            matches += not trial
        if matches != 1:
            bad(f"matches {matches} of the oneOf alternatives, need 1")

    if isinstance(v, bool):
        pass
    elif isinstance(v, (int, float)):
        if "minimum" in schema and v < schema["minimum"]:
            bad(f"{v} is below the minimum {schema['minimum']}")
        if "maximum" in schema and v > schema["maximum"]:
            bad(f"{v} is above the maximum {schema['maximum']}")
        if "exclusiveMinimum" in schema \
                and v <= schema["exclusiveMinimum"]:
            bad(f"{v} must exceed {schema['exclusiveMinimum']}")
    elif isinstance(v, str):
        if len(v) < schema.get("minLength", 0):
            bad(f"string shorter than {schema['minLength']}")
        if "pattern" in schema and not re.search(schema["pattern"], v):
            bad(f"{v!r} does not match {schema['pattern']!r}")
    elif isinstance(v, list):
        if len(v) < schema.get("minItems", 0):
            bad(f"need at least {schema['minItems']} item(s), "
                f"got {len(v)}")
        if len(v) > schema.get("maxItems", len(v)):
            bad(f"need at most {schema['maxItems']} item(s), "
                f"got {len(v)}")
        if "items" in schema:
            for i, item in enumerate(v):
                check_shape(item, schema["items"], root,
                            f"{path}[{i}]", out)
    elif isinstance(v, dict):
        if len(v) < schema.get("minProperties", 0):
            bad(f"need at least {schema['minProperties']} key(s), "
                f"got {len(v)}")
        for key in schema.get("required", ()):
            if key not in v:
                bad("missing required key", f"{path}.{key}")
        props = schema.get("properties", {})
        extra = schema.get("additionalProperties", True)
        for key, item in v.items():
            if key in props:
                check_shape(item, props[key], root, f"{path}.{key}", out)
            elif extra is False:
                bad("unexpected key", f"{path}.{key}")
            elif extra is not True:
                check_shape(item, extra, root, f"{path}.{key}", out)


# ---------------------------------------------------------------------------
# invariant hooks: cross-field semantics, run on shape-clean payloads only


def _rel_eq(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b), 1.0)


def _recount(stored: dict, want: dict, path: str, out: list[str]) -> None:
    for key, n in want.items():
        if stored.get(key) != n:
            out.append(f"{path}.{key}: stored {stored.get(key)!r} != "
                       f"recount {n}")


def _duplicates(keys: list, path: str, what: str, out: list[str]) -> None:
    if len(keys) != len(set(keys)):
        out.append(f"{path}: duplicate {what}")


def _breakdown(bd: dict, path: str, out: list[str]) -> None:
    group_sum = 0.0
    for g, cats in bd["groups"].items():
        cat_sum = sum(v for k, v in cats.items() if k != "total")
        if not _rel_eq(cat_sum, cats["total"]):
            out.append(f"{path}.groups.{g}: category sum {cat_sum} != "
                       f"group total {cats['total']}")
        group_sum += cats["total"]
    if not _rel_eq(group_sum, bd["total"]):
        out.append(f"{path}: group sum {group_sum} != total "
                   f"{bd['total']}")


def _serial_loops_explained(decisions: list, path: str,
                            out: list[str]) -> None:
    """Every planner-accepted 'serial' loop must carry a rejection reason."""
    def where(d):
        return d.get("loop"), d.get("line")

    serial = {where(d) for d in decisions
              if (d["kind"], d["action"], d["technique"])
              == ("plan", "accepted", "serial")}
    for loop, line in sorted(serial, key=str):
        if not any(where(d) == (loop, line) and d.get("reason")
                   and d["action"] in ("rejected", "failed")
                   for d in decisions):
            out.append(f"{path}: serial loop {loop!r} (line {line}) has "
                       f"no rejection reason in the trace")


def check_experiment(payload: dict, path: str, out: list[str]) -> None:
    if not payload["experiments"] and not payload.get("faults"):
        out.append(f"{path}.experiments: empty, and no fault says why")
    for name, table in payload["experiments"].items():
        tpath = f"{path}.experiments.{name}"
        columns = set(table["columns"])
        for i, row in enumerate(table["rows"]):
            if set(row) != columns:
                out.append(f"{tpath}.rows[{i}]: row keys must match the "
                           f"columns")
        for wname, w in table["meta"].get("trace", {}).items():
            wpath = f"{tpath}.meta.trace.{wname}"
            for key in ("serial_breakdown", "parallel_breakdown"):
                if key in w:
                    _breakdown(w[key], f"{wpath}.{key}", out)
            _serial_loops_explained(w.get("decisions", []), wpath, out)


def memory_cycles_from_counters(counters: dict, machine: dict) -> dict:
    """Recompute the memory-side cycle categories from raw counters.

    Must stay in lockstep with
    ``repro.trace.ledger.memory_cycles_from_counters`` — the point of
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


def check_profile(payload: dict, path: str, out: list[str]) -> None:
    runs = payload["runs"]
    for i, run in enumerate(runs):
        mpath = f"{path}.runs[{i}].memory_cycles"
        stored = run["memory_cycles"]
        recomputed = memory_cycles_from_counters(run["counters"],
                                                 run["machine"])
        for k, want in recomputed.items():
            if not _rel_eq(stored["from_counters"][k], want):
                out.append(f"{mpath}.from_counters.{k}: stored "
                           f"{stored['from_counters'][k]} != recomputed "
                           f"{want}")
            if not _rel_eq(stored["ledger"][k], want):
                out.append(f"{mpath}.ledger.{k}: ledger "
                           f"{stored['ledger'][k]} does not reconcile "
                           f"with counters ({want})")
        for j, lp in enumerate(run["loops"]):
            lpath = f"{path}.runs[{i}].loops[{j}]"
            busy = lp["worker_busy"]
            if len(busy) != lp["workers"]:
                out.append(f"{lpath}: worker_busy has {len(busy)} entries "
                           f"for {lp['workers']} workers")
            if not _rel_eq(sum(busy), lp["busy_time"]):
                out.append(f"{lpath}: worker busy sum {sum(busy)} != "
                           f"busy_time {lp['busy_time']}")
    _duplicates([(r["workload"], r["role"]) for r in runs],
                f"{path}.runs", "(workload, role) pairs", out)


def _config_result(c: dict, path: str, out: list[str]) -> None:
    def bad(msg: str) -> None:
        out.append(f"{path}: {msg}")

    status, divs, races = c["status"], c["divergences"], c["races"]
    for i, r in enumerate(races):
        if r["iterations"][0] == r["iterations"][1]:
            out.append(f"{path}.races[{i}]: a conflict needs two "
                       f"*different* iterations")
    # the status label must be consistent with the recorded evidence
    if status == "ok":
        if divs:
            bad("status 'ok' but divergences recorded")
        if races:
            bad("status 'ok' but races recorded")
        if c["error"] is not None:
            bad("status 'ok' but an error message is present")
    elif status == "divergent":
        if not divs:
            bad("status 'divergent' without any divergence")
    elif status == "race":
        if not races:
            bad("status 'race' without any conflict")
        if divs:
            bad("status 'race' but divergences recorded (divergent wins)")
    elif not c["error"]:
        bad("status 'error' needs a message")
    culprit = c["culprit_pass"]
    if culprit is not None:
        if status != "divergent":
            bad("culprit_pass only makes sense on a divergent config")
        if culprit != "base-parallelization" \
                and culprit not in c["stages"]:
            bad(f"culprit {culprit!r} is not one of the config's stages")


def check_validation(payload: dict, path: str, out: list[str]) -> None:
    workloads = payload["workloads"]
    runs = []
    for i, w in enumerate(workloads):
        for j, c in enumerate(w["configs"]):
            _config_result(c, f"{path}.workloads[{i}].configs[{j}]", out)
            runs.append(c)
    _duplicates([w["workload"] for w in workloads], f"{path}.workloads",
                "workload names", out)
    want = {"workloads": len(workloads), "configs_run": len(runs),
            "loops_checked": sum(c["loops_checked"] for c in runs),
            "conflicts": sum(len(c["races"]) for c in runs)}
    for status in ("ok", "divergent", "race", "error"):
        want[status] = sum(1 for c in runs if c["status"] == status)
    _recount(payload["summary"], want, f"{path}.summary", out)


FAULT_CHECKS = ("monotone", "attributed", "bounded", "numerics_identical",
                "recovery_ok", "no_deadlock")


def _fault_run(r: dict, path: str, scenarios: dict,
               out: list[str]) -> None:
    def bad(msg: str) -> None:
        out.append(f"{path}: {msg}")

    if r["scenario"] not in scenarios:
        bad(f"scenario {r['scenario']!r} not in the sweep's matrix")
    if r["ok"] != all(r["checks"][c] for c in FAULT_CHECKS):
        bad("ok flag does not equal the conjunction of the checks")
    healthy, faulted = r["healthy_cycles"], r["faulted_cycles"]
    ratio = faulted / max(healthy, 1e-9)
    if not _rel_eq(r["degradation"], ratio):
        bad(f"degradation {r['degradation']} != faulted/healthy {ratio}")
    if r["ok"]:
        if r["degradation"] < 1.0 - REL_TOL:
            bad(f"ok cell degraded below healthy ({r['degradation']})")
        if faulted > healthy * r["bound"] + 1.0:
            bad(f"ok cell exceeds its bound "
                f"({faulted} > {healthy} * {r['bound']})")


def check_faults(payload: dict, path: str, out: list[str]) -> None:
    scenarios, runs = payload["scenarios"], payload["runs"]
    for name, plan in scenarios.items():
        ppath = f"{path}.scenarios.{name}"
        if plan["name"] != name:
            out.append(f"{ppath}: plan name {plan['name']!r} != key "
                       f"{name!r}")
        if any(factor < 1 for _, factor in plan["ce_slowdown"]):
            out.append(f"{ppath}: ce_slowdown must be "
                       f"[worker, factor >= 1] pairs")
    for i, r in enumerate(runs):
        _fault_run(r, f"{path}.runs[{i}]", scenarios, out)
    _duplicates([(r["workload"], r["scenario"]) for r in runs],
                f"{path}.runs", "(workload, scenario) cells", out)
    summary = payload["summary"]
    n_ok = sum(1 for r in runs if r["ok"])
    _recount(summary, {"cells_run": len(runs), "ok": n_ok,
                       "failed": len(runs) - n_ok,
                       "harness_faults": len(payload["faults"])},
             f"{path}.summary", out)
    _recount(summary["checks_failed"],
             {c: sum(1 for r in runs if not r["checks"][c])
              for c in FAULT_CHECKS},
             f"{path}.summary.checks_failed", out)


def _lint_file(f: dict, path: str, out: list[str]) -> None:
    count = {"error": 0, "warning": 0}
    for i, d in enumerate(f["diagnostics"]):
        count[d["severity"]] += 1
        want = "error" if d["code"][0] == "F" else "warning"
        if d["severity"] != want:
            out.append(f"{path}.diagnostics[{i}]: severity "
                       f"{d['severity']!r} disagrees with code prefix "
                       f"{d['code'][0]!r}")
    for severity, n in count.items():
        key = f"{severity}_count"
        if f[key] != n:
            out.append(f"{path}: {key} {f[key]!r} != recount {n}")
    if f["ok"] != (count["error"] == 0 and f["suppressed_errors"] == 0):
        out.append(f"{path}: ok flag {f['ok']!r} disagrees with the "
                   f"diagnostics")


def check_lint(payload: dict, path: str, out: list[str]) -> None:
    files = payload["files"]
    for i, f in enumerate(files):
        _lint_file(f, f"{path}.files[{i}]", out)
    if payload["ok"] != all(f["ok"] for f in files):
        out.append(f"{path}.ok: ok flag must equal the conjunction of "
                   f"the files")
    _recount(payload, {key: sum(f[key] for f in files)
                       for key in ("error_count", "warning_count")},
             path, out)
    _duplicates([f["path"] for f in files], f"{path}.files",
                "file paths", out)


def _histogram(h: dict, path: str, out: list[str]) -> None:
    def bad(msg: str) -> None:
        out.append(f"{path}: {msg}")

    bounds, counts, count = h["bounds"], h["counts"], h["count"]
    if any(a >= b for a, b in zip(bounds, bounds[1:])):
        bad("bounds must be strictly increasing")
    if len(counts) != len(bounds) + 1:
        bad(f"need len(bounds)+1 counts, got {len(counts)} for "
            f"{len(bounds)} bounds")
    if sum(counts) != count:
        bad(f"bucket counts sum to {sum(counts)}, count says {count}")
    if count == 0:
        return
    lo, hi = h["min"], h["max"]
    if lo is None or hi is None or lo > hi:
        return bad("non-empty histogram needs numeric min <= max")
    if not count * lo - REL_TOL <= h["sum"] <= count * hi + REL_TOL:
        bad(f"sum={h['sum']} inconsistent with count*[min,max]")


def check_metrics(payload: dict, path: str, out: list[str]) -> None:
    for i, h in enumerate(payload["metrics"]["histograms"]):
        _histogram(h, f"{path}.metrics.histograms[{i}]", out)

    spans, pids = payload["spans"], set(payload["pids"])
    ids = {s["id"] for s in spans}
    for i, s in enumerate(spans):
        spath = f"{path}.spans[{i}]"
        if pids and s["pid"] not in pids:
            out.append(f"{spath}: pid {s['pid']!r} not in $.pids")
        parent = s.get("parent")
        if parent is not None and parent not in ids:
            out.append(f"{spath}: parent {parent!r} does not resolve in "
                       f"the document")
        if s["name"] == "cell" and s["cell"] is None:
            out.append(f"{spath}: a cell span must carry its cell index")

    summary, spath = payload["summary"], f"{path}.summary"
    n_cells = sum(1 for s in spans if s["name"] == "cell")
    if summary["cells"] != n_cells:
        out.append(f"{spath}.cells: says {summary['cells']}, span "
                   f"recount is {n_cells}")
    stage_counts: dict[str, int] = {}
    for s in spans:
        if s["name"] != "cell":
            stage_counts[s["name"]] = stage_counts.get(s["name"], 0) + 1
    stages = summary["stages"]
    if set(stages) != set(stage_counts):
        out.append(f"{spath}.stages: stage names {sorted(stages)} != span "
                   f"recount {sorted(stage_counts)}")
    for name, st in stages.items():
        if st["count"] != stage_counts.get(name, 0):
            out.append(f"{spath}.stages.{name}: count {st['count']} != "
                       f"span recount {stage_counts.get(name, 0)}")
    span_pids = {str(s["pid"]) for s in spans}
    if set(summary["workers"]) != span_pids:
        out.append(f"{spath}.workers: worker pids "
                   f"{sorted(summary['workers'])} != span pids "
                   f"{sorted(span_pids)}")
    for kind, slot in summary["cache"].items():
        total = slot["hits"] + slot["misses"]
        want = slot["hits"] / total if total else 0.0
        if abs(slot["hit_rate"] - want) > REL_TOL:
            out.append(f"{spath}.cache.{kind}: hit_rate "
                       f"{slot['hit_rate']} != {want}")


def check_server(payload: dict, path: str, out: list[str]) -> None:
    def bad(key: str, msg: str) -> None:
        out.append(f"{path}.{key}: {msg}")

    status, degraded = payload["status"], payload["degraded"]
    result, fault = payload["result"], payload["fault"]
    if payload["retries"] != payload["attempts"] - 1:
        bad("retries", f"retries {payload['retries']!r} != attempts - 1 "
                       f"({payload['attempts'] - 1})")
    if status in ("ok", "degraded"):
        if fault is not None:
            bad("fault", f"a {status} response must not carry a fault")
        if result is None:
            bad("result", f"a {status} response must carry a result")
        if status == "ok" and degraded:
            bad("degraded", "an ok response must have an empty degraded "
                            "list")
        if status == "degraded" and not degraded:
            bad("degraded", "a degraded response must say how it degraded")
    else:
        if result is not None:
            bad("result", f"a {status} response must not carry a result")
        if status == "error" and fault is None:
            bad("fault", "an error response must carry a fault object")
        if status != "error" and not payload["reason"]:
            bad("reason", f"a {status} response must carry a reason")
    if result is not None and payload["endpoint"] == "restructure":
        _validate_as(result.get("experiment"), "repro-experiment/1",
                     f"{path}.result.experiment", out)
    elif result is not None:
        _validate_as(result, "repro-lint/1", f"{path}.result", out)


HOOKS = {
    "repro-experiment/1": check_experiment,
    "repro-profile/1": check_profile,
    "repro-validate/1": check_validation,
    "repro-faults/1": check_faults,
    "repro-lint/1": check_lint,
    "repro-metrics/1": check_metrics,
    "repro-server/1": check_server,
}


def _validate_as(payload, tag: str, path: str, out: list[str]) -> None:
    """Shape first; the tag's hook only when the shape is clean."""
    before = len(out)
    check_shape(payload, SCHEMAS[tag], SCHEMAS[tag], path, out)
    if len(out) == before:
        HOOKS[tag](payload, path, out)


def validate(payload) -> list[str]:
    """Return a list of violations (empty == valid)."""
    if not isinstance(payload, dict):
        return ["$: payload must be an object"]
    tag = payload.get("schema")
    if not (isinstance(tag, str) and tag in SCHEMAS):
        return [f"$.schema: expected one of {sorted(SCHEMAS)}, "
                f"got {tag!r}"]
    out: list[str] = []
    _validate_as(payload, tag, "$", out)
    return out


#: what a valid payload of each tag amounts to, for the OK line
_SUMMARY = {
    "repro-experiment/1": lambda p: f"{len(p['experiments'])} experiment(s)",
    "repro-profile/1": lambda p: f"{len(p['runs'])} profiled run(s)",
    "repro-validate/1": lambda p: (
        f"{p['summary']['configs_run']} validation run(s) over "
        f"{p['summary']['workloads']} workload(s)"),
    "repro-faults/1": lambda p: (
        f"{p['summary']['cells_run']} oracle cell(s) "
        f"({p['summary']['ok']} ok, {p['summary']['harness_faults']} "
        f"harness fault(s))"),
    "repro-lint/1": lambda p: (
        f"lint report over {len(p['files'])} file(s) "
        f"({p['error_count']} error(s), {p['warning_count']} warning(s))"),
    "repro-metrics/1": lambda p: (
        f"{len(p['spans'])} span(s) over {p['summary']['cells']} cell(s) "
        f"and {len(p['pids'])} process(es)"),
    "repro-server/1": lambda p: (
        f"{p['endpoint']} envelope with status {p['status']!r}"),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: validate_experiment_json.py PAYLOAD.json  "
              "('-' reads stdin)", file=sys.stderr)
        return 2
    try:
        raw = sys.stdin.read() if argv[1] == "-" \
            else Path(argv[1]).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {argv[1]}: {exc}", file=sys.stderr)
        return 2
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
    tag = payload["schema"]
    print(f"OK: {_SUMMARY[tag](payload)} conform to {tag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
