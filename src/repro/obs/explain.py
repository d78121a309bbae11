"""Cross-layer correlation: the "why was this sweep cell slow" join.

``python -m repro.telemetry explain DIR [--sweep PAYLOAD] [--cell N]`` joins,
per sweep cell, four layers that the other planes only see separately:

- **host time** — the cell's wall-clock span from the ``repro-metrics/1``
  artifact, plus its child stage spans (parse/restructure/estimate/...),
- **worker queue delay** — the submit→start gap the parallel executor
  stamps onto every cell span (a slow cell that spent its life waiting
  in the pool queue is a scheduling problem, not a compute one),
- **cache traffic** — the per-cell hit/miss delta of the artifact cache
  counters (a cold cell re-parses; a warm one shouldn't),
- **simulated cost** — when the sweep's JSON payload is given, the
  matching Cedar-side attribution: the :class:`~repro.trace.ledger.
  CycleLedger` group breakdown for experiments, degradation factors for
  fault-oracle cells, per-config statuses for validation cells, plus any
  harness fault reports.

Cells are matched to payload records by the label conventions the
harnesses already use (``experiment <name>``, ``validate <name>``,
``<workload> baseline``).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional

#: ledger groups in rendering order (mirrors trace.ledger.HIERARCHY)
_LEDGER_GROUPS = ("processor", "parallel_overhead", "memory", "paging",
                  "degradation")


def load_metrics(path: str | os.PathLike) -> dict:
    """Load a ``repro-metrics/1`` payload from a file or session dir."""
    p = Path(path)
    if p.is_dir():
        p = p / "metrics.json"
    if not p.exists():
        raise FileNotFoundError(
            f"{p}: no metrics.json — run a harness with --telemetry "
            f"first (and let it finalize)")
    payload = json.loads(p.read_text())
    if payload.get("schema") != "repro-metrics/1":
        raise ValueError(f"{p}: not a repro-metrics/1 payload "
                         f"(schema={payload.get('schema')!r})")
    return payload


# ---------------------------------------------------------------------------
# sweep-payload joins (label conventions → simulated-side records)


def _join_experiment(sweep: dict, name: str) -> Optional[dict]:
    table = (sweep.get("experiments") or {}).get(name)
    if not isinstance(table, dict):
        return None
    sim: dict = {"kind": "experiment", "name": name}
    trace = (table.get("meta") or {}).get("trace") or {}
    workloads: dict = {}
    groups_total: dict = {}
    cycles = 0.0
    for wname, entry in trace.items():
        if not isinstance(entry, dict):
            continue
        breakdown = entry.get("parallel_breakdown") or {}
        groups = {g: (breakdown.get("groups") or {}).get(g, {})
                  .get("total", 0.0) for g in _LEDGER_GROUPS}
        workloads[wname] = {
            "speedup": entry.get("speedup"),
            "parallel_cycles": entry.get("parallel_cycles"),
            "groups": groups,
        }
        cycles += entry.get("parallel_cycles") or 0.0
        for g, v in groups.items():
            groups_total[g] = groups_total.get(g, 0.0) + v
    if workloads:
        sim["workloads"] = workloads
        sim["parallel_cycles"] = cycles
        sim["groups"] = groups_total
    return sim


def _join_validate(sweep: dict, workload: str) -> Optional[dict]:
    for wd in sweep.get("workloads") or ():
        if isinstance(wd, dict) and wd.get("workload") == workload:
            configs = {c.get("config"): c.get("status")
                       for c in wd.get("configs") or ()}
            return {"kind": "validate", "workload": workload,
                    "configs": configs,
                    "ok": all(s == "ok" for s in configs.values())}
    return None


def _join_faults(sweep: dict, workload: str) -> Optional[dict]:
    runs = [r for r in sweep.get("runs") or ()
            if isinstance(r, dict) and r.get("workload") == workload]
    if not runs:
        return None
    return {"kind": "faults", "workload": workload,
            "runs": [{"scenario": r.get("scenario"),
                      "degradation": r.get("degradation"),
                      "bound": r.get("bound"),
                      "fault_cycles": r.get("fault_cycles"),
                      "ok": r.get("ok")} for r in runs]}


def _join_sim(sweep: Optional[dict], label: str) -> Optional[dict]:
    if not sweep or not label:
        return None
    tag = str(sweep.get("schema", ""))
    if label.startswith("experiment ") \
            and tag.startswith("repro-experiment/"):
        return _join_experiment(sweep, label[len("experiment "):])
    if label.startswith("validate ") and tag.startswith("repro-validate/"):
        return _join_validate(sweep, label[len("validate "):])
    if label.endswith(" baseline") and tag.startswith("repro-faults/"):
        return _join_faults(sweep, label[:-len(" baseline")])
    return None


def _cell_faults(sweep: Optional[dict], label: str) -> list[dict]:
    """Harness fault reports whose label matches this cell."""
    if not sweep:
        return []
    out = []
    for fd in sweep.get("faults") or ():
        if not isinstance(fd, dict):
            continue
        flabel = str(fd.get("label", ""))
        if flabel and (flabel == label or flabel in label
                       or label.startswith(flabel)):
            out.append({"kind": fd.get("kind"),
                        "error_type": fd.get("error_type"),
                        "message": fd.get("message")})
    return out


# ---------------------------------------------------------------------------
# the join itself


def correlate(metrics_payload: dict,
              sweep: Optional[dict] = None) -> list[dict]:
    """One attribution row per sweep cell, ordered by cell index."""
    spans = metrics_payload.get("spans") or []
    rows: list[dict] = []
    by_cell: dict[int, dict] = {}
    for s in spans:
        if s.get("name") != "cell" or s.get("cell") is None:
            continue
        label = (s.get("attrs") or {}).get("label", "")
        row = {
            "cell": s["cell"],
            "label": label,
            "pid": s.get("pid"),
            "host_s": s.get("duration_s", 0.0),
            "queue_delay_s": s.get("queue_delay_s"),
            "cache": s.get("cache") or {},
            "error": s.get("error"),
            "stages": {},
            "sim": _join_sim(sweep, label),
            "faults": _cell_faults(sweep, label),
        }
        by_cell[s["cell"]] = row
        rows.append(row)
    # child stage spans: host time inside the cell, by stage name
    for s in spans:
        cell = s.get("cell")
        if s.get("name") == "cell" or cell is None:
            continue
        row = by_cell.get(cell)
        if row is None:
            continue
        st = row["stages"].setdefault(
            s["name"], {"count": 0, "total_s": 0.0})
        st["count"] += 1
        st["total_s"] += s.get("duration_s", 0.0)
    rows.sort(key=lambda r: r["cell"])
    return rows


def slow_reason(row: dict) -> str:
    """The one-phrase attribution verdict for a cell."""
    if row.get("error"):
        return f"crashed: {row['error']}"
    notes = []
    host = row.get("host_s") or 0.0
    queue = row.get("queue_delay_s")
    if queue is not None and host > 0 and queue > max(0.05, 0.5 * host):
        notes.append(f"queued {queue:.2f}s before a worker picked it up")
    cache = row.get("cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    if misses > 0 and misses >= hits:
        notes.append(f"cold cache ({_fmt_n(misses)} miss(es))")
    stages = row.get("stages") or {}
    if stages and host > 0:
        top, st = max(stages.items(), key=lambda kv: kv[1]["total_s"])
        if st["total_s"] > 0.5 * host:
            notes.append(f"dominated by {top} "
                         f"({st['total_s'] / host * 100:.0f}% of host time)")
    sim = row.get("sim")
    if sim and sim.get("kind") == "experiment" and sim.get("groups"):
        groups = sim["groups"]
        total = sum(groups.values())
        if total > 0:
            g, v = max(groups.items(), key=lambda kv: kv[1])
            notes.append(f"simulated cycles mostly {g} "
                         f"({v / total * 100:.0f}%)")
    if sim and sim.get("kind") == "faults":
        worst = max(sim["runs"],
                    key=lambda r: r.get("degradation") or 0.0)
        if (worst.get("degradation") or 0) > 1.5:
            notes.append(f"worst fault degradation "
                         f"x{worst['degradation']:.2f} "
                         f"({worst['scenario']})")
    if row.get("faults"):
        notes.append(f"{len(row['faults'])} harness fault(s)")
    return "; ".join(notes) if notes else "nothing anomalous"


# ---------------------------------------------------------------------------
# rendering


def _fmt_s(v) -> str:
    if v is None:
        return "-"
    return f"{v:.3f}" if v >= 0.001 or v == 0 else f"{v:.1e}"


def _fmt_n(v) -> str:
    """Counter values merge as floats; render whole counts as ints."""
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def render(rows: list[dict], cell: Optional[int] = None) -> str:
    """The attribution table (or one cell's detail view)."""
    if cell is not None:
        rows = [r for r in rows if r["cell"] == cell]
        if not rows:
            return f"no cell {cell} in this telemetry session"
        return _render_detail(rows[0])
    if not rows:
        return ("no sweep cells in this telemetry session "
                "(was the harness run with --telemetry?)")
    lines = ["per-cell attribution "
             "(host time x queue delay x cache x simulated cost)"]
    label_w = min(28, max(len(r["label"]) for r in rows) or 5)
    lines.append(f"  {'cell':>4} {'label':<{label_w}} {'host_s':>8} "
                 f"{'queue_s':>8} {'cache':>7}  attribution")
    for r in rows:
        cache = r.get("cache") or {}
        ch = (f"{_fmt_n(cache.get('hits', 0))}h/"
              f"{_fmt_n(cache.get('misses', 0))}m")
        label = r["label"][:label_w]
        lines.append(f"  {r['cell']:>4} {label:<{label_w}} "
                     f"{_fmt_s(r.get('host_s')):>8} "
                     f"{_fmt_s(r.get('queue_delay_s')):>8} "
                     f"{ch:>7}  {slow_reason(r)}")
    return "\n".join(lines)


def _render_detail(row: dict) -> str:
    lines = [f"cell {row['cell']}: {row['label'] or '(unlabelled)'}"
             f"  [pid {row.get('pid')}]"]
    lines.append(f"  host time     {_fmt_s(row.get('host_s'))}s")
    lines.append(f"  queue delay   {_fmt_s(row.get('queue_delay_s'))}s"
                 f"  (submit -> worker start)")
    cache = row.get("cache") or {}
    lines.append(f"  cache         {_fmt_n(cache.get('hits', 0))} "
                 f"hit(s), {_fmt_n(cache.get('misses', 0))} miss(es)")
    if row.get("error"):
        lines.append(f"  error         {row['error']}")
    stages = row.get("stages") or {}
    if stages:
        lines.append("  host stages:")
        host = row.get("host_s") or 0.0
        for name, st in sorted(stages.items(),
                               key=lambda kv: -kv[1]["total_s"]):
            pct = f" ({st['total_s'] / host * 100:5.1f}%)" if host else ""
            lines.append(f"    {name:<22} {st['total_s']:>9.4f}s "
                         f"x{st['count']}{pct}")
    sim = row.get("sim")
    if sim is None:
        lines.append("  simulated side: (no --sweep payload joined)")
    elif sim["kind"] == "experiment":
        lines.append(f"  simulated side: experiment {sim['name']}")
        groups = sim.get("groups") or {}
        total = sum(groups.values())
        if total > 0:
            for g in _LEDGER_GROUPS:
                v = groups.get(g, 0.0)
                if v:
                    lines.append(f"    {g:<22} {v:>14.0f} cycles "
                                 f"({v / total * 100:5.1f}%)")
        for wname, w in (sim.get("workloads") or {}).items():
            sp = w.get("speedup")
            lines.append(f"    {wname}: speedup "
                         f"{sp:.2f}" if sp is not None
                         else f"    {wname}")
    elif sim["kind"] == "validate":
        ok = "ok" if sim.get("ok") else "NOT OK"
        lines.append(f"  simulated side: validate {sim['workload']} "
                     f"-> {ok}")
        for cname, status in (sim.get("configs") or {}).items():
            lines.append(f"    {cname:<22} {status}")
    elif sim["kind"] == "faults":
        lines.append(f"  simulated side: fault oracle "
                     f"{sim['workload']}")
        for r in sim["runs"]:
            deg = r.get("degradation")
            lines.append(
                f"    {r['scenario']:<22} "
                f"x{deg:.3f}" + (f" (bound x{r['bound']:.2f})"
                                 if r.get("bound") else "")
                + ("" if r.get("ok") else "  NOT OK"))
    for fd in row.get("faults") or ():
        lines.append(f"  harness fault: ({fd.get('kind')}) "
                     f"{fd.get('error_type')}: {fd.get('message')}")
    lines.append(f"  verdict: {slow_reason(row)}")
    return "\n".join(lines)
