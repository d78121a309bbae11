"""The one reader of a ``repro-metrics/1`` artifact.

``python -m repro.telemetry report DIR|metrics.json [--sweep PAYLOAD]
[--cell N]`` answers "where did this sweep's wall-clock go, and why was
this cell slow, or wrong?" from one session:

- the **session summary** — per-stage time breakdown, exact cell-latency
  order statistics, the top-N slowest sweep cells, per-artifact-kind
  cache hit rates, per-worker utilization;
- the **per-cell attribution** — a join, per sweep cell, of four layers
  the other planes only see separately:

  - *host time* — the cell's wall-clock span plus its child stage spans
    (parse/restructure/estimate/...),
  - *worker queue delay* — the submit→start gap the parallel executor
    stamps onto every cell span (a slow cell that spent its life waiting
    in the pool queue is a scheduling problem, not a compute one),
  - *cache traffic* — the per-cell hit/miss delta of the artifact cache
    counters (a cold cell re-parses; a warm one shouldn't),
  - *simulated cost* — when the sweep's JSON payload is given, the
    matching Cedar-side attribution: the :class:`~repro.trace.ledger.
    CycleLedger` group breakdown for experiments, degradation factors
    for fault-oracle cells, per-config statuses for validation cells,
    plus the cell's harness fault reports.

Cells are matched to payload records by the label conventions the
harnesses already use (``experiment <name>``, ``validate <name>``,
``<workload> baseline``).
"""

from __future__ import annotations

from typing import Optional

#: ledger groups in rendering order (mirrors trace.ledger.HIERARCHY)
_LEDGER_GROUPS = ("processor", "parallel_overhead", "memory", "paging",
                  "degradation")


def _fmt_s(v) -> str:
    if v is None:
        return "-"
    if v >= 1.0:
        return f"{v:8.3f}s"
    return f"{v * 1e3:7.2f}ms"


def _fmt_n(v) -> str:
    """Counter values merge as floats; render whole counts as ints."""
    if isinstance(v, float) and v.is_integer():
        return str(int(v))
    return str(v)


def _bar(frac: float, width: int = 24) -> str:
    n = max(0, min(width, round(frac * width)))
    return "#" * n + "." * (width - n)


def _nearest_rank(ordered: list[float], pct: int) -> float:
    """The exact order statistic: the smallest value with at least
    ``pct`` percent of the sample at or below it."""
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


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


def _fault_row(sweep: Optional[dict], label: str) -> Optional[str]:
    """The workload of fault-sweep row cell ``label``, else ``None``."""
    if sweep and label.endswith(" baseline") \
            and str(sweep.get("schema", "")).startswith("repro-faults/"):
        return label[:-len(" baseline")]
    return None


def _join_sim(sweep: Optional[dict], label: str) -> Optional[dict]:
    if not sweep or not label:
        return None
    tag = str(sweep.get("schema", ""))
    if label.startswith("experiment ") \
            and tag.startswith("repro-experiment/"):
        return _join_experiment(sweep, label[len("experiment "):])
    if label.startswith("validate ") and tag.startswith("repro-validate/"):
        return _join_validate(sweep, label[len("validate "):])
    workload = _fault_row(sweep, label)
    if workload is not None:
        return _join_faults(sweep, workload)
    return None


def _cell_faults(sweep: Optional[dict], label: str) -> list[dict]:
    """Harness fault reports of this cell: those filed under its exact
    label, plus — a fault-sweep row runs every scenario of its workload
    inside the one ``<workload> baseline`` cell — the row's scenario
    faults, which the sweep labels ``<workload>:<scenario>``."""
    if not sweep or not label:
        return []
    workload = _fault_row(sweep, label)
    out = []
    for fd in sweep.get("faults") or ():
        if not isinstance(fd, dict):
            continue
        flabel = str(fd.get("label", ""))
        if flabel == label or (workload is not None
                               and flabel.startswith(f"{workload}:")):
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


def render_summary(payload: dict, top: int = 10) -> str:
    """The session summary: where the sweep's wall-clock went."""
    lines: list[str] = []
    s = payload.get("summary", {})
    harness = payload.get("harness") or "?"
    lines.append(f"telemetry report — trace {payload.get('trace_id', '?')}"
                 f" ({harness})")
    lines.append(f"  {s.get('cells', 0)} sweep cell(s) across "
                 f"{len(payload.get('pids', []))} process(es), "
                 f"{len(payload.get('spans', []))} span(s)"
                 + (f", {s['cell_errors']} cell error(s)"
                    if s.get("cell_errors") else ""))

    # exact order statistics over the cell spans the artifact carries
    cell_s = sorted(sp.get("duration_s", 0.0)
                    for sp in payload.get("spans", ())
                    if sp.get("name") == "cell")
    if cell_s:
        lines.append(
            "  cell latency: "
            + "  ".join(f"p{pct} "
                        f"{_fmt_s(_nearest_rank(cell_s, pct)).strip()}"
                        for pct in (50, 90, 95, 99))
            + f"  max {_fmt_s(cell_s[-1]).strip()}")

    stages = s.get("stages", {})
    if stages:
        lines.append("")
        lines.append("per-stage time breakdown")
        total = sum(st.get("total_s", 0.0) for st in stages.values()) \
            or 1.0
        width = max(len(n) for n in stages)
        for name, st in sorted(stages.items(),
                               key=lambda kv: -kv[1].get("total_s", 0.0)):
            frac = st.get("total_s", 0.0) / total
            lines.append(
                f"  {name:<{width}}  {_fmt_s(st.get('total_s', 0.0))}"
                f"  {frac * 100:5.1f}%  {_bar(frac)}"
                f"  ({st.get('count', 0)}x, max "
                f"{_fmt_s(st.get('max_s', 0.0)).strip()})")

    slowest = s.get("slowest_cells", [])[:top]
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest cell(s)")
        for c in slowest:
            err = f"  [{c['error']}]" if c.get("error") else ""
            lines.append(
                f"  #{c.get('cell', '?'):>3}  "
                f"{_fmt_s(c.get('duration_s', 0.0))}  "
                f"pid {c.get('pid', '?')}  {c.get('label', '')}{err}")

    cache = s.get("cache", {})
    if cache:
        lines.append("")
        lines.append("compilation cache")
        width = max(len(k) for k in cache)
        for kind, slot in sorted(cache.items()):
            total = slot["hits"] + slot["misses"]
            lines.append(
                f"  {kind:<{width}}  {slot['hit_rate'] * 100:5.1f}% hit "
                f"({slot['hits']}/{total})")

    workers = s.get("workers", {})
    if workers:
        lines.append("")
        lines.append("worker utilization")
        for pid, w in sorted(workers.items(),
                             key=lambda kv: -kv[1].get("busy_s", 0.0)):
            lines.append(
                f"  pid {pid:<8}  {w.get('cells', 0):>3} cell(s)  "
                f"busy {_fmt_s(w.get('busy_s', 0.0))}  "
                f"util {w.get('utilization', 0.0) * 100:5.1f}%  "
                f"{_bar(w.get('utilization', 0.0))}")
    return "\n".join(lines)


def render_cells(rows: list[dict]) -> str:
    """The per-cell attribution table."""
    if not rows:
        return ("no sweep cells in this telemetry session "
                "(was the harness run with --telemetry?)")
    lines = ["per-cell attribution "
             "(host time x queue delay x cache x simulated cost)"]
    label_w = min(28, max(len(r["label"]) for r in rows) or 5)
    lines.append(f"  {'cell':>4} {'label':<{label_w}} {'host':>9} "
                 f"{'queue':>9} {'cache':>7}  attribution")
    for r in rows:
        cache = r.get("cache") or {}
        ch = (f"{_fmt_n(cache.get('hits', 0))}h/"
              f"{_fmt_n(cache.get('misses', 0))}m")
        label = r["label"][:label_w]
        lines.append(f"  {r['cell']:>4} {label:<{label_w}} "
                     f"{_fmt_s(r.get('host_s')):>9} "
                     f"{_fmt_s(r.get('queue_delay_s')):>9} "
                     f"{ch:>7}  {slow_reason(r)}")
    return "\n".join(lines)


def render_cell(row: dict) -> str:
    """One cell's detail view."""
    lines = [f"cell {row['cell']}: {row['label'] or '(unlabelled)'}"
             f"  [pid {row.get('pid')}]"]
    lines.append(f"  host time     {_fmt_s(row.get('host_s')).strip()}")
    lines.append(f"  queue delay   "
                 f"{_fmt_s(row.get('queue_delay_s')).strip()}"
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
            lines.append(f"    {name:<22} {_fmt_s(st['total_s'])} "
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


def render_report(payload: dict, sweep: Optional[dict] = None,
                  cell: Optional[int] = None, top: int = 10) -> str:
    """The whole report: session summary, then the per-cell attribution
    table — or, with ``cell``, that one cell's detail view."""
    rows = correlate(payload, sweep)
    if cell is None:
        return render_summary(payload, top) + "\n\n" + render_cells(rows)
    for row in rows:
        if row["cell"] == cell:
            return render_cell(row)
    return f"no cell {cell} in this telemetry session"
