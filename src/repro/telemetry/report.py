"""Human-readable rendering of a ``repro-metrics/1`` artifact.

``python -m repro.telemetry report DIR|metrics.json`` prints the
per-stage time breakdown, the top-N slowest sweep cells, per-artifact-
kind cache hit rates, and per-worker utilization — the operator's view
of where a sweep's wall-clock went.
"""

from __future__ import annotations


def _fmt_s(v: float) -> str:
    if v >= 1.0:
        return f"{v:8.3f}s"
    return f"{v * 1e3:7.2f}ms"


def _bar(frac: float, width: int = 24) -> str:
    n = max(0, min(width, round(frac * width)))
    return "#" * n + "." * (width - n)


def _nearest_rank(ordered: list[float], pct: int) -> float:
    """The exact order statistic: the smallest value with at least
    ``pct`` percent of the sample at or below it."""
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def render_report(payload: dict, top: int = 10) -> str:
    """Render the artifact as a text report."""
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

    # exact order statistics over the cell spans the artifact carries;
    # the bucketed repro_cell_seconds histogram can only answer with a
    # bucket edge on a sample this small
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
