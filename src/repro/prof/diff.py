"""Benchmark/profile regression diffing.

Compares two performance payloads — ``repro-experiment/1`` documents
(``BENCH_*.json`` artifacts or ``python -m repro.experiments --json``
output) or ``repro-profile/1`` documents — workload by workload,
reports per-experiment cycle deltas, and flags regressions beyond a
threshold.  ``scripts/bench_diff.py`` and ``python -m repro.prof diff``
front this as the CI regression gate against the committed baselines in
``benchmarks/baselines/``.

A *regression* is a cycle-count increase (the restructured program got
slower); improvements are reported but never fail the gate.
"""

from __future__ import annotations

from dataclasses import dataclass

#: metrics compared per workload, and whether an increase is bad.
#: Anything not listed (the tables' "... (measured)" ratio columns) is a
#: higher-is-better measure: a *drop* is the regression.
METRIC_REGRESSES_UP = {
    "parallel_cycles": True,
    "serial_cycles": True,
    "total_cycles": True,
    "speedup": False,
}


@dataclass
class Delta:
    """One workload metric compared across two payloads."""

    key: str               # "experiment/workload" (+ "[role]" for profiles)
    metric: str
    old: float
    new: float

    @property
    def rel(self) -> float:
        """Signed relative change, (new - old) / old."""
        if self.old == 0:
            return 0.0 if self.new == 0 else float("inf")
        return (self.new - self.old) / self.old

    def regression(self, threshold: float) -> bool:
        up_is_bad = METRIC_REGRESSES_UP.get(self.metric, False)
        worse = self.rel if up_is_bad else -self.rel
        return worse > threshold

    def render(self, threshold: float) -> str:
        mark = "REGRESSION" if self.regression(threshold) else (
            "improved" if abs(self.rel) > threshold else "ok")
        return (f"{self.key:<44} {self.metric:<16} "
                f"{self.old:>16,.1f} {self.new:>16,.1f} "
                f"{100.0 * self.rel:>+8.2f}%  {mark}")


def extract_metrics(payload: dict) -> dict[str, dict[str, float]]:
    """Workload-keyed metric map from either supported schema."""
    schema = payload.get("schema", "")
    out: dict[str, dict[str, float]] = {}
    if schema == "repro-experiment/1":
        for exp, table in (payload.get("experiments") or {}).items():
            trace = (table.get("meta") or {}).get("trace") or {}
            for wl, entry in trace.items():
                metrics = {}
                for m in ("serial_cycles", "parallel_cycles", "speedup"):
                    v = entry.get(m)
                    if isinstance(v, (int, float)):
                        metrics[m] = float(v)
                if metrics:
                    out[f"{exp}/{wl}"] = metrics
            # tables without per-workload traces (the figure sweeps)
            # still expose their measured ratio columns row by row
            columns = table.get("columns") or []
            measured = [c for c in columns if "measured" in c]
            for i, row in enumerate(table.get("rows") or []):
                key_col = columns[0] if columns else None
                tag = row.get(key_col, i) if key_col else i
                metrics = {c: float(row[c]) for c in measured
                           if isinstance(row.get(c), (int, float))}
                if metrics:
                    out.setdefault(f"{exp}/{key_col}={tag}", {}).update(
                        metrics)
        return out
    if schema == "repro-profile/1":
        exp = payload.get("experiment", "?")
        for run in payload.get("runs") or []:
            key = f"{exp}/{run.get('workload', '?')}[{run.get('role', '?')}]"
            v = run.get("total_cycles")
            if isinstance(v, (int, float)):
                out[key] = {"total_cycles": float(v)}
        return out
    raise ValueError(f"unsupported payload schema {schema!r}")


@dataclass
class DiffResult:
    deltas: list[Delta]
    only_old: list[str]
    only_new: list[str]
    threshold: float

    def regressions(self) -> list[Delta]:
        return [d for d in self.deltas if d.regression(self.threshold)]

    @property
    def failed(self) -> bool:
        return bool(self.regressions())

    def render(self) -> str:
        header = (f"{'workload':<44} {'metric':<16} "
                  f"{'old':>16} {'new':>16} {'delta':>9}")
        lines = [header, "-" * len(header)]
        for d in sorted(self.deltas, key=lambda d: (d.key, d.metric)):
            lines.append(d.render(self.threshold))
        for k in self.only_old:
            lines.append(f"{k:<44} (missing from new payload)")
        for k in self.only_new:
            lines.append(f"{k:<44} (new workload, no baseline)")
        n_reg = len(self.regressions())
        lines.append("-" * len(header))
        lines.append(
            f"{len(self.deltas)} comparison(s), {n_reg} regression(s) "
            f"beyond {100.0 * self.threshold:.1f}%")
        return "\n".join(lines)


def diff_payloads(old: dict, new: dict, threshold: float = 0.02,
                  metrics: tuple[str, ...] | None = None) -> DiffResult:
    """Compare two payloads; ``metrics`` restricts which are diffed."""
    a, b = extract_metrics(old), extract_metrics(new)
    if "quick" in old and "quick" in new and old["quick"] != new["quick"]:
        raise ValueError(
            "refusing to diff payloads generated at different data sizes "
            f"(old quick={old.get('quick')!r}, new quick={new.get('quick')!r})")
    deltas = []
    for key in sorted(set(a) & set(b)):
        for m in sorted(set(a[key]) & set(b[key])):
            if metrics is not None and m not in metrics:
                continue
            deltas.append(Delta(key, m, a[key][m], b[key][m]))
    return DiffResult(
        deltas=deltas,
        only_old=sorted(set(a) - set(b)),
        only_new=sorted(set(b) - set(a)),
        threshold=threshold)
