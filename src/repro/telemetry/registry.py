"""Process-wide metrics: counters, gauges, fixed-bucket histograms.

The registry is the single accounting surface for the *host* pipeline —
cache traffic, server request counts and latencies.  It is deliberately
tiny and dependency-free: every metric is a plain Python object with an
``inc``/``set``/``observe`` method cheap enough to call on hot paths,
and the registry renders to three formats:

- :meth:`MetricsRegistry.snapshot` — a JSON-shaped dict (the building
  block of the ``repro-metrics/1`` artifact and of per-worker shards);
- :meth:`MetricsRegistry.merge_snapshot` — the inverse: fold a worker
  shard's snapshot back into a registry, so the parent of a ``--jobs N``
  sweep can combine per-process shards into one coherent document;
- :meth:`MetricsRegistry.to_prometheus` — the Prometheus text
  exposition format, for scraping or eyeballing.

Histograms use *fixed* bucket boundaries (upper bounds, implicit +inf
tail) so shards merge by summing counts.  They carry no quantile
estimates: a reader that wants a percentile computes the exact order
statistic from the spans (``telemetry report``) or from the cumulative
buckets (a Prometheus scraper).
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from typing import Callable, Iterable, Optional, Sequence

#: default boundaries for wall-clock latencies, in seconds: exponential
#: from 100 µs to ~100 s (sweep cells span five orders of magnitude)
LATENCY_BUCKETS_S = tuple(
    round(base * 10.0 ** exp, 10)
    for exp in range(-4, 3)
    for base in (1.0, 2.5, 5.0))

_LabelKey = tuple  # ((key, value), ...) sorted — hashable label identity

#: ``# HELP`` text for the pipeline's well-known metrics, keyed by the
#: exposition name; unknown metrics render without a HELP line
HELP_TEXT = {
    "repro_cache_requests_total":
        "Artifact-cache requests by kind and result (hit/miss)",
    "repro_cache_disk_reads_total":
        "Artifact-cache disk store reads by kind",
    "repro_cache_disk_writes_total":
        "Artifact-cache disk store writes by kind",
    "repro_cache_disk_bytes_read_total":
        "Bytes read from the artifact-cache disk store by kind",
    "repro_cache_disk_bytes_written_total":
        "Bytes written to the artifact-cache disk store by kind",
    "repro_cache_entries":
        "Entries in the in-memory artifact cache",
}

# Prometheus text-format identifiers: metric names allow [a-zA-Z0-9_:],
# label names only [a-zA-Z0-9_]; neither may start with a digit.
_METRIC_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_NAME_BAD = re.compile(r"[^a-zA-Z0-9_]")


def _prom_metric_name(name: str) -> str:
    out = _METRIC_NAME_BAD.sub("_", str(name))
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _prom_label_name(name: str) -> str:
    out = _LABEL_NAME_BAD.sub("_", str(name))
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _prom_escape_label(v) -> str:
    """Label values escape backslash, double-quote, and newline."""
    return str(v).replace("\\", r"\\").replace('"', r'\"') \
        .replace("\n", r"\n")


def _prom_escape_help(v: str) -> str:
    """HELP text escapes backslash and newline (quotes stay literal)."""
    return str(v).replace("\\", r"\\").replace("\n", r"\n")


def _prom_float(v: float) -> str:
    """Upper bucket bounds and sample values in Go-parsable form."""
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    return repr(float(v))


def _label_key(labels: dict) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n

    def _reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (set, not accumulated)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = float(v)

    def _reset(self) -> None:
        self.value = 0.0


class Histogram:
    """Fixed-bucket histogram.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything above the last edge, so
    ``len(counts) == len(bounds) + 1`` and two histograms with the same
    bounds merge by elementwise count addition.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, labels: dict,
                 bounds: Sequence[float] = LATENCY_BUCKETS_S):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be strictly increasing")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, v: float) -> None:
        v = float(v)
        self.counts[bisect_left(self.bounds, v)] += 1   # first bound >= v
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds "
                f"differ")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)


class MetricsRegistry:
    """Get-or-create store of named, labelled metrics.

    Metric identity is ``(type, name, sorted labels)``; repeated calls
    return the same object, so hot paths can hold a metric reference and
    skip the lookup.  All mutating entry points take the registry lock —
    metrics may be touched from watchdog threads.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, object] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", Gauge, name, labels)

    def histogram(self, name: str,
                  bounds: Sequence[float] | None = None,
                  **labels) -> Histogram:
        return self._get("histogram", Histogram, name, labels,
                         bounds if bounds is not None
                         else LATENCY_BUCKETS_S)

    def _get(self, kind: str, cls, name: str, labels: dict, *args):
        key = (kind, name, _label_key(labels))
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = cls(name, dict(labels), *args)
                self._metrics[key] = m
            return m

    def add_collector(self,
                      fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register a hook run before every snapshot (gauge refresh)."""
        with self._lock:
            self._collectors.append(fn)

    # -- lifecycle -----------------------------------------------------

    def reset(self) -> None:
        """Zero every metric *in place* (references stay valid).

        Used after ``fork()`` so worker shards count only worker-side
        activity, and by ``telemetry.configure`` so one process can run
        several instrumented sweeps without cross-contamination.
        """
        with self._lock:
            for m in self._metrics.values():
                m._reset()

    # -- export --------------------------------------------------------

    def _sorted(self, kind: str) -> Iterable:
        return (self._metrics[k] for k in sorted(
            (k for k in self._metrics if k[0] == kind),
            key=lambda k: (k[1], k[2])))

    def snapshot(self) -> dict:
        """JSON-shaped dump of every metric (deterministic order)."""
        for fn in list(self._collectors):
            fn(self)
        with self._lock:
            out: dict = {"counters": [], "gauges": [], "histograms": []}
            for c in self._sorted("counter"):
                out["counters"].append({
                    "name": c.name, "labels": dict(c.labels),
                    "value": c.value})
            for g in self._sorted("gauge"):
                out["gauges"].append({
                    "name": g.name, "labels": dict(g.labels),
                    "value": g.value})
            for h in self._sorted("histogram"):
                out["histograms"].append({
                    "name": h.name, "labels": dict(h.labels),
                    "bounds": list(h.bounds), "counts": list(h.counts),
                    "count": h.count, "sum": h.sum,
                    "min": h.min if h.count else None,
                    "max": h.max if h.count else None,
                })
            return out

    def merge_snapshot(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` dict (e.g. a worker shard) in.

        Counters and histogram bucket counts add; gauges keep the
        maximum (per-process point-in-time values have no meaningful
        sum — the max is the peak across the fleet).
        """
        for c in snap.get("counters", ()):
            self.counter(c["name"], **c["labels"]).inc(c["value"])
        for g in snap.get("gauges", ()):
            gauge = self.gauge(g["name"], **g["labels"])
            gauge.set(max(gauge.value, g["value"]))
        for h in snap.get("histograms", ()):
            if h["count"] == 0:
                continue
            mine = self.histogram(h["name"], bounds=h["bounds"],
                                  **h["labels"])
            other = Histogram(h["name"], h["labels"], h["bounds"])
            other.counts = list(h["counts"])
            other.count = h["count"]
            other.sum = h["sum"]
            other.min = h["min"] if h["min"] is not None else math.inf
            other.max = h["max"] if h["max"] is not None else -math.inf
            mine._merge(other)

    def to_prometheus(self) -> str:
        """Render in the Prometheus text exposition format.

        Spec conformance (audited against the text-format reference):
        metric and label names are sanitized to the allowed character
        classes, label values escape ``\\``/``"``/newline, HELP text
        escapes ``\\``/newline, histogram buckets are cumulative and
        always end in the mandatory ``+Inf`` bucket, and each metric
        family gets exactly one HELP/TYPE header.
        """
        def fmt_labels(labels: dict, extra: dict | None = None) -> str:
            pairs = {_prom_label_name(k): v for k, v in labels.items()}
            if extra:
                pairs.update(extra)
            if not pairs:
                return ""
            inner = ",".join(
                f'{k}="{_prom_escape_label(v)}"'
                for k, v in sorted(pairs.items()))
            return "{" + inner + "}"

        lines: list[str] = []
        seen_type: set[str] = set()

        def header(name: str, ptype: str) -> None:
            if name in seen_type:
                return
            seen_type.add(name)
            help_text = HELP_TEXT.get(name)
            if help_text:
                lines.append(
                    f"# HELP {name} {_prom_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {ptype}")

        snap = self.snapshot()
        for kind, ptype in (("counters", "counter"), ("gauges", "gauge")):
            for m in snap[kind]:
                name = _prom_metric_name(m["name"])
                header(name, ptype)
                lines.append(
                    f"{name}{fmt_labels(m['labels'])} {m['value']}")
        for h in snap["histograms"]:
            name = _prom_metric_name(h["name"])
            header(name, "histogram")
            cum = 0
            for bound, n in zip(h["bounds"], h["counts"]):
                cum += n
                lines.append(
                    f"{name}_bucket"
                    f"{fmt_labels(h['labels'], {'le': _prom_float(bound)})}"
                    f" {cum}")
            lines.append(
                f"{name}_bucket"
                f"{fmt_labels(h['labels'], {'le': '+Inf'})} {h['count']}")
            lines.append(
                f"{name}_sum{fmt_labels(h['labels'])} {h['sum']}")
            lines.append(
                f"{name}_count{fmt_labels(h['labels'])} {h['count']}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the process-wide registry

_GLOBAL: Optional[MetricsRegistry] = None
_GLOBAL_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide registry (created on first use).

    Forked ``--jobs`` workers inherit the object; the telemetry layer
    zeroes it after fork so each worker shard counts only its own work.
    """
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = MetricsRegistry()
    return _GLOBAL
