"""repro.telemetry — host-side observability for the whole pipeline.

Where :mod:`repro.trace` and :mod:`repro.prof` observe the *simulated*
Cedar machine (cycle ledgers, hardware counters, per-CE timelines),
this package observes the *host* pipeline that runs it: wall-clock
spans around parse → restructure → compile → execute → sweep, a
process-wide :class:`MetricsRegistry` of counters/gauges/latency
histograms (p50/p90/p95/p99), and per-worker shard files that the
parent of a ``--jobs N`` sweep merges into one coherent
``repro-metrics/1`` artifact keyed by sweep-cell index.

Enable with ``--telemetry DIR`` on any sweep harness (or the
``REPRO_TELEMETRY`` environment variable); off is the default and a
true no-op — instrumented code paths emit nothing and every sweep's
JSON payload stays byte-identical.  Render with
``python -m repro.telemetry report DIR``; ask why a cell was slow with
``python -m repro.telemetry explain DIR``; validate ``DIR/metrics.json``
with ``scripts/validate_experiment_json.py`` like every other artifact.
"""

from repro.telemetry.export import SCHEMA_TAG, finalize, merge_dir
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.telemetry.spans import (
    cell_span,
    configure,
    configure_from_env,
    enabled,
    flush,
    shutdown,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA_TAG",
    "cell_span",
    "configure",
    "configure_from_env",
    "enabled",
    "finalize",
    "flush",
    "get_registry",
    "merge_dir",
    "shutdown",
    "span",
]
