"""repro.telemetry — host-side observability for the whole pipeline.

Where :mod:`repro.trace` observes the *simulated* Cedar machine (cycle
ledgers, hardware counters, per-CE timelines),
this package observes the *host* pipeline that runs it:

- :mod:`repro.telemetry.spans` — wall-clock spans around parse →
  restructure → compile → execute → sweep, written as per-worker shard
  files keyed by sweep-cell index;
- :mod:`repro.telemetry.registry` — the process-wide
  :class:`MetricsRegistry` of counters/gauges/fixed-bucket histograms
  (also what the server's ``/metrics`` renders);
- :mod:`repro.telemetry.log` — structured JSONL logging correlated with
  the spans, and the crash flight recorder;
- :mod:`repro.telemetry.export` — the parent of a ``--jobs N`` sweep
  merges the shards into one ``repro-metrics/1`` artifact;
- :mod:`repro.telemetry.report` — the one reader of that artifact.

Enable with ``--telemetry DIR`` (and ``--log-level LEVEL``) on any
sweep harness; off is the default and a true no-op — instrumented code
paths emit nothing and every sweep's JSON payload stays byte-identical.
Read a session with ``python -m repro.telemetry report DIR [--sweep
PAYLOAD] [--cell N]``; validate ``DIR/metrics.json`` with
``scripts/validate_experiment_json.py`` like every other artifact.

Importing the package loads only what instrumented code needs on its
hot path (spans, registry, log); the exporter and the reader are
imported by the CLIs that finalize or render a session.
"""

from repro.telemetry.log import get_logger
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
    "cell_span",
    "configure",
    "enabled",
    "flush",
    "get_logger",
    "get_registry",
    "shutdown",
    "span",
]
