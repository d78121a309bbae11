"""repro.obs — the forensic half of host observability.

Where :mod:`repro.trace`/:mod:`repro.prof` observe the *simulated*
machine and :mod:`repro.telemetry` measures one run of the *host*
pipeline, these library modules **explain** a run:

- :mod:`repro.obs.explain` — the cross-layer "why was this slow" join:
  host span time × simulated cycle categories × cache hit/miss ×
  worker queue delay, per sweep cell
  (``python -m repro.telemetry explain DIR``);
- :mod:`repro.obs.log` — structured JSONL logging with levels and
  telemetry-correlated ids, a true no-op while unconfigured;
- :mod:`repro.obs.flight` — the crash flight recorder: a bounded ring
  of recent log/span events dumped into fault reports.

Regressions over time are gated by the repository benchmark
(``BENCHMARK.json``, ``bench/README.md``), not from here.
"""

from repro.obs.log import configure as configure_logging
from repro.obs.log import configure_from_env as configure_logging_from_env
from repro.obs.log import enabled as logging_enabled
from repro.obs.log import get_logger
from repro.obs.log import shutdown as shutdown_logging

__all__ = [
    "configure_logging",
    "configure_logging_from_env",
    "get_logger",
    "logging_enabled",
    "shutdown_logging",
]
