#!/usr/bin/env python3
"""Benchmark regression gate — thin wrapper over ``repro.prof diff``.

Usage:
    python scripts/bench_diff.py OLD.json NEW.json [--threshold 0.02]

Compares two benchmark payloads (``BENCH_*.json`` artifacts from the
pytest-benchmark harness, ``python -m repro.experiments --json`` output,
or ``repro-profile/1`` documents) and exits nonzero when any workload's
cycle count regressed beyond the threshold.  CI runs this against the
committed baselines in ``benchmarks/baselines/``.
"""

import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))

from repro.prof.__main__ import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["diff"] + sys.argv[1:]))
