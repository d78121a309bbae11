"""Smoke test of the benchmark harness itself.

Run with ``python -m pytest bench/tests`` — deliberately outside the
tier-1 ``testpaths``: it spawns the benchmark (and a server) and takes
about two minutes.  ``--smoke`` is one pass and 60 requests; the numbers
it prints are not worth keeping, only their names, units and shape are
checked here.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(workload: str, trace: int) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload",
         workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=str(ROOT))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_spec_names_are_well_formed_and_unique():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_end_to_end_metric(workload):
    result, stdout = run_bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in declared.items():      # printed by name with its unit
        assert re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}\b",
                         stdout, re.M), name
    assert "# inputs sha256 " in stdout


@pytest.mark.parametrize("workload", ["faults-sweep", "serve-mixed"])
def test_trace_emits_every_layer_metric_and_resolvable_spans(workload):
    result, _ = run_bench(workload, trace=1)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    trace = json.loads((ROOT / "bench" / "out" / "trace.json").read_text())
    assert trace["workload"] == workload
    spans = trace["spans"]
    ids = {s["id"] for s in spans}
    assert spans and len(ids) == len(spans)
    for s in spans:
        assert set(s) == {"id", "name", "start", "end", "parent", "op"}
        assert s["parent"] is None or s["parent"] in ids
        assert s["end"] >= s["start"]


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only the benchmark there is nothing to
    measure: non-zero exit and no result line."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
