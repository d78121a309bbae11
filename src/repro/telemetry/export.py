"""Shard merge and the ``repro-metrics/1`` artifact.

A telemetry session directory accumulates per-process shards
(``spans-<pid>.jsonl``, ``metrics-<pid>.json``) plus the parent's
``meta.json``.  :func:`merge_dir` folds them into the session's one
output, ``metrics.json`` — the ``repro-metrics/1`` artifact: merged
metrics (counters, gauges, histograms), every span sorted by (cell,
start time, pid) into one coherent trace across all workers, and a
computed summary (per-stage time breakdown, top-N slowest cells,
per-artifact-kind cache hit rates, per-worker utilization).

Shard files are removed after a successful merge, leaving a clean
artifact directory; :func:`load_session` is how a reader opens one,
finalized or not.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Optional

from repro.telemetry import spans as spanmod
from repro.telemetry.log import get_logger
from repro.telemetry.registry import MetricsRegistry

SCHEMA_TAG = "repro-metrics/1"

_LOG = get_logger("telemetry.export")

#: how many slowest cells the summary (and report) carries
TOP_CELLS = 20


def _shard_warn(msg: str) -> None:
    """A damaged shard degrades the merge, never kills it — but the
    degradation must be visible (stderr + the structured log)."""
    print(f"[telemetry] warning: {msg}", file=sys.stderr)
    _LOG.warning("shard_damaged", detail=msg)


def _read_shards(out_dir: Path) -> tuple[list[dict], MetricsRegistry,
                                         list[int], list[Path]]:
    """Fold every per-process shard in ``out_dir``.

    Tolerant by design: a worker killed mid-write leaves a missing,
    unreadable, or truncated shard — each is warned about and skipped
    (or read up to the torn tail), and the rest of the session merges
    normally.
    """
    spans: list[dict] = []
    registry = MetricsRegistry()
    pids: set[int] = set()
    shard_files: list[Path] = []
    for path in sorted(out_dir.glob("spans-*.jsonl")):
        try:
            text = path.read_text()
        except OSError as exc:
            _shard_warn(f"span shard {path.name} unreadable "
                        f"({exc}); merging without it")
            continue
        shard_files.append(path)
        torn = 0
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw:
                continue
            try:
                rec = json.loads(raw)
            except json.JSONDecodeError:
                torn += 1   # torn tail from a killed worker
                continue
            spans.append(rec)
            pids.add(rec.get("pid", -1))
        if torn:
            _shard_warn(f"span shard {path.name} truncated: dropped "
                        f"{torn} torn line(s), kept the rest")
    for path in sorted(out_dir.glob("metrics-*.json")):
        try:
            shard = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            shard_files.append(path)    # still cleaned up after merge
            _shard_warn(f"metrics shard {path.name} damaged "
                        f"({exc}); merging without it")
            continue
        shard_files.append(path)
        registry.merge_snapshot(shard.get("metrics", {}))
        pids.add(shard.get("pid", -1))
    pids.discard(-1)
    return spans, registry, sorted(pids), shard_files


def _span_sort_key(rec: dict):
    cell = rec.get("cell")
    return (cell if cell is not None else -1,
            rec.get("t0", 0.0), rec.get("pid", 0), rec.get("id", ""))


def _summarize(spans: list[dict], metrics: dict) -> dict:
    cells = [s for s in spans if s.get("name") == "cell"]
    stages: dict[str, dict] = {}
    for s in spans:
        if s.get("name") == "cell":
            continue
        st = stages.setdefault(s["name"], {"count": 0, "total_s": 0.0,
                                           "max_s": 0.0})
        st["count"] += 1
        st["total_s"] += s.get("duration_s", 0.0)
        st["max_s"] = max(st["max_s"], s.get("duration_s", 0.0))

    slowest = sorted(cells, key=lambda s: -s.get("duration_s", 0.0))
    slowest_cells = [{
        "cell": s.get("cell"),
        "label": (s.get("attrs") or {}).get("label", ""),
        "pid": s.get("pid"),
        "duration_s": s.get("duration_s", 0.0),
        "error": s.get("error"),
    } for s in slowest[:TOP_CELLS]]

    workers: dict[str, dict] = {}
    for s in spans:
        w = workers.setdefault(str(s.get("pid")), {
            "spans": 0, "cells": 0, "busy_s": 0.0,
            "first_t0": s.get("t0", 0.0), "last_end": s.get("t0", 0.0)})
        w["spans"] += 1
        end = s.get("t0", 0.0) + s.get("duration_s", 0.0)
        w["first_t0"] = min(w["first_t0"], s.get("t0", 0.0))
        w["last_end"] = max(w["last_end"], end)
        if s.get("name") == "cell":
            w["cells"] += 1
            w["busy_s"] += s.get("duration_s", 0.0)
    for w in workers.values():
        window = w["last_end"] - w["first_t0"]
        w["utilization"] = (w["busy_s"] / window) if window > 0 else 0.0

    cache: dict[str, dict] = {}
    for c in metrics.get("counters", ()):
        if c["name"] != "repro_cache_requests_total":
            continue
        kind = c["labels"].get("kind", "?")
        slot = cache.setdefault(kind, {"hits": 0, "misses": 0})
        if c["labels"].get("result") == "hit":
            slot["hits"] += c["value"]
        else:
            slot["misses"] += c["value"]
    # the cache registers counters for every artifact kind up front;
    # kinds the run never touched (e.g. jit-source under the tree
    # engine) would report a meaningless 0/0 slot — drop them.
    cache = {kind: slot for kind, slot in cache.items()
             if slot["hits"] + slot["misses"] > 0}
    for slot in cache.values():
        total = slot["hits"] + slot["misses"]
        slot["hit_rate"] = slot["hits"] / total

    return {
        "cells": len(cells),
        "cell_errors": sum(1 for s in cells if s.get("error")),
        "stages": dict(sorted(stages.items())),
        "slowest_cells": slowest_cells,
        "workers": dict(sorted(workers.items(), key=lambda kv: kv[0])),
        "cache": dict(sorted(cache.items())),
    }


def build_payload(spans: list[dict], registry: MetricsRegistry,
                  pids: list[int], meta: dict,
                  harness: Optional[str] = None) -> dict:
    spans = sorted(spans, key=_span_sort_key)
    metrics = registry.snapshot()
    payload = {
        "schema": SCHEMA_TAG,
        "trace_id": meta.get("trace_id", ""),
        "harness": harness or " ".join(meta.get("argv", [])[:2]) or None,
        "pids": pids,
        "metrics": metrics,
        "spans": spans,
        "summary": _summarize(spans, metrics),
    }
    return payload


def merge_dir(out_dir: str | os.PathLike,
              harness: Optional[str] = None) -> dict:
    """Merge a session directory's shards into ``metrics.json``.

    Returns the ``repro-metrics/1`` payload it wrote next to the
    shards, then removes the shard files.
    """
    out = Path(out_dir)
    meta: dict = {}
    meta_path = out / "meta.json"
    if meta_path.exists():
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError:
            meta = {}
    spans, registry, pids, shard_files = _read_shards(out)
    payload = build_payload(spans, registry, pids, meta, harness=harness)
    (out / "metrics.json").write_text(
        json.dumps(payload, indent=2) + "\n")
    for path in shard_files:
        try:
            path.unlink()
        except OSError:
            pass
    return payload


def load_session(path: str | os.PathLike) -> dict:
    """The ``repro-metrics/1`` payload behind ``path``: a
    ``metrics.json`` file, or a session directory — whose leftover
    shards are merged first, so the raw directory of a crashed sweep
    reads like a finalized one."""
    p = Path(path)
    if p.is_dir():
        if any(p.glob("spans-*.jsonl")) or any(p.glob("metrics-*.json")):
            return merge_dir(p)
        p = p / "metrics.json"
        if not p.exists():
            raise FileNotFoundError(
                f"{p}: no metrics.json and no shards — run a harness "
                f"with --telemetry first")
    payload = json.loads(p.read_text())
    if not isinstance(payload, dict) \
            or payload.get("schema") != SCHEMA_TAG:
        raise ValueError(f"{p}: not a {SCHEMA_TAG} payload")
    return payload


def finalize(harness: Optional[str] = None,
             echo=None) -> Optional[dict]:
    """Flush this process's shard and merge the session directory.

    The standard epilogue of every instrumented CLI: a no-op returning
    ``None`` when telemetry is off.  ``echo`` (e.g. a stderr printer)
    receives a one-line summary of what was written.
    """
    if not spanmod.enabled():
        return None
    out_dir = spanmod.current_dir()
    spanmod.flush()
    payload = merge_dir(out_dir, harness=harness)
    spanmod.shutdown(flush_shard=False)
    if echo is not None:
        s = payload["summary"]
        echo(f"[telemetry] {out_dir}/metrics.json: "
             f"{len(payload['spans'])} span(s), {s['cells']} cell(s), "
             f"{len(payload['pids'])} process(es)")
    return payload
