"""Hierarchical cycle accounting (the "where did the cycles go" ledger).

A :class:`CycleLedger` splits an execution-time estimate into the paper's
§2 cost sources: processor work (scalar vs vector), parallel-loop
machinery (startup, dispatch, synchronization), the memory hierarchy
(global vs cluster vs cache traffic, prefetched streams), and virtual
memory (page faults).  The machine models charge into a ledger as they
price operations; the performance estimator composes per-region ledgers
exactly as it composes cycle totals, so the category sums always equal
the aggregate cycle count — attribution never changes totals.

A profiling ledger also carries hardware-style event *counts* — how many
cache/cluster/global references, prefetch triggers, page faults,
dispatches — the numbers a performance-monitoring unit would report and
the quantities the paper reasons about directly (prefetch hit rates in
Figure 6, global-traffic saturation in Figure 8, fault counts behind
Table 1's mprove).  The machine models call ``ledger.count`` next to
every ``ledger.charge``; the counts ride the same ``add``/``scaled``
composition, so

    counter × configured latency  ==  ledger memory category

holds to floating-point rounding for every estimate
(:func:`reconcile`).  Counts become fractional under statistical
composition (averaged branch arms scale by 1/arms) — they are
expectations, exactly like the cycle categories.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

#: flat category names, in rendering order
CATEGORIES = (
    "compute",      # scalar arithmetic, branches, call linkage
    "vector",       # vector-pipeline operations (incl. startup ramps)
    "startup",      # parallel-loop activation (CDOALL bus / SDOALL+XDOALL
    #                 helper-task wakeup through global memory)
    "dispatch",     # per-chunk self-scheduling cost on the critical path
    "sync",         # await/advance cascades, locks, combining trees
    "mem_global",   # un-prefetched global-memory element traffic + the
    #                 bandwidth-saturation stall (Figure 8)
    "mem_cluster",  # cluster-memory element traffic
    "mem_cache",    # private/cached element traffic
    "prefetch",     # prefetched global vector streams (trigger + delivery)
    "page_fault",   # virtual-memory overhead (Table 1's mprove)
    "fault",        # injected-fault degradation (dead/stalled CEs, bank
    #                 outages, lost syncs — repro.faults); zero on a
    #                 healthy machine
)

#: two-level grouping used by ``to_dict``/``render`` — maps the flat
#: categories onto the paper's §2 cost-source taxonomy
HIERARCHY = {
    "processor": ("compute", "vector"),
    "parallel_overhead": ("startup", "dispatch", "sync"),
    "memory": ("mem_global", "mem_cluster", "mem_cache", "prefetch"),
    "paging": ("page_fault",),
    "degradation": ("fault",),
}

#: event-counter names, in rendering order.  ``*_cycles`` counters are
#: cycle-valued (stall time); everything else counts events/elements.
COUNTERS = (
    "cache_refs",          # private/cached element references
    "cluster_refs",        # cluster-memory element references
    "global_refs",         # full-latency scalar global references
    "global_stream_elems",  # un-prefetched pipelined global vector elements
    "prefetch_triggers",   # 32-element prefetch instructions issued
    "prefetch_elems",      # elements delivered through the prefetch buffer
    "bank_stall_cycles",   # global-network/GM bandwidth-saturation stalls
    "page_faults",         # virtual-memory faults
    "vector_ops",          # vector-pipeline operations started
    "vector_elems",        # elements pushed through the vector pipes
    "loop_startups",       # parallel-loop activations
    "chunks_dispatched",   # self-scheduling chunk grabs
    "sync_ops",            # await/advance pairs, locks, combine steps
    "fault_events",        # injected faults that degraded this estimate
    "sync_retries",        # lost-synchronization re-signals (repro.faults)
)


@dataclass
class CycleLedger:
    """Mutable per-category cycle counter, with optional event counts.

    Supports the same composition algebra as
    :class:`repro.machine.memory.AccessProfile`: in-place :meth:`add` and
    a scaling copy :meth:`scaled`, which is how loop trip counts and
    averaged branch arms propagate through the estimator.  ``counts`` is
    ``None`` unless profiling (then a ``{counter: events}`` dict that
    :meth:`count` fills and ``add``/``scaled`` compose with the cycles).
    """

    compute: float = 0.0
    vector: float = 0.0
    startup: float = 0.0
    dispatch: float = 0.0
    sync: float = 0.0
    mem_global: float = 0.0
    mem_cluster: float = 0.0
    mem_cache: float = 0.0
    prefetch: float = 0.0
    page_fault: float = 0.0
    fault: float = 0.0
    counts: Optional[dict] = None

    # -- composition (the estimator's hot path: written out per field) -------

    def charge(self, category: str, cycles: float) -> None:
        """Add ``cycles`` to one category (must be in :data:`CATEGORIES`)."""
        if category not in CATEGORIES:
            raise KeyError(f"unknown ledger category {category!r}")
        setattr(self, category, getattr(self, category) + cycles)

    def count(self, counter: str, n: float = 1.0) -> None:
        """Record ``n`` events of one :data:`COUNTERS` entry (profiling
        ledgers only; a no-op when ``counts`` is ``None``)."""
        counts = self.counts
        if counts is not None:
            if counter not in COUNTERS:
                raise KeyError(f"unknown hardware counter {counter!r}")
            counts[counter] = counts.get(counter, 0.0) + n

    def add(self, other: "CycleLedger") -> None:
        self.compute += other.compute
        self.vector += other.vector
        self.startup += other.startup
        self.dispatch += other.dispatch
        self.sync += other.sync
        self.mem_global += other.mem_global
        self.mem_cluster += other.mem_cluster
        self.mem_cache += other.mem_cache
        self.prefetch += other.prefetch
        self.page_fault += other.page_fault
        self.fault += other.fault
        counts = self.counts
        if counts is not None and other.counts is not None:
            for c, n in other.counts.items():
                counts[c] = counts.get(c, 0.0) + n

    def scaled(self, k: float) -> "CycleLedger":
        return CycleLedger(
            self.compute * k, self.vector * k, self.startup * k,
            self.dispatch * k, self.sync * k, self.mem_global * k,
            self.mem_cluster * k, self.mem_cache * k, self.prefetch * k,
            self.page_fault * k, self.fault * k,
            None if self.counts is None
            else {c: n * k for c, n in self.counts.items()})

    def copy(self) -> "CycleLedger":
        return self.scaled(1.0)

    # -- inspection ----------------------------------------------------------

    def total(self) -> float:
        return sum(getattr(self, c) for c in CATEGORIES)

    def group_total(self, group: str) -> float:
        return sum(getattr(self, c) for c in HIERARCHY[group])

    def to_dict(self) -> dict:
        """Hierarchical JSON-ready view: groups → categories → cycles."""
        return {
            "total": self.total(),
            "groups": {
                g: {
                    "total": self.group_total(g),
                    **{c: getattr(self, c) for c in cats},
                }
                for g, cats in HIERARCHY.items()
            },
        }

    def counter_dict(self) -> dict:
        """Every counter in :data:`COUNTERS` order (zeros included)."""
        counts = self.counts or {}
        return {c: counts.get(c, 0.0) for c in COUNTERS}

    def render(self, indent: str = "") -> str:
        """Two-level text breakdown with percentages of the total."""
        return "\n".join(render_breakdown(self.to_dict(), indent))


def render_breakdown(breakdown: Mapping, indent: str = "") -> list[str]:
    """Text lines for a ``CycleLedger.to_dict()``-shaped mapping."""
    total = breakdown.get("total", 0.0)
    lines = [f"{indent}total {total:,.0f} cycles"]
    for group, cats in breakdown.get("groups", {}).items():
        gt = cats.get("total", 0.0)
        if not gt:
            continue
        pct = f" ({100.0 * gt / total:.1f}%)" if total else ""
        lines.append(f"{indent}  {group}: {gt:,.0f}{pct}")
        for name, v in cats.items():
            if name == "total" or not v:
                continue
            cpct = f" ({100.0 * v / total:.1f}%)" if total else ""
            lines.append(f"{indent}    {name}: {v:,.0f}{cpct}")
    return lines


class NullLedger(CycleLedger):
    """Do-nothing sink: every charge is dropped.

    The shared :data:`NULL_LEDGER` instance is the default ``ledger``
    argument of the machine-model costing methods, for callers (tests,
    examples) that price one operation without attributing it; the
    estimator always passes a real ledger.
    """

    def charge(self, category: str, cycles: float) -> None:
        pass

    def add(self, other: CycleLedger) -> None:
        pass

    def scaled(self, k: float) -> "NullLedger":
        return self

    def copy(self) -> "NullLedger":
        return self


#: shared default sink for all machine-model costing methods
NULL_LEDGER = NullLedger()


# -- counters ↔ cycles ---------------------------------------------------------


def memory_cycles_from_counters(counts: Mapping, cfg) -> dict:
    """Recompute the ledger's five memory-side categories from counts.

    ``cfg`` is a :class:`repro.machine.config.MachineConfig`.  Mirrors
    exactly how :mod:`repro.machine.memory` (prefetched global streams
    included) and :mod:`repro.machine.paging` price accesses, so the
    result equals the ledger categories to floating-point rounding.
    """
    n = {c: counts.get(c, 0.0) for c in COUNTERS}
    return {
        "mem_cache": n["cache_refs"] * cfg.lat_cache,
        "mem_cluster": n["cluster_refs"] * cfg.lat_cluster,
        "mem_global": (n["global_refs"] * cfg.lat_global
                       + n["global_stream_elems"] * (0.55 * cfg.lat_global)
                       + n["bank_stall_cycles"]),
        "prefetch": (n["prefetch_triggers"] * cfg.prefetch_trigger
                     + n["prefetch_elems"] * cfg.lat_global_prefetched),
        "page_fault": n["page_faults"] * cfg.page_fault_cost,
    }


def prefetch_hit_rate(counts: Mapping) -> float:
    """Fraction of global element traffic served through the prefetch
    buffer (the Figure 6 quantity)."""
    hits = counts.get("prefetch_elems", 0.0)
    total = (hits + counts.get("global_stream_elems", 0.0)
             + counts.get("global_refs", 0.0))
    return hits / total if total > 0 else 0.0


def reconcile(ledger: CycleLedger, cfg, rel_tol: float = 1e-6) -> dict:
    """Cross-validate a profiling ledger's counts against its memory
    categories: ``{category: {"ledger", "from_counters", "rel_err",
    "ok"}}``."""
    out = {}
    for cat, derived in memory_cycles_from_counters(ledger.counts or {},
                                                    cfg).items():
        have = getattr(ledger, cat)
        err = abs(derived - have) / max(abs(have), 1.0)
        out[cat] = {"ledger": have, "from_counters": derived,
                    "rel_err": err, "ok": err <= rel_tol}
    return out
