"""Memory hierarchy timing: cache, cluster memory, global memory.

The model answers "what does one element access cost" given the data's
placement and access pattern.  Global *vector* streams go through the
32-element prefetch unit (§2.2.3) when it is enabled: one trigger per
block, then near-cache delivery; scalar global loads pay full latency,
which is why prefetch gains grow with vector length (Figure 6).  It also
models the Figure 8 effect: aggregate global-memory traffic across
clusters is capped by the network/GM bandwidth, so adding clusters stops
helping once the program runs at the global transfer rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.machine.config import MachineConfig
from repro.trace.ledger import NULL_LEDGER, CycleLedger

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultInjector


@dataclass
class AccessProfile:
    """Accumulated traffic of one program region (element counts)."""

    cache_elems: float = 0.0
    cluster_elems: float = 0.0
    global_elems: float = 0.0
    prefetched_elems: float = 0.0

    def add(self, other: "AccessProfile") -> None:
        self.cache_elems += other.cache_elems
        self.cluster_elems += other.cluster_elems
        self.global_elems += other.global_elems
        self.prefetched_elems += other.prefetched_elems

    def scaled(self, k: float) -> "AccessProfile":
        return AccessProfile(self.cache_elems * k, self.cluster_elems * k,
                             self.global_elems * k, self.prefetched_elems * k)


class MemorySystem:
    """Per-access costs plus the global-bandwidth saturation correction."""

    def __init__(self, config: MachineConfig,
                 faults: Optional["FaultInjector"] = None):
        self.cfg = config
        self.faults = faults

    # -- fault injection ------------------------------------------------------

    def _degraded(self, placement: str, healthy_cost: float,
                  ledger: CycleLedger) -> float:
        """Extra cycles a degraded memory bank adds on one access.

        The *healthy* cost stays in its normal memory category — keeping
        the counter×latency reconciliation exact — and only the inflation
        lands in the ledger's ``fault`` category.
        """
        if self.faults is None:
            return 0.0
        extra = self.faults.memory_extra(placement, healthy_cost)
        if extra > 0.0:
            ledger.charge("fault", extra)
            ledger.count("fault_events", 1.0)
        return extra

    # -- single-access costs -------------------------------------------------

    def scalar_access(self, placement: str, cached: bool = False,
                      ledger: CycleLedger = NULL_LEDGER) -> float:
        """Cost of one scalar element access (charged into ``ledger``)."""
        if placement == "private" or cached:
            ledger.charge("mem_cache", self.cfg.lat_cache)
            ledger.count("cache_refs")
            return self.cfg.lat_cache
        if placement == "cluster":
            ledger.charge("mem_cluster", self.cfg.lat_cluster)
            ledger.count("cluster_refs")
            return (self.cfg.lat_cluster
                    + self._degraded("cluster", self.cfg.lat_cluster, ledger))
        if placement == "global":
            if self.cfg.has_global_memory:
                ledger.charge("mem_global", self.cfg.lat_global)
                ledger.count("global_refs")
                return (self.cfg.lat_global
                        + self._degraded("global", self.cfg.lat_global,
                                         ledger))
            ledger.charge("mem_cluster", self.cfg.lat_cluster)
            ledger.count("cluster_refs")
            return (self.cfg.lat_cluster
                    + self._degraded("cluster", self.cfg.lat_cluster, ledger))
        raise ValueError(placement)

    def vector_access(self, placement: str, length: float,
                      prefetch: bool = True,
                      ledger: CycleLedger = NULL_LEDGER
                      ) -> tuple[float, AccessProfile]:
        """Cost and traffic of streaming ``length`` elements.

        Global vector streams use the prefetch unit when enabled: one
        trigger per 32-element block, then cache-speed delivery (§2.2.3).
        """
        prof = AccessProfile()
        if length <= 0:
            return 0.0, prof
        if self.faults is not None and self.faults.prefetch_disabled:
            # prefetch unit offline: global streams fall back to the
            # un-prefetched pipelined path (counters follow the fallback,
            # so counter×latency reconciliation still holds)
            prefetch = False
        if placement in ("private",):
            prof.cache_elems = length
            ledger.charge("mem_cache", self.cfg.lat_cache * length)
            ledger.count("cache_refs", length)
            return self.cfg.lat_cache * length, prof
        if placement == "cluster" or not self.cfg.has_global_memory:
            prof.cluster_elems = length
            # cluster streams run through the shared cache
            cost = self.cfg.lat_cluster * length
            ledger.charge("mem_cluster", cost)
            ledger.count("cluster_refs", length)
            return cost + self._degraded("cluster", cost, ledger), prof
        if placement == "global":
            if prefetch:
                blocks = -(-length // self.cfg.prefetch_block)
                prof.prefetched_elems = length
                prof.global_elems = length
                cost = (blocks * self.cfg.prefetch_trigger
                        + length * self.cfg.lat_global_prefetched)
                ledger.charge("prefetch", cost)
                ledger.count("prefetch_triggers", blocks)
                ledger.count("prefetch_elems", length)
                return cost + self._degraded("global", cost, ledger), prof
            prof.global_elems = length
            # un-prefetched global vector access still pipelines somewhat
            cost = length * (0.55 * self.cfg.lat_global)
            ledger.charge("mem_global", cost)
            ledger.count("global_stream_elems", length)
            return cost + self._degraded("global", cost, ledger), prof
        raise ValueError(placement)

    # -- saturation ----------------------------------------------------------

    def saturation_factor(self, global_elems: float, busy_time: float,
                          active_clusters: int) -> float:
        """Slowdown multiplier when aggregate global traffic exceeds the
        sustainable bandwidth.

        ``global_elems`` is the total global-memory traffic the region
        generates across all clusters; ``busy_time`` is the region's
        uncorrected parallel run time.
        """
        if busy_time <= 0 or global_elems <= 0 or not self.cfg.has_global_memory:
            return 1.0
        demanded_rate = global_elems / busy_time
        capacity = self.cfg.global_bandwidth
        if self.faults is not None:
            # a partial bank outage lowers the Figure 8 ceiling
            capacity = self.faults.bandwidth_capacity(capacity)
        if demanded_rate <= capacity:
            return 1.0
        return demanded_rate / capacity
