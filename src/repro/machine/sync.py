"""Synchronization costs: unordered locks and reduction combines.

The DOACROSS await/advance cascade (and its lost-signal fault) is
charged by :meth:`repro.machine.scheduler.LoopScheduler.doacross`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.config import MachineConfig
from repro.trace.ledger import NULL_LEDGER, CycleLedger


@dataclass
class SyncModel:
    cfg: MachineConfig

    def critical_section(self, body_cost: float, contenders: int,
                         ledger: CycleLedger = NULL_LEDGER) -> float:
        """Expected cost of one pass through an unordered critical section
        under ``contenders`` simultaneous contenders: lock acquisition plus
        expected serialization wait of half the other holders.

        Only the lock machinery and the serialization wait are charged to
        the ledger's ``sync`` — the body cost is the caller's to attribute.
        """
        lock = self.cfg.cost_lock + self.cfg.cost_unlock
        wait = 0.5 * max(contenders - 1, 0) * (body_cost + lock)
        ledger.charge("sync", lock + wait)
        ledger.count("sync_ops")
        return lock + body_cost + wait

    def reduction_combine(self, level: str, elems: float = 1.0,
                          ledger: CycleLedger = NULL_LEDGER) -> float:
        """Cost of combining per-processor partials at loop exit.

        Two steps (§3.3): within each cluster over the concurrency bus,
        then across clusters through global memory.
        """
        within = self.cfg.processors_per_cluster.bit_length() * (
            self.cfg.lat_cache + self.cfg.cost_alu) * elems
        ledger.count("sync_ops")
        if level == "C" or not self.cfg.has_global_memory:
            ledger.charge("sync", within)
            return within
        across = self.cfg.clusters.bit_length() * (
            self.cfg.lat_global + self.cfg.cross_cluster_signal) * elems
        if level == "S":
            ledger.charge("sync", across)
            return across
        ledger.charge("sync", within + across)
        return within + across
