"""Mutable per-estimate fault-injection state shared by the machine models.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
with the small amount of mutable bookkeeping the injection sites need: a
monotone signal index for the deterministic lost-sync draws and counters
of what was actually injected (for reports and assertions).  One injector
serves one estimate; the models it is handed to never mutate anything
else, so healthy-plan injectors are shared-safe no-ops.
"""

from __future__ import annotations

from typing import Optional

from repro.faults.plan import FaultPlan

#: latency tiers the memory-degradation fault applies to — private/cache
#: traffic stays clean (the fault models contended *banks*, not the CE's
#: own cache)
DEGRADED_PLACEMENTS = ("cluster", "global")


class FaultInjector:
    """Shared injection state for one estimate under one plan."""

    def __init__(self, plan: Optional[FaultPlan] = None):
        self.plan = plan or FaultPlan()
        #: next DOACROSS signal index (keys the stateless lost-sync draw)
        self.sync_index = 0
        #: what actually happened, for reports
        self.injected_faults = 0
        self.sync_retries = 0
        self.fault_cycles = 0.0

    # ------------------------------------------------------------------

    @property
    def active(self) -> bool:
        return self.plan.active

    @property
    def degrades_scheduling(self) -> bool:
        return self.plan.degrades_scheduling

    def note(self, cycles: float, events: int = 1) -> None:
        """Record that ``cycles`` of degradation were injected."""
        self.fault_cycles += cycles
        self.injected_faults += events

    # -- memory --------------------------------------------------------------

    def memory_extra(self, placement: str, healthy_cost: float) -> float:
        """Extra cycles a degraded bank adds on top of ``healthy_cost``."""
        if self.plan.memory_degradation <= 1.0 \
                or placement not in DEGRADED_PLACEMENTS:
            return 0.0
        extra = healthy_cost * (self.plan.memory_degradation - 1.0)
        if extra > 0.0:
            self.note(extra)
        return extra

    def bandwidth_capacity(self, capacity: float) -> float:
        """Sustainable global bandwidth left after a partial bank outage."""
        return capacity * self.plan.bandwidth_factor

    @property
    def prefetch_disabled(self) -> bool:
        return self.plan.prefetch_disabled
