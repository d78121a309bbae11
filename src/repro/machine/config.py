"""Machine configurations: Cedar (Configurations 1 and 2) and Alliant FX/80.

Latency/startup magnitudes follow the published Cedar characterization:
cluster memory behind a shared 4-way interleaved cache, global memory
roughly 4-5× slower than cached cluster access without prefetch, prefetch
bringing vector global accesses close to cache speed, CDOALL startup via
the concurrency bus being tens of cycles while SDOALL/XDOALL startup
through global memory costs on the order of a thousand cycles (§4.2.4:
"the overhead for it is large").
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.errors import MachineModelError


@dataclass(frozen=True)
class MachineConfig:
    """All timing and capacity parameters of one machine."""

    name: str = "cedar"

    # topology
    clusters: int = 4
    processors_per_cluster: int = 8
    has_global_memory: bool = True

    # scalar core (cycles)
    cost_alu: float = 1.0
    cost_mul: float = 1.0
    cost_div: float = 17.0
    cost_func: float = 30.0       # libm-class intrinsic
    cost_branch: float = 2.0

    # vector unit
    vector_startup: float = 12.0
    vector_per_element: float = 1.0

    # memory hierarchy (per 64-bit element, cycles)
    lat_cache: float = 2.0
    lat_cluster: float = 5.0
    lat_global: float = 22.0
    lat_global_prefetched: float = 3.0
    prefetch_block: int = 32
    prefetch_trigger: float = 8.0   # issuing one prefetch instruction

    # capacities
    cluster_memory_mb: int = 16
    global_memory_mb: int = 64

    # global bandwidth: aggregate elements/cycle the network+GM sustain —
    # about two clusters' worth of prefetched streaming (Figure 8's curve
    # flattens past two clusters)
    global_bandwidth: float = 5.0

    # parallel loop machinery (cycles)
    start_cdoall: float = 50.0      # concurrency control bus
    start_cdoacross: float = 60.0
    start_sdoall: float = 1400.0    # helper-task wakeup via global memory
    start_xdoall: float = 1700.0
    start_xdoacross: float = 2000.0
    dispatch_c: float = 4.0         # per-chunk self-scheduling cost
    dispatch_s: float = 120.0
    dispatch_x: float = 30.0

    # synchronization
    cost_await: float = 18.0
    cost_advance: float = 10.0
    cost_lock: float = 40.0
    cost_unlock: float = 12.0
    cross_cluster_signal: float = 80.0

    # paging
    page_kb: int = 4
    page_fault_cost: float = 150000.0

    @property
    def total_processors(self) -> int:
        return self.clusters * self.processors_per_cluster

    def processors_at(self, level: str) -> int:
        """Processors joining a parallel loop at level C, S, or X."""
        if level == "C":
            return self.processors_per_cluster
        if level == "S":
            return self.clusters
        if level == "X":
            return self.total_processors
        raise MachineModelError(f"unknown loop level {level!r}")

    def startup(self, level: str, order: str) -> float:
        key = {
            ("C", "doall"): self.start_cdoall,
            ("C", "doacross"): self.start_cdoacross,
            ("S", "doall"): self.start_sdoall,
            ("S", "doacross"): self.start_sdoall,
            ("X", "doall"): self.start_xdoall,
            ("X", "doacross"): self.start_xdoacross,
        }.get((level, order))
        if key is None:
            raise MachineModelError(f"unknown loop form {level}{order}")
        return key

    def dispatch(self, level: str) -> float:
        return {"C": self.dispatch_c, "S": self.dispatch_s,
                "X": self.dispatch_x}[level]

    def with_clusters(self, n: int) -> "MachineConfig":
        if n < 1:
            raise MachineModelError("need at least one cluster")
        return replace(self, clusters=n)


def cedar_config1() -> MachineConfig:
    """Cedar Configuration 1: 64 MB global, 4 × 16 MB cluster memory."""
    return MachineConfig(name="cedar-config1",
                         cluster_memory_mb=16, global_memory_mb=64)


def cedar_config2() -> MachineConfig:
    """Cedar Configuration 2: 64 MB global, 4 × 64 MB cluster memory."""
    return MachineConfig(name="cedar-config2",
                         cluster_memory_mb=64, global_memory_mb=64)


def alliant_fx80() -> MachineConfig:
    """Alliant FX/80: one 8-CE cluster, no global memory.

    S/X loops degrade to cluster loops; "global" data lives in the single
    cluster memory.
    """
    return MachineConfig(
        name="alliant-fx80",
        clusters=1,
        processors_per_cluster=8,
        has_global_memory=False,
        cluster_memory_mb=96,
        global_memory_mb=0,
        lat_global=5.0,             # no global tier: same as cluster
        lat_global_prefetched=5.0,
        global_bandwidth=3.0,
        start_sdoall=220.0,         # spread loops collapse onto the cluster
        start_xdoall=220.0,
        start_xdoacross=260.0,
        dispatch_s=8.0,
        dispatch_x=4.0,
    )
