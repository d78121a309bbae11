"""Deterministic fault-injection plans (the chaos layer's spec).

A :class:`FaultPlan` is a frozen, pure-literal description of how the
simulated Cedar machine is degraded during one estimate: which CEs die
and when, per-CE and per-cluster clock slowdowns, memory-bank
degradation/outage, lost-synchronization retries, and a disabled
prefetch unit.  Each fault class maps onto a hardware behavior the paper
argues Cedar's self-scheduled microtasking tolerates:

=====================  ====================================================
fault class            Cedar feature it stresses
=====================  ====================================================
``dead_ces``           self-scheduling: surviving CEs drain the chunk queue
``ce_slowdown``        load imbalance across asymmetric processors
``cluster_slowdown``   a slow cluster under SDOALL/XDOALL spreading
``memory_degradation`` contended memory banks (latency inflation)
``bandwidth_factor``   global-network/GM saturation (Figure 8's ceiling)
``lost_sync_rate``     DOACROSS await/advance cascade re-signalling
``prefetch_disabled``  §2.2.3 prefetch unit taken offline
``helper_delay``       helper tasks (mtskstart) arriving late
=====================  ====================================================

Determinism: everything is derived from the plan's ``seed`` through
*stateless, index-keyed* draws (:meth:`FaultPlan.sync_lost`), so the same
plan produces the same degradation regardless of call order or process.
An inactive (default) plan is a guaranteed no-op: every injection site
short-circuits, keeping healthy results bit-identical.

A plan degrades *time* in the estimator and *who runs what* in the
interpreter, from one replay of the self-scheduled chunk queue
(:meth:`FaultPlan.drain`): the scheduler prices it, and
:meth:`FaultPlan.deal` hands ``Interpreter(deal=…)`` the resulting
iteration→worker assignment, so "results do not depend on which CE ran
which iteration" is something the oracle actually runs.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import asdict, dataclass, replace
from typing import Sequence

from repro.errors import FaultInjectionError

#: what one DOALL iteration costs, in cycles, when the plan deals
#: iterations for the *functional* replay (:meth:`FaultPlan.deal`).  The
#: interpreter has no clock, so every iteration is one chunk of this
#: nominal cost; it is a constant of the model, not a tunable.  200 is
#: the order of a loop body at validation sizes (n = 24) and half of
#: ``dead-ce-late``'s ``death_cycle``, so a CE dying at cycle 400 takes
#: two iterations of a 24-trip loop and retires mid-loop, where a healthy
#: CE takes three.
NOMINAL_CHUNK_CYCLES = 200.0


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic machine-degradation scenario."""

    name: str = "healthy"
    seed: int = 0

    # -- CE loss / asymmetry -------------------------------------------------
    #: worker tracks (self-scheduling slots) that retire; a dying CE
    #: finishes its in-flight chunk, then stops taking work
    dead_ces: tuple[int, ...] = ()
    #: cycle (relative to loop start) at which dead CEs stop; 0.0 means
    #: they never pick up work at all
    death_cycle: float = 0.0
    #: per-CE clock slowdown factors as (worker, factor >= 1) pairs
    ce_slowdown: tuple[tuple[int, float], ...] = ()
    #: whole-machine clock degradation (a slow cluster), factor >= 1
    cluster_slowdown: float = 1.0

    # -- memory system -------------------------------------------------------
    #: latency multiplier (>= 1) on cluster/global element access —
    #: contended or degraded memory banks
    memory_degradation: float = 1.0
    #: fraction (0 < f <= 1) of the global network/GM bandwidth left —
    #: a partial bank outage lowers the Figure 8 saturation ceiling
    bandwidth_factor: float = 1.0
    #: take the vector prefetch unit offline (global streams fall back
    #: to the un-prefetched pipelined path)
    prefetch_disabled: bool = False

    # -- synchronization / tasking -------------------------------------------
    #: probability (0..1) that one await/advance signal is lost and must
    #: be re-sent; drawn deterministically per signal index
    lost_sync_rate: float = 0.0
    #: extra cycles before a helper task (mtskstart) picks up a thread
    helper_delay: float = 0.0

    # ------------------------------------------------------------------

    def __post_init__(self) -> None:
        if self.cluster_slowdown < 1.0:
            raise FaultInjectionError(
                f"cluster_slowdown must be >= 1, got {self.cluster_slowdown}")
        if self.memory_degradation < 1.0:
            raise FaultInjectionError(
                f"memory_degradation must be >= 1, "
                f"got {self.memory_degradation}")
        if not 0.0 < self.bandwidth_factor <= 1.0:
            raise FaultInjectionError(
                f"bandwidth_factor must be in (0, 1], "
                f"got {self.bandwidth_factor}")
        if not 0.0 <= self.lost_sync_rate <= 1.0:
            raise FaultInjectionError(
                f"lost_sync_rate must be in [0, 1], "
                f"got {self.lost_sync_rate}")
        if self.death_cycle < 0.0 or self.helper_delay < 0.0:
            raise FaultInjectionError("death_cycle and helper_delay "
                                      "must be >= 0")
        if any(w < 0 for w in self.dead_ces):
            raise FaultInjectionError("dead_ces must be worker indices >= 0")
        for w, f in self.ce_slowdown:
            if w < 0 or f < 1.0:
                raise FaultInjectionError(
                    f"ce_slowdown entries need worker >= 0 and "
                    f"factor >= 1, got ({w}, {f})")

    # -- activity ------------------------------------------------------------

    @property
    def active(self) -> bool:
        """Whether this plan degrades anything at all."""
        return (bool(self.dead_ces) or bool(self.ce_slowdown)
                or self.cluster_slowdown > 1.0
                or self.memory_degradation > 1.0
                or self.bandwidth_factor < 1.0
                or self.prefetch_disabled
                or self.lost_sync_rate > 0.0
                or self.helper_delay > 0.0)

    @property
    def degrades_workers(self) -> bool:
        """Whether worker tracks themselves die or slow down (the
        faults the self-scheduled chunk deal has to recover from)."""
        return (bool(self.dead_ces) or bool(self.ce_slowdown)
                or self.cluster_slowdown > 1.0)

    @property
    def degrades_scheduling(self) -> bool:
        """Whether the self-scheduling event simulation is affected."""
        return self.degrades_workers or self.lost_sync_rate > 0.0

    # -- deterministic per-site queries ---------------------------------------

    def survivors(self, p: int) -> list[int]:
        """Worker tracks still alive out of ``p``.

        CE 0's death is ignored when the plan would kill *every* worker:
        the cluster's master CE is restarted by the OS, so the chunk
        queue always drains — the model cannot deadlock by construction.
        """
        dead = {w for w in self.dead_ces if w < p}
        if len(dead) >= p:
            dead.discard(min(dead))
        return [w for w in range(p) if w not in dead]

    def speed_factor(self, worker: int) -> float:
        """Clock-slowdown multiplier (>= 1) for one worker track."""
        per_ce = dict(self.ce_slowdown).get(worker, 1.0)
        return self.cluster_slowdown * per_ce

    def max_speed_factor(self, p: int) -> float:
        return max((self.speed_factor(w) for w in self.survivors(p)),
                   default=self.cluster_slowdown)

    def sync_lost(self, index: int) -> bool:
        """Whether signal number ``index`` is lost (stateless draw).

        Keyed on ``(seed, index)`` through :class:`random.Random`'s
        string seeding (SHA-512 based, stable across processes), so the
        answer never depends on call order.
        """
        if self.lost_sync_rate <= 0.0:
            return False
        if self.lost_sync_rate >= 1.0:
            return True
        rng = random.Random(f"{self.seed}:sync:{index}")
        return rng.random() < self.lost_sync_rate

    # -- the self-scheduled chunk queue ---------------------------------------

    def drain(self, chunk_costs: Sequence[float], p: int,
              dispatch: float = 0.0, preamble: float = 0.0
              ) -> tuple[list[int], list[tuple[float, int]]]:
        """Replay ``p`` workers draining a self-scheduled chunk queue.

        Whichever live worker is free first (ties: lowest index) takes
        the next chunk; a dying CE finishes its in-flight chunk, then
        retires at ``death_cycle`` and never grabs another; slow CEs
        stretch whatever they execute by their clock factor.  Deadlock
        is impossible by construction — :meth:`survivors` always leaves
        a live worker.  Returns ``(owners, clocks)``: the worker that
        took each chunk, and the ``(free_at, worker)`` entries of the
        workers that had not retired when the queue ran dry.

        The one drain loop behind both halves of the oracle: the
        scheduler prices it (``LoopScheduler._fault_delta_selfsched``),
        :meth:`deal` reads who ran what off it.
        """
        alive = set(self.survivors(p))
        death = self.death_cycle
        f = [self.speed_factor(w) for w in range(p)]
        heap = [(preamble * f[w], w) for w in range(p)]
        heapq.heapify(heap)
        owners: list[int] = []
        while len(owners) < len(chunk_costs):
            t, w = heapq.heappop(heap)
            if w not in alive and t >= death:
                continue  # retired: in-flight chunk done, takes no more work
            t += (dispatch + chunk_costs[len(owners)]) * f[w]
            owners.append(w)
            heapq.heappush(heap, (t, w))
        return owners, heap

    def deal(self, n: int, p: int) -> list[list[int]]:
        """Which worker runs which of a DOALL's ``n`` iterations: the
        functional replay of :meth:`drain`, every iteration one chunk of
        :data:`NOMINAL_CHUNK_CYCLES`.

        Always a partition of ``range(n)`` into ``p`` ascending shares —
        work is redistributed, never lost.  A CE dead from cycle 0 gets
        nothing, one dying later keeps what it took before
        ``death_cycle``, a slow CE takes proportionally fewer chunks.
        Equal clocks tie-break by worker index, so a plan with no dead
        and no individually slowed CE — healthy, memory/sync/helper
        faults, a uniformly slow cluster — deals exactly the
        interpreter's default ``w, w+P, …``.
        """
        owners, _ = self.drain([NOMINAL_CHUNK_CYCLES] * n, p)
        shares: list[list[int]] = [[] for _ in range(p)]
        for i, w in enumerate(owners):
            shares[w].append(i)
        return shares

    @property
    def deal_key(self) -> tuple:
        """Everything :meth:`deal` can see of the plan: plans with equal
        keys deal identically for every ``(n, p)``."""
        if not self.dead_ces and not self.ce_slowdown:
            return ()
        return (self.dead_ces, self.death_cycle, self.ce_slowdown,
                self.cluster_slowdown)

    # -- degradation bound ----------------------------------------------------

    def degradation_bound(self, p: int) -> float:
        """Conservative multiplier bounding the faulted completion time.

        A faulted loop on ``p`` workers may take at most
        ``bound * healthy_total`` cycles: work redistributes over the
        survivors (``p / len(survivors)``), every cycle may be stretched
        by the worst surviving clock factor and the memory degradation,
        saturation stalls inflate by ``1 / bandwidth_factor``, every
        lost signal is re-sent exactly once (factor ``1 + rate``), and a
        disabled prefetch unit inflates global streams by at most 3x
        (the pipelined-fallback vs prefetched cost ratio on both Cedar
        configurations).  A late helper task delays each spread/cross
        loop by ``helper_delay`` on top of its startup; since SDOALL/
        XDOALL startup is at least ~200 cycles on every configuration,
        that inflates an affected loop by at most ``helper_delay / 200``
        of its healthy time.  A 1.25 slack term absorbs scheduling-edge
        effects (the last iterations landing on a slow CE).
        """
        n_survive = max(len(self.survivors(p)), 1)
        bound = (p / n_survive) * self.max_speed_factor(p) \
            * self.memory_degradation / self.bandwidth_factor \
            * (1.0 + self.lost_sync_rate)
        if self.prefetch_disabled:
            bound *= 3.0
        if self.helper_delay > 0.0:
            bound *= 1.0 + self.helper_delay / 200.0
        return bound * 1.25 + 1e-9

    # -- (de)serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["dead_ces"] = list(self.dead_ces)
        d["ce_slowdown"] = [list(pair) for pair in self.ce_slowdown]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FaultPlan":
        kwargs = dict(d)
        unknown = set(kwargs) - set(cls.__dataclass_fields__)
        if unknown:
            raise FaultInjectionError(
                f"unknown FaultPlan field(s): {', '.join(sorted(unknown))}")
        if "dead_ces" in kwargs:
            kwargs["dead_ces"] = tuple(int(w) for w in kwargs["dead_ces"])
        if "ce_slowdown" in kwargs:
            kwargs["ce_slowdown"] = tuple(
                (int(w), float(f)) for w, f in kwargs["ce_slowdown"])
        return cls(**kwargs)

    def renamed(self, name: str) -> "FaultPlan":
        return replace(self, name=name)

    @classmethod
    def sample(cls, seed: int, max_dead: int = 3) -> "FaultPlan":
        """A randomized-but-deterministic chaos plan for property tests."""
        rng = random.Random(f"faultplan:{seed}")
        dead = tuple(sorted(rng.sample(range(8), rng.randint(0, max_dead))))
        slow = tuple((w, round(1.0 + rng.random() * 2.0, 3))
                     for w in rng.sample(range(8), rng.randint(0, 2)))
        return cls(
            name=f"sampled-{seed}", seed=seed,
            dead_ces=dead,
            death_cycle=round(rng.random() * 500.0, 1),
            ce_slowdown=slow,
            cluster_slowdown=round(1.0 + rng.random(), 3),
            memory_degradation=round(1.0 + rng.random() * 3.0, 3),
            bandwidth_factor=round(0.25 + rng.random() * 0.75, 3),
            prefetch_disabled=rng.random() < 0.5,
            lost_sync_rate=round(rng.random() * 0.5, 3),
            helper_delay=round(rng.random() * 1000.0, 1),
        )


#: the named fault matrix the degradation oracle sweeps — pure-literal
#: specs, one per fault class plus a combined chaos scenario.  Keyed by
#: scenario name; every entry is a kwargs dict for :class:`FaultPlan`.
SCENARIO_SPECS: dict[str, dict] = {
    "healthy": {},
    "dead-ce": {"dead_ces": (1,), "seed": 11},
    "dead-ce-late": {"dead_ces": (1, 3), "death_cycle": 400.0, "seed": 12},
    "slow-ce": {"ce_slowdown": ((2, 3.0),), "seed": 13},
    "slow-cluster": {"cluster_slowdown": 1.5, "seed": 14},
    "bank-degraded": {"memory_degradation": 2.0, "seed": 15},
    "bank-outage": {"memory_degradation": 4.0, "bandwidth_factor": 0.25,
                    "seed": 16},
    "lost-sync": {"lost_sync_rate": 0.25, "seed": 17},
    "no-prefetch": {"prefetch_disabled": True, "seed": 18},
    "late-helpers": {"helper_delay": 800.0, "seed": 19},
    "chaos": {"dead_ces": (1,), "ce_slowdown": ((2, 2.0),),
              "cluster_slowdown": 1.25, "memory_degradation": 1.5,
              "bandwidth_factor": 0.5, "lost_sync_rate": 0.1,
              "prefetch_disabled": True, "seed": 20},
}

#: the fast CI subset of the matrix (chaos-smoke job)
QUICK_SCENARIOS = ("healthy", "dead-ce", "slow-cluster", "bank-outage",
                   "lost-sync", "chaos")


def scenario(name: str) -> FaultPlan:
    """Build the named scenario from :data:`SCENARIO_SPECS`."""
    if name not in SCENARIO_SPECS:
        raise FaultInjectionError(
            f"unknown fault scenario {name!r} "
            f"(known: {', '.join(sorted(SCENARIO_SPECS))})")
    return FaultPlan(name=name, **SCENARIO_SPECS[name])


def all_scenarios(quick: bool = False) -> dict[str, FaultPlan]:
    names = QUICK_SCENARIOS if quick else tuple(SCENARIO_SPECS)
    return {n: scenario(n) for n in names}
