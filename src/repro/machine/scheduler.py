"""Self-scheduled (microtasked) parallel loop timing (paper §2.2.1).

``LoopScheduler.run`` computes the completion time of a parallel loop
given per-iteration costs, using a discrete simulation of self-scheduling:
each of the P workers repeatedly grabs the next chunk and executes it, so
load imbalance, small trip counts, and dispatch contention all show up —
exactly the effects that make small loops not worth spreading across
clusters (§4.2.4).

For the common homogeneous case an O(1) closed form is used; the event
simulation handles heterogeneous iteration costs (e.g. triangular loops).
The closed form models the same round-robin chunk deal the simulation
produces — including a final partial chunk when the trip count does not
divide the chunk size — so the two agree to floating-point rounding on
homogeneous costs (property-tested).

Every timing carries a critical-path breakdown (startup / dispatch /
synchronization / iteration-body / preamble+postamble cycles) whose sum
equals ``total_time`` exactly, and can charge its overhead components
into a :class:`repro.trace.CycleLedger`.

With a :class:`repro.trace.timeline.TimelineRecorder` attached, every
priced loop additionally emits per-worker spans (preamble, dispatch,
chunk-execute, sync, idle) whose busy durations sum to ``busy_time``
exactly — the profiler's per-CE Gantt view.  Without one (the default),
no span is built and results are bit-identical to the unprofiled path.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.machine.config import MachineConfig
from repro.trace.ledger import NULL_LEDGER, CycleLedger
from repro.trace.timeline import CONTROL_TRACK, Span, TimelineRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.inject import FaultInjector


@dataclass
class LoopTiming:
    """Completion time and bookkeeping of one parallel loop execution.

    The ``*_cycles`` fields decompose the critical path:
    ``total_time == startup_cycles + dispatch_cycles + sync_cycles
    + body_cycles + pre_post_cycles + fault_cycles``.
    ``fault_cycles`` is the injected-fault degradation (zero on a healthy
    machine): the self-scheduled recovery — surviving CEs draining the
    chunk queue, DOACROSS re-signalling lost syncs — costs extra cycles
    but never changes what is computed.
    """

    total_time: float
    busy_time: float           # sum of worker busy cycles
    workers: int
    chunks: int
    startup_cycles: float = 0.0
    dispatch_cycles: float = 0.0
    sync_cycles: float = 0.0
    body_cycles: float = 0.0       # iteration-body time on the critical path
    pre_post_cycles: float = 0.0   # one preamble+postamble on the path
    fault_cycles: float = 0.0      # degradation added by injected faults

    @property
    def efficiency(self) -> float:
        denom = self.total_time * self.workers
        return self.busy_time / denom if denom > 0 else 0.0

    @property
    def overhead_cycles(self) -> float:
        """Non-body critical-path cycles (startup + dispatch + sync)."""
        return self.startup_cycles + self.dispatch_cycles + self.sync_cycles

    def charge_overhead(self, ledger: CycleLedger) -> None:
        """Charge the scheduler-added overhead into ``ledger``.

        Body and preamble/postamble cycles are the *caller's* to
        attribute — only the caller knows their compute/memory mix.
        """
        ledger.charge("startup", self.startup_cycles)
        ledger.charge("dispatch", self.dispatch_cycles)
        ledger.charge("sync", self.sync_cycles)
        ledger.count("loop_startups", 1.0)
        ledger.count("chunks_dispatched", float(self.chunks))
        if self.fault_cycles > 0.0:
            ledger.charge("fault", self.fault_cycles)
            ledger.count("fault_events", 1.0)


def _round_robin_counts(chunks: int, p: int) -> list[int]:
    """Chunks per worker under the deterministic round-robin deal."""
    k, extra = divmod(chunks, p)
    return [k + (1 if w < extra else 0) for w in range(p)]


class LoopScheduler:
    def __init__(self, config: MachineConfig,
                 faults: Optional["FaultInjector"] = None):
        self.cfg = config
        self.faults = faults

    # ------------------------------------------------------------------

    def run(self, level: str, order: str, trips: int,
            iter_cost: float | Sequence[float],
            preamble: float = 0.0, postamble: float = 0.0,
            chunk: int = 1, ledger: CycleLedger = NULL_LEDGER,
            timeline: Optional[TimelineRecorder] = None,
            label: str = "") -> LoopTiming:
        """Completion time of a self-scheduled loop.

        ``iter_cost`` is one number (homogeneous) or a per-iteration
        sequence.  ``preamble``/``postamble`` run once per worker.
        ``chunk`` iterations are grabbed per dispatch.  Scheduler-added
        overhead (startup/dispatch/sync) is charged into ``ledger``;
        per-worker spans land in ``timeline`` when one is given.
        """
        p = min(self.cfg.processors_at(level), max(trips, 1))
        startup = self.cfg.startup(level, order)
        dispatch = self.cfg.dispatch(level)

        if trips <= 0:
            timing = LoopTiming(startup, 0.0, p, 0, startup_cycles=startup)
            timing.charge_overhead(ledger)
            if timeline is not None:
                timeline.record(
                    label, level, order, p, timing.total_time, 0.0,
                    [Span(CONTROL_TRACK, "startup", 0.0, startup,
                          busy=False)])
            return timing

        if not isinstance(iter_cost, (int, float)):
            timing = self._simulate(level, order, list(iter_cost), p, startup,
                                    dispatch, preamble, postamble, chunk,
                                    timeline=timeline, label=label)
            timing.charge_overhead(ledger)
            return timing

        per = float(iter_cost)
        chunks = -(-trips // chunk)
        if order == "doacross":
            # without an explicit synchronized-region cost, assume the
            # whole iteration is synchronized (callers with a region use
            # :meth:`doacross` directly)
            return self.doacross(level, trips, per, per,
                                 preamble, postamble, ledger=ledger,
                                 timeline=timeline, label=label)
        # homogeneous DOALL: workers grab chunks round-robin until
        # exhausted; the last chunk holds the leftover trips (may be
        # partial), and the critical path belongs to a worker with
        # ceil(chunks/p) chunks — all full ones, unless the only such
        # worker is the one holding the partial tail chunk
        per_worker_chunks = -(-chunks // p)
        full_tail = chunks - (per_worker_chunks - 1) * p
        last_chunk = trips - (chunks - 1) * chunk
        if last_chunk == chunk or full_tail >= 2:
            crit_body = per_worker_chunks * chunk * per
        else:
            crit_body = ((per_worker_chunks - 1) * chunk + last_chunk) * per
        busy = trips * per + chunks * dispatch + p * (preamble + postamble)
        total = (startup + preamble + postamble
                 + per_worker_chunks * dispatch + crit_body)
        timing = LoopTiming(
            total, busy, p, chunks,
            startup_cycles=startup,
            dispatch_cycles=per_worker_chunks * dispatch,
            body_cycles=crit_body,
            pre_post_cycles=preamble + postamble)
        delta = 0.0
        if self.faults is not None:
            if self.faults.plan.degrades_workers:
                chunk_costs = [chunk * per] * (chunks - 1) \
                    + [last_chunk * per]
                delta = self._fault_delta_selfsched(
                    chunk_costs, p, dispatch, preamble, postamble,
                    startup, total)
            delta += self._helper_startup_delay(level)
            self._apply_fault_delta(timing, delta)
        timing.charge_overhead(ledger)
        if timeline is not None:
            spans = self._spans_homogeneous(
                p, chunks, chunk, last_chunk, per, dispatch, startup,
                preamble, postamble, total,
                max_chunk_spans=timeline.max_chunk_spans)
            if delta > 0.0:
                spans.append(Span(CONTROL_TRACK, "fault", total,
                                  total + delta, busy=False))
            timeline.record(label, level, "doall", p, timing.total_time,
                            busy, spans)
        return timing

    # ------------------------------------------------------------------

    def doacross(self, level: str, trips: int, iter_cost: float,
                 region_cost: float, preamble: float = 0.0,
                 postamble: float = 0.0,
                 ledger: CycleLedger = NULL_LEDGER,
                 timeline: Optional[TimelineRecorder] = None,
                 label: str = "") -> LoopTiming:
        """DOACROSS with an explicit synchronized-region cost.

        The critical path is ``trips * (region + signalling)`` when the
        serialized region dominates, else the self-scheduled parallel
        time inflated by the wait for the incoming signal.
        """
        p = min(self.cfg.processors_at(level), max(trips, 1))
        startup = self.cfg.startup(level, "doacross")
        dispatch = self.cfg.dispatch(level)
        signal = self.cfg.cost_await + self.cfg.cost_advance
        if level == "X":
            signal += self.cfg.cross_cluster_signal
        serial_chain = trips * (region_cost + signal)
        k = -(-trips // p)
        parallel_part = k * (iter_cost + dispatch + signal)
        total = startup + preamble + postamble + max(parallel_part,
                                                     serial_chain)
        busy = trips * (iter_cost + signal)
        if serial_chain >= parallel_part:
            # the synchronized-region cascade is the critical path
            body, disp, sync = trips * region_cost, 0.0, trips * signal
        else:
            body, disp, sync = k * iter_cost, k * dispatch, k * signal
        timing = LoopTiming(
            total, busy, p, trips,
            startup_cycles=startup, dispatch_cycles=disp, sync_cycles=sync,
            body_cycles=body, pre_post_cycles=preamble + postamble)
        delta, lost = 0.0, 0
        if self.faults is not None:
            if self.faults.degrades_scheduling:
                delta, lost = self._fault_delta_doacross(
                    trips, iter_cost, region_cost, signal, dispatch, startup,
                    preamble, postamble, p, total)
            delta += self._helper_startup_delay(level)
            self._apply_fault_delta(timing, delta)
            if lost:
                ledger.count("sync_retries", float(lost))
        timing.charge_overhead(ledger)
        if timeline is not None:
            spans = self._spans_doacross(
                p, trips, iter_cost, dispatch, signal, startup,
                preamble, postamble, total,
                max_chunk_spans=timeline.max_chunk_spans)
            if delta > 0.0:
                spans.append(Span(CONTROL_TRACK, "fault", total,
                                  total + delta, busy=False))
            timeline.record(label, level, "doacross", p, timing.total_time,
                            busy, spans)
        return timing

    # ------------------------------------------------------------------

    def _simulate(self, level: str, order: str, costs: list[float], p: int,
                  startup: float, dispatch: float, preamble: float,
                  postamble: float, chunk: int,
                  timeline: Optional[TimelineRecorder] = None,
                  label: str = "") -> LoopTiming:
        """Event-driven self-scheduling over heterogeneous iterations."""
        heap = [(preamble, w) for w in range(p)]
        heapq.heapify(heap)
        next_iter = 0
        busy = p * (preamble + postamble)
        n = len(costs)
        n_chunks = -(-n // chunk)
        finish = preamble
        # per-worker critical-path decomposition
        w_dispatch = [0.0] * p
        w_body = [0.0] * p
        w_chunks = [0] * p
        chunk_spans: list[tuple[int, float, float]] = []  # (worker, t0, t1)
        keep_spans = (timeline is not None
                      and n_chunks <= timeline.max_chunk_spans)
        faulted = (self.faults is not None
                   and self.faults.plan.degrades_workers)
        chunk_costs: list[float] = []
        while next_iter < n:
            t, w = heapq.heappop(heap)
            take = costs[next_iter:next_iter + chunk]
            next_iter += len(take)
            body = sum(take)
            dt = dispatch + body
            w_dispatch[w] += dispatch
            w_body[w] += body
            w_chunks[w] += 1
            if keep_spans:
                chunk_spans.append((w, t, t + dt))
            if faulted:
                chunk_costs.append(body)
            busy += dt
            t += dt
            finish = max(finish, t)
            heapq.heappush(heap, (t, w))
        # all workers then run their postamble; the finishing worker's
        # split defines the critical-path breakdown
        last_t, last_w = max(heap)
        finish = max(finish, last_t) + postamble
        total = startup + finish
        timing = LoopTiming(
            total, busy, p, n_chunks,
            startup_cycles=startup,
            dispatch_cycles=w_dispatch[last_w],
            body_cycles=w_body[last_w],
            pre_post_cycles=preamble + postamble)
        delta = 0.0
        if self.faults is not None:
            if faulted:
                delta = self._fault_delta_selfsched(
                    chunk_costs, p, dispatch, preamble, postamble,
                    startup, total)
            delta += self._helper_startup_delay(level)
            self._apply_fault_delta(timing, delta)
        if timeline is not None:
            worker_end = {w: t for t, w in heap}
            spans = self._spans_simulated(
                p, startup, preamble, postamble, total, dispatch,
                chunk_spans if keep_spans else None,
                w_dispatch, w_body, w_chunks, worker_end)
            if delta > 0.0:
                spans.append(Span(CONTROL_TRACK, "fault", total,
                                  total + delta, busy=False))
            timeline.record(label, level, order, p, timing.total_time,
                            busy, spans)
        return timing

    # ------------------------------------------------------------------
    # fault injection (repro.faults) — timing-only graceful degradation

    def _apply_fault_delta(self, timing: LoopTiming, delta: float) -> None:
        if delta > 0.0:
            timing.fault_cycles += delta
            timing.total_time += delta
            self.faults.note(delta)

    def _helper_startup_delay(self, level: str) -> float:
        """Late helper tasks stall spread/cross loop startup.

        SDOALL/XDOALL loops are started by waking helper tasks through
        global memory (``start_sdoall``/``start_xdoall``); a delayed
        ``mtskstart`` adds the plan's ``helper_delay`` on top of that
        startup.  CDOALL loops start over the concurrency bus and are
        unaffected.
        """
        if level in ("S", "X"):
            return self.faults.plan.helper_delay
        return 0.0

    def _fault_delta_selfsched(self, chunk_costs: list[float], p: int,
                               dispatch: float, preamble: float,
                               postamble: float, startup: float,
                               healthy_total: float) -> float:
        """Extra completion cycles of the self-scheduled deal under faults.

        Re-runs the chunk-queue drain with the plan applied
        (:meth:`FaultPlan.drain`, the loop :meth:`FaultPlan.deal` deals
        the interpreter's iterations from): every chunk is eventually
        dispatched to a live worker, so results stay correct and only
        time degrades.
        """
        plan = self.faults.plan
        _, clocks = plan.drain(chunk_costs, p, dispatch, preamble)
        alive = set(plan.survivors(p))
        # survivors run the postamble; a dead CE's last chunk still has
        # to land (its stores complete) before the loop can exit
        finish = 0.0
        for t, w in clocks:
            finish = max(finish, t + (postamble * plan.speed_factor(w)
                                      if w in alive else 0.0))
        return max(0.0, startup + finish - healthy_total)

    def _fault_delta_doacross(self, trips: int, iter_cost: float,
                              region_cost: float, signal: float,
                              dispatch: float, startup: float,
                              preamble: float, postamble: float, p: int,
                              healthy_total: float) -> tuple[float, int]:
        """Extra DOACROSS cycles under faults, plus lost-signal count.

        The cascade re-forms over the surviving CEs: iterations redeal
        round-robin across ``len(survivors)`` workers, every cycle may be
        stretched by the worst surviving clock factor, and each lost
        await/advance signal (deterministic per-index draw) is re-sent
        exactly once, stalling the cascade by one extra signal cost.
        """
        plan, inj = self.faults.plan, self.faults
        p_live = len(plan.survivors(p))
        f = plan.max_speed_factor(p)
        lost = 0
        for _ in range(trips):
            if plan.sync_lost(inj.sync_index):
                lost += 1
            inj.sync_index += 1
        inj.sync_retries += lost
        resend = lost * signal
        serial_chain = trips * (region_cost * f + signal) + resend
        k = -(-trips // p_live)
        parallel_part = k * ((iter_cost + dispatch) * f + signal) + resend
        degraded = (startup + (preamble + postamble) * f
                    + max(parallel_part, serial_chain))
        return max(0.0, degraded - healthy_total), lost

    # ------------------------------------------------------------------
    # span construction (profiling only — never touches the timing math)

    @staticmethod
    def _span(spans: list[Span], worker: int, category: str, start: float,
              duration: float, busy: bool, count: int = 1) -> float:
        """Append a span if it has extent; returns the new cursor."""
        if duration > 0.0:
            spans.append(Span(worker, category, start, start + duration,
                              busy=busy, count=count))
        return start + duration

    def _spans_homogeneous(self, p: int, chunks: int, chunk: int,
                           last_chunk: int, per: float, dispatch: float,
                           startup: float, preamble: float, postamble: float,
                           total: float, max_chunk_spans: int) -> list[Span]:
        spans: list[Span] = []
        self._span(spans, CONTROL_TRACK, "startup", 0.0, startup, busy=False)
        counts = _round_robin_counts(chunks, p)
        coalesce = chunks > max_chunk_spans
        for w in range(p):
            k_w = counts[w]
            t = self._span(spans, w, "preamble", startup, preamble, busy=True)
            # the globally last (possibly partial) chunk belongs to the
            # last worker holding ceil(chunks/p) chunks
            owns_tail = (w == (chunks - 1) % p)
            body_w = (k_w * chunk - (chunk - last_chunk if owns_tail else 0)) \
                * per if k_w else 0.0
            if coalesce:
                t = self._span(spans, w, "dispatch", t, k_w * dispatch,
                               busy=True, count=k_w)
                t = self._span(spans, w, "chunk", t, body_w, busy=True,
                               count=k_w)
            else:
                for j in range(k_w):
                    size = (last_chunk if owns_tail and j == k_w - 1
                            else chunk)
                    t = self._span(spans, w, "dispatch", t, dispatch,
                                   busy=True)
                    t = self._span(spans, w, "chunk", t, size * per,
                                   busy=True)
            t = self._span(spans, w, "postamble", t, postamble, busy=True)
            self._span(spans, w, "idle", t, total - t, busy=False)
        return spans

    def _spans_doacross(self, p: int, trips: int, iter_cost: float,
                        dispatch: float, signal: float, startup: float,
                        preamble: float, postamble: float, total: float,
                        max_chunk_spans: int) -> list[Span]:
        # iterations round-robin across workers, spread evenly over the
        # window the timing model allots; the slack per iteration is the
        # wait on the incoming cascade signal.  The timing model's
        # busy_time counts iteration bodies and signalling only, so
        # preamble/postamble/dispatch spans are marked not-busy here.
        spans: list[Span] = []
        self._span(spans, CONTROL_TRACK, "startup", 0.0, startup, busy=False)
        counts = _round_robin_counts(trips, p)
        window = max(total - startup - preamble - postamble, 0.0)
        coalesce = trips > max_chunk_spans
        for w in range(p):
            k_w = counts[w]
            t = self._span(spans, w, "preamble", startup, preamble,
                           busy=False)
            if k_w:
                slot = window / k_w
                wait = max(slot - (dispatch + iter_cost + signal), 0.0)
                if coalesce:
                    t = self._span(spans, w, "wait", t, k_w * wait,
                                   busy=False, count=k_w)
                    t = self._span(spans, w, "dispatch", t, k_w * dispatch,
                                   busy=False, count=k_w)
                    t = self._span(spans, w, "chunk", t, k_w * iter_cost,
                                   busy=True, count=k_w)
                    t = self._span(spans, w, "sync", t, k_w * signal,
                                   busy=True, count=k_w)
                else:
                    for _ in range(k_w):
                        t = self._span(spans, w, "wait", t, wait, busy=False)
                        t = self._span(spans, w, "dispatch", t, dispatch,
                                       busy=False)
                        t = self._span(spans, w, "chunk", t, iter_cost,
                                       busy=True)
                        t = self._span(spans, w, "sync", t, signal,
                                       busy=True)
            t = self._span(spans, w, "postamble", t, postamble, busy=False)
            self._span(spans, w, "idle", t, total - t, busy=False)
        return spans

    def _spans_simulated(self, p: int, startup: float, preamble: float,
                         postamble: float, total: float, dispatch: float,
                         chunk_spans, w_dispatch: list[float],
                         w_body: list[float], w_chunks: list[int],
                         worker_end: dict[int, float]) -> list[Span]:
        spans: list[Span] = []
        self._span(spans, CONTROL_TRACK, "startup", 0.0, startup, busy=False)
        for w in range(p):
            self._span(spans, w, "preamble", startup, preamble, busy=True)
        if chunk_spans is not None:
            for w, t0, t1 in chunk_spans:
                self._span(spans, w, "dispatch", startup + t0, dispatch,
                           busy=True)
                self._span(spans, w, "chunk", startup + t0 + dispatch,
                           t1 - t0 - dispatch, busy=True)
        else:
            # coalesced: each worker works continuously from its preamble
            for w in range(p):
                t = startup + preamble
                t = self._span(spans, w, "dispatch", t, w_dispatch[w],
                               busy=True, count=w_chunks[w])
                self._span(spans, w, "chunk", t, w_body[w], busy=True,
                           count=w_chunks[w])
        for w in range(p):
            t = startup + worker_end.get(w, preamble)
            t = self._span(spans, w, "postamble", t, postamble, busy=True)
            self._span(spans, w, "idle", t, total - t, busy=False)
        return spans
