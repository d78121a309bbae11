"""Self-scheduled (microtasked) parallel loop timing (paper §2.2.1).

``LoopScheduler.run`` prices a DOALL whose iterations all cost the same:
each of the P workers repeatedly grabs the next iteration and executes
it, so small trip counts, load imbalance at the tail and dispatch cost
all show up — exactly the effects that make small loops not worth
spreading across clusters (§4.2.4).  It is an O(1) closed form of the
round-robin deal; the event-driven drain of the same queue,
:meth:`repro.faults.plan.FaultPlan.drain`, replays it under injected
faults and is the closed form's reference (property-tested: a healthy
drain agrees to floating-point rounding).  ``LoopScheduler.doacross``
prices a DOACROSS with an explicit synchronized region.

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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

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

    def run(self, level: str, trips: int, iter_cost: float,
            preamble: float = 0.0, postamble: float = 0.0, *,
            ledger: CycleLedger = NULL_LEDGER,
            timeline: Optional[TimelineRecorder] = None,
            label: str = "") -> LoopTiming:
        """Completion time of a self-scheduled DOALL.

        Each of the ``trips`` iterations costs ``iter_cost`` and is one
        dispatch; ``preamble``/``postamble`` run once per worker.
        Scheduler-added overhead (startup/dispatch/sync) is charged into
        ``ledger``; per-worker spans land in ``timeline`` when one is
        given.
        """
        p = min(self.cfg.processors_at(level), max(trips, 1))
        startup = self.cfg.startup(level, "doall")
        dispatch = self.cfg.dispatch(level)

        if trips <= 0:
            # one worker runs the one empty share: its preamble and
            # postamble, as the interpreter's ``_parallel_do`` does
            pre_post = preamble + postamble
            timing = LoopTiming(startup + pre_post, pre_post, p, 0,
                                startup_cycles=startup,
                                pre_post_cycles=pre_post)
            timing.charge_overhead(ledger)
            if timeline is not None:
                timeline.record(
                    label, level, "doall", p, timing.total_time, pre_post,
                    self._spans_homogeneous(
                        p, 0, 0.0, dispatch, startup, preamble, postamble,
                        timing.total_time, timeline.max_chunk_spans))
            return timing

        per = float(iter_cost)
        # workers grab iterations round-robin until the queue is empty;
        # the critical path belongs to a worker with ceil(trips/p) of them
        k = -(-trips // p)
        crit_body = k * per
        busy = trips * per + trips * dispatch + p * (preamble + postamble)
        total = startup + preamble + postamble + k * dispatch + crit_body
        timing = LoopTiming(
            total, busy, p, trips,
            startup_cycles=startup,
            dispatch_cycles=k * dispatch,
            body_cycles=crit_body,
            pre_post_cycles=preamble + postamble)
        delta = 0.0
        if self.faults is not None:
            if self.faults.plan.degrades_workers:
                delta = self._fault_delta_selfsched(
                    [per] * trips, p, dispatch, preamble, postamble,
                    startup, total)
            delta += self._helper_startup_delay(level)
            self._apply_fault_delta(timing, delta)
        timing.charge_overhead(ledger)
        if timeline is not None:
            spans = self._spans_homogeneous(
                p, trips, per, dispatch, startup, preamble, postamble,
                total, max_chunk_spans=timeline.max_chunk_spans)
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

    def _spans_homogeneous(self, p: int, trips: int, per: float,
                           dispatch: float, startup: float, preamble: float,
                           postamble: float, total: float,
                           max_chunk_spans: int) -> list[Span]:
        spans: list[Span] = []
        self._span(spans, CONTROL_TRACK, "startup", 0.0, startup, busy=False)
        counts = _round_robin_counts(trips, p)
        coalesce = trips > max_chunk_spans
        for w in range(p):
            k_w = counts[w]
            t = self._span(spans, w, "preamble", startup, preamble, busy=True)
            if coalesce:
                t = self._span(spans, w, "dispatch", t, k_w * dispatch,
                               busy=True, count=k_w)
                t = self._span(spans, w, "chunk", t, k_w * per, busy=True,
                               count=k_w)
            else:
                for _ in range(k_w):
                    t = self._span(spans, w, "dispatch", t, dispatch,
                                   busy=True)
                    t = self._span(spans, w, "chunk", t, per, busy=True)
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
