"""Per-worker (per-CE) timeline spans of simulated parallel loops.

The loop scheduler prices each parallel loop as a miniature discrete
event: workers run a preamble, repeatedly grab chunks (dispatch + body),
wait on DOACROSS signals, idle when the work runs out, and finish with a
postamble.  With a :class:`TimelineRecorder` attached, the scheduler
additionally *materializes* that schedule as :class:`Span`s on per-worker
tracks — which is what the paper's §4.2.4 loop-spreading and §5
data-placement analyses need: idle gaps, cluster load imbalance, and
where on the timeline the memory system hurt.

Invariant (cross-validated against :class:`repro.trace.CycleLedger` by
the tests): for every recorded loop, the sum of busy span durations
equals ``LoopTiming.busy_time`` exactly.  The scheduler marks each span
busy or not (``startup``/``idle``/waiting never are; DOACROSS
preamble/dispatch follow the timing model's own busy accounting).

Loops are laid out sequentially on the recorder's clock in pricing
order, each appearing once — a *representative* execution, not an
unrolled one (a parallel loop nested in a serial DO is priced once with
mid-range bindings, and appears once here too).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: track id used for loop-level (not per-worker) spans
CONTROL_TRACK = -1


@dataclass(frozen=True)
class Span:
    """One contiguous activity of one worker inside one loop.

    ``start``/``end`` are cycles relative to the loop's base time.
    ``busy`` marks whether the duration counts toward the timing model's
    ``busy_time``.  ``count`` > 1 marks a coalesced span standing in for
    that many back-to-back activities of the same category.
    """

    worker: int
    category: str
    start: float
    end: float
    busy: bool = True
    count: int = 1

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        d = {"worker": self.worker, "category": self.category,
             "start": self.start, "end": self.end, "busy": self.busy}
        if self.count != 1:
            d["count"] = self.count
        return d


@dataclass
class LoopRecord:
    """One priced parallel loop: identity, timing, and its spans."""

    label: str              # e.g. "cg:do i@12"
    level: str              # C | S | X
    order: str              # doall | doacross
    workers: int
    base: float             # start on the recorder's sequential clock
    total: float            # LoopTiming.total_time
    busy: float             # LoopTiming.busy_time
    spans: list[Span] = field(default_factory=list)

    # -- derived load metrics ------------------------------------------------

    def worker_busy(self) -> list[float]:
        """Busy cycles per worker track (length ``workers``)."""
        acc = [0.0] * self.workers
        for s in self.spans:
            if s.busy and 0 <= s.worker < self.workers:
                acc[s.worker] += s.duration
        return acc

    def busy_span_sum(self) -> float:
        return sum(s.duration for s in self.spans if s.busy)

    def utilization(self) -> float:
        """Busy fraction of the workers × wall-time area."""
        denom = self.total * self.workers
        return self.busy / denom if denom > 0 else 0.0

    def imbalance(self) -> float:
        """Load-imbalance factor: 1 - mean(worker busy)/max(worker busy).

        0.0 means perfectly balanced; 1 - 1/P means one worker did
        everything.
        """
        per = self.worker_busy()
        top = max(per, default=0.0)
        if top <= 0:
            return 0.0
        return 1.0 - (sum(per) / len(per)) / top

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "level": self.level,
            "order": self.order,
            "workers": self.workers,
            "base": self.base,
            "total_time": self.total,
            "busy_time": self.busy,
            "worker_busy": self.worker_busy(),
            "utilization": self.utilization(),
            "imbalance": self.imbalance(),
            "n_spans": len(self.spans),
            "spans": [s.to_dict() for s in self.spans],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "LoopRecord":
        """Inverse of :meth:`to_dict` (the derived fields are recomputed)."""
        return cls(label=d["label"], level=d["level"], order=d["order"],
                   workers=d["workers"], base=d["base"],
                   total=d["total_time"], busy=d["busy_time"],
                   spans=[Span(**s) for s in d["spans"]])


class TimelineRecorder:
    """Collects :class:`LoopRecord`s on a sequential clock.

    ``max_chunk_spans`` bounds per-loop span counts: the scheduler emits
    individual chunk spans up to that many chunks, and coalesced
    per-worker spans (``count`` > 1) beyond it, keeping traces of
    1000-trip loops loadable while preserving every busy-sum invariant.
    """

    def __init__(self, max_chunk_spans: int = 64):
        self.loops: list[LoopRecord] = []
        self.cursor = 0.0
        self.max_chunk_spans = max_chunk_spans

    def record(self, label: str, level: str, order: str, workers: int,
               total: float, busy: float,
               spans: list[Span]) -> LoopRecord:
        rec = LoopRecord(label=label, level=level, order=order,
                         workers=workers, base=self.cursor, total=total,
                         busy=busy, spans=spans)
        self.loops.append(rec)
        self.cursor += total
        return rec

    def __len__(self) -> int:
        return len(self.loops)

    def __iter__(self):
        return iter(self.loops)

    def total_time(self) -> float:
        return self.cursor
