"""Performance estimator: prices an AST on a machine configuration.

Walks a (serial or restructured) program unit with concrete integer
bindings for its symbolic sizes, charging every operation, memory access,
vector stream, parallel-loop startup/dispatch, synchronization, library
call and page fault through the :mod:`repro.machine` models.  Results are
cycle counts; experiment harnesses report ratios (speedups), which is what
the paper's tables and figures show.

Placement matters: scalars/arrays are priced per their GLOBAL/CLUSTER
placement (set by the globalization pass, or overridden per experiment),
loop-local data is private (cache-speed).  Global *vector* streams use the
prefetch unit when enabled (Figure 6); aggregate global traffic is capped
by the machine's bandwidth (Figure 8); working sets beyond physical memory
page (Table 1's mprove).

Every estimate also attributes its cycles into a
:class:`repro.trace.CycleLedger` (compute / vector / startup / dispatch /
sync / per-tier memory / prefetch / page faults).  The ledger composes
exactly as the cycle totals do, so the category sums always equal the
aggregate — the estimate itself is unchanged by attribution.  Construct
with a ``timeline`` to profile: the ledgers then also count hardware
events, and the loop scheduler records per-CE spans into the timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.cedar import nodes as C
from repro.cedar.library import CEDAR_LIBRARY
from repro.errors import MachineModelError
from repro.faults.inject import FaultInjector
from repro.faults.plan import FaultPlan
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import INTRINSICS
from repro.fortran.symtab import SymbolTable, shared_symbol_tables
from repro.machine.config import MachineConfig
from repro.machine.memory import AccessProfile, MemorySystem
from repro.machine.paging import PagingModel
from repro.machine.scheduler import LoopScheduler
from repro.machine.sync import SyncModel
from repro.machine.vector import VectorUnit
from repro.trace.ledger import CycleLedger
from repro.trace.timeline import TimelineRecorder

_HEAVY_OPS = {"/", "**"}

#: (cost, traffic profile, cycle attribution) — the walk's return triple
_Costed = "tuple[float, AccessProfile, CycleLedger]"


@dataclass
class PerfResult:
    """Estimated execution of one unit call."""

    cycles: float
    compute_cycles: float
    page_overhead: float
    profile: AccessProfile
    notes: list[str] = field(default_factory=list)
    #: per-category attribution; ``ledger.total() == total`` (within fp
    #: rounding).  A profiled estimate's ledger carries event ``counts``.
    ledger: Optional[CycleLedger] = None

    @property
    def total(self) -> float:
        return self.cycles + self.page_overhead

    def breakdown(self) -> dict:
        """JSON-ready hierarchical cycle attribution (empty if absent)."""
        return self.ledger.to_dict() if self.ledger is not None else {}


@dataclass
class _Ctx:
    """Walk context: value environment and active placement scopes."""

    env: dict[str, float]
    private: frozenset[str] = frozenset()
    level: Optional[str] = None     # innermost parallel level, if any
    depth: int = 0


class PerfEstimator:
    def __init__(self, sf: F.SourceFile, config: MachineConfig,
                 prefetch: bool = True,
                 placements: Mapping[str, str] | None = None,
                 timeline: Optional[TimelineRecorder] = None,
                 faults: Optional[FaultPlan] = None):
        self.sf = sf
        self.cfg = config
        self.units = {u.name: u for u in sf.units}
        # ``sf`` is read-only from here on (estimation never mutates the
        # tree), so every estimator over it shares one set of tables
        self.tables: dict[str, SymbolTable] = shared_symbol_tables(sf)
        # one injector per estimator: the machine models share its
        # deterministic signal stream and injected-fault bookkeeping.
        # An inactive plan injects nothing — estimates stay bit-identical
        # to an estimator constructed without one.
        self.fault_plan = faults
        self.fault_injector = (FaultInjector(faults)
                               if faults is not None and faults.active
                               else None)
        inj = self.fault_injector
        self.memory = MemorySystem(config, faults=inj)
        self.vector = VectorUnit(config)
        self.scheduler = LoopScheduler(config, faults=inj)
        self.sync = SyncModel(config)
        self.paging = PagingModel(config)
        self.prefetch = prefetch
        self.timeline = timeline
        self.placement_override = dict(placements or {})
        # honor the globalization pass's GLOBAL/CLUSTER declarations
        self.declared_placement: dict[str, dict[str, str]] = {}
        for u in sf.units:
            decl: dict[str, str] = {}
            for spec in u.specs:
                if isinstance(spec, C.GlobalDecl):
                    for n in spec.names:
                        decl[n] = "global"
                elif isinstance(spec, C.ClusterDecl):
                    for n in spec.names:
                        decl[n] = "cluster"
            self.declared_placement[u.name] = decl

    def _ledger(self) -> CycleLedger:
        """A fresh ledger; a profiling estimate's also counts events
        (cycles are charged identically, so totals stay bit-identical)."""
        if self.timeline is None:
            return CycleLedger()
        return CycleLedger(counts={})

    # ------------------------------------------------------------------

    def estimate(self, unit_name: str,
                 bindings: Mapping[str, float]) -> PerfResult:
        unit = self.units[unit_name]
        st = self.tables[unit_name]
        env: dict[str, float] = {}
        for sym in st.symbols.values():
            if sym.is_parameter and sym.param_value is not None:
                from repro.analysis.expr import const_value

                v = const_value(sym.param_value)
                if v is not None:
                    env[sym.name] = float(v)
        env.update({k: float(v) for k, v in bindings.items()})

        from repro.telemetry import span

        self._unit_stack = [unit_name]
        ctx = _Ctx(env=env)
        with span("estimate", entry=unit_name):
            cycles, prof, led = self._body(unit.body, ctx, unit_name)
            page = self._paging_overhead(unit_name, env, prof, led)
        return PerfResult(cycles=cycles, compute_cycles=cycles,
                          page_overhead=page, profile=prof, ledger=led)

    # ------------------------------------------------------------------
    # placement

    def _placement(self, name: str, ctx: _Ctx, unit: str) -> str:
        if name in ctx.private:
            return "private"
        if name in self.placement_override:
            return self.placement_override[name]
        declared = self.declared_placement.get(unit, {})
        if name in declared:
            return declared[name]
        st = self.tables.get(unit)
        sym = st.lookup(name) if st else None
        if sym is not None and sym.placement:
            return sym.placement
        return "cluster"   # undeclared serial data lives in cluster memory

    # ------------------------------------------------------------------
    # numeric evaluation over the walk environment

    def _num(self, e: Optional[F.Expr], ctx: _Ctx,
             default: Optional[float] = None) -> Optional[float]:
        if e is None:
            return default
        if isinstance(e, F.IntLit):
            return float(e.value)
        if isinstance(e, F.RealLit):
            return e.value
        if isinstance(e, F.Var):
            return ctx.env.get(e.name, default)
        if isinstance(e, F.UnOp):
            v = self._num(e.operand, ctx, None)
            if v is None:
                return default
            return -v if e.op == "-" else v
        if isinstance(e, F.BinOp):
            l = self._num(e.left, ctx, None)
            r = self._num(e.right, ctx, None)
            if l is None or r is None:
                return default
            try:
                if e.op == "+":
                    return l + r
                if e.op == "-":
                    return l - r
                if e.op == "*":
                    return l * r
                if e.op == "/":
                    return l / r if r else default
                if e.op == "**":
                    return l ** r
            except (OverflowError, ValueError):
                return default
            return default
        if isinstance(e, (F.FuncCall, F.Apply)) and e.name in ("min", "max") \
                and len(e.args) == 2:
            l = self._num(e.args[0], ctx, None)
            r = self._num(e.args[1], ctx, None)
            if l is None or r is None:
                return default
            return min(l, r) if e.name == "min" else max(l, r)
        return default

    def _bool(self, e: F.Expr, ctx: _Ctx) -> Optional[bool]:
        """Evaluate a condition against the bindings, or None."""
        if isinstance(e, F.LogicalLit):
            return e.value
        if isinstance(e, F.UnOp) and e.op == ".not.":
            v = self._bool(e.operand, ctx)
            return None if v is None else not v
        if isinstance(e, F.BinOp):
            if e.op in (".and.", ".or."):
                l, r = self._bool(e.left, ctx), self._bool(e.right, ctx)
                if l is None or r is None:
                    return None
                return (l and r) if e.op == ".and." else (l or r)
            if e.op in (".lt.", ".le.", ".eq.", ".ne.", ".gt.", ".ge."):
                l = self._num(e.left, ctx, None)
                r = self._num(e.right, ctx, None)
                if l is None or r is None:
                    return None
                return {".lt.": l < r, ".le.": l <= r, ".eq.": l == r,
                        ".ne.": l != r, ".gt.": l > r, ".ge.": l >= r}[e.op]
        return None

    def _trips(self, s, ctx: _Ctx) -> float:
        lo = self._num(s.start, ctx, 1.0)
        hi = self._num(s.end, ctx, float(lo) + 99.0)
        step = self._num(s.step, ctx, 1.0) or 1.0
        n = (hi - lo + step) // step if step > 0 else (lo - hi - step) // (-step)
        return max(0.0, float(n))

    # ------------------------------------------------------------------
    # statement costing

    def _body(self, stmts: list[F.Stmt], ctx: _Ctx, unit: str):
        total = 0.0
        prof = AccessProfile()
        led = self._ledger()
        for s in stmts:
            c, p, l = self._stmt(s, ctx, unit)
            total += c
            prof.add(p)
            led.add(l)
        return total, prof, led

    def _stmt(self, s: F.Stmt, ctx: _Ctx, unit: str):
        if isinstance(s, F.Assign):
            return self._assign(s, ctx, unit)
        if isinstance(s, C.ParallelDo):
            return self._parallel_do(s, ctx, unit)
        if isinstance(s, F.DoLoop):
            return self._do_loop(s, ctx, unit)
        if isinstance(s, F.IfBlock):
            # decide the branch when the condition is computable from the
            # bindings (e.g. the run-time dependence test of a two-version
            # loop); otherwise charge the average of the arms
            for cond, body in s.arms:
                verdict = True if cond is None else self._bool(cond, ctx)
                if verdict is None:
                    break
                if verdict:
                    if cond is not None:
                        c0, p0, l0 = self._expr(cond, ctx, unit, None)
                    else:
                        c0, p0, l0 = 0.0, AccessProfile(), self._ledger()
                    c, p, l = self._body(body, ctx, unit)
                    p0.add(p)
                    l0.charge("compute", self.cfg.cost_branch)
                    l0.add(l)
                    return c0 + self.cfg.cost_branch + c, p0, l0
            prof = AccessProfile()
            led = self._ledger()
            total = 0.0
            arm_costs = []
            for cond, body in s.arms:
                if cond is not None:
                    c, p, l = self._expr(cond, ctx, unit, vector_len=None)
                    total += c + self.cfg.cost_branch
                    prof.add(p)
                    led.add(l)
                    led.charge("compute", self.cfg.cost_branch)
                c, p, l = self._body(body, ctx, unit)
                arm_costs.append(c)
                prof.add(p.scaled(1.0 / max(len(s.arms), 1)))
                led.add(l.scaled(1.0 / max(len(s.arms), 1)))
            if arm_costs:
                total += sum(arm_costs) / len(arm_costs)
            return total, prof, led
        if isinstance(s, F.LogicalIf):
            c1, p1, l1 = self._expr(s.cond, ctx, unit, vector_len=None)
            c2, p2, l2 = self._stmt(s.stmt, ctx, unit)
            p1.add(p2.scaled(0.5))
            l1.charge("compute", self.cfg.cost_branch)
            l1.add(l2.scaled(0.5))
            return c1 + self.cfg.cost_branch + 0.5 * c2, p1, l1
        if isinstance(s, C.WhereStmt):
            return self._where(s, ctx, unit)
        if isinstance(s, F.CallStmt):
            return self._call(s, ctx, unit)
        if isinstance(s, C.AwaitStmt):
            return self._fixed(self.cfg.cost_await, "sync")
        if isinstance(s, C.AdvanceStmt):
            return self._fixed(self.cfg.cost_advance, "sync")
        if isinstance(s, (C.LockStmt,)):
            return self._fixed(self.cfg.cost_lock, "sync")
        if isinstance(s, (C.UnlockStmt,)):
            return self._fixed(self.cfg.cost_unlock, "sync")
        if isinstance(s, (F.Goto, F.ComputedGoto, F.ContinueStmt,
                          F.ReturnStmt, F.StopStmt)):
            return self._fixed(self.cfg.cost_branch, "compute")
        if isinstance(s, (F.PrintStmt, F.ReadStmt)):
            return self._fixed(100.0, "compute")
        # declarations
        return 0.0, AccessProfile(), self._ledger()

    def _fixed(self, cost: float, category: str):
        led = self._ledger()
        led.charge(category, cost)
        if category == "sync":
            led.count("sync_ops")
        return cost, AccessProfile(), led

    # -- assignment ----------------------------------------------------------

    def _section_len(self, e: F.Expr, ctx: _Ctx) -> Optional[float]:
        """Length of the first section found in the expression, if any."""
        for n in e.walk():
            if isinstance(n, F.RangeExpr):
                lo = self._num(n.lo, ctx, 1.0)
                hi = self._num(n.hi, ctx, lo + float(self.cfg.prefetch_block) - 1)
                st = self._num(n.stride, ctx, 1.0) or 1.0
                return max(1.0, (hi - lo + st) // st)
        return None

    def _assign(self, s: F.Assign, ctx: _Ctx, unit: str):
        length = self._section_len(s.target, ctx)
        if length is None:
            length = self._section_len(s.value, ctx)
        cost, prof, led = self._expr(s.value, ctx, unit, vector_len=length)
        c2, p2, l2 = self._store(s.target, ctx, unit, vector_len=length)
        prof.add(p2)
        led.add(l2)
        return cost + c2, prof, led

    def _store(self, t: F.Expr, ctx: _Ctx, unit: str,
               vector_len: Optional[float]):
        prof = AccessProfile()
        led = self._ledger()

        def note_scalar(pl: str) -> None:
            if pl == "global":
                prof.global_elems += 1.0
            elif pl == "cluster":
                prof.cluster_elems += 1.0
            else:
                prof.cache_elems += 1.0

        if isinstance(t, F.Var):
            pl = self._placement(t.name, ctx, unit)
            note_scalar(pl)
            return self.memory.scalar_access(pl, ledger=led), prof, led
        if isinstance(t, (F.ArrayRef, F.Apply)):
            pl = self._placement(t.name, ctx, unit)
            subs = t.subscripts if isinstance(t, F.ArrayRef) else t.args
            sub_cost = 0.0
            for x in subs:
                if not isinstance(x, F.RangeExpr):
                    c, p, l = self._expr(x, ctx, unit, vector_len=None)
                    sub_cost += c * 0.25  # address arithmetic overlaps
                    led.add(l.scaled(0.25))
            if vector_len is not None and any(
                    isinstance(x, F.RangeExpr) for x in subs):
                # stores do not use the (read) prefetch unit
                tmp = self._ledger()
                c, p = self.memory.vector_access(pl, vector_len,
                                                 prefetch=False, ledger=tmp)
                if pl == "global":
                    clamped = min(c, vector_len * 0.55 * self.cfg.lat_global)
                    if c > 0 and clamped != c:
                        tmp = tmp.scaled(clamped / c)
                    c = clamped
                prof.add(p)
                led.add(tmp)
                return sub_cost + c, prof, led
            note_scalar(pl)
            return sub_cost + self.memory.scalar_access(pl, ledger=led), \
                prof, led
        return 0.0, prof, led

    # -- expressions ----------------------------------------------------------

    def _expr(self, e: F.Expr, ctx: _Ctx, unit: str,
              vector_len: Optional[float]):
        prof = AccessProfile()
        led = self._ledger()
        L = vector_len

        def note_scalar(pl: str) -> None:
            if pl == "global":
                prof.global_elems += 1.0
            elif pl == "cluster":
                prof.cluster_elems += 1.0
            else:
                prof.cache_elems += 1.0

        def rec(x: F.Expr, led: CycleLedger) -> float:
            if isinstance(x, (F.IntLit, F.RealLit, F.LogicalLit, F.StrLit)):
                return 0.0
            if isinstance(x, F.Var):
                pl = self._placement(x.name, ctx, unit)
                note_scalar(pl)
                return self.memory.scalar_access(pl, ledger=led)
            if isinstance(x, F.RangeExpr):
                return 0.0
            if isinstance(x, (F.ArrayRef, F.Apply)):
                subs = (x.subscripts if isinstance(x, F.ArrayRef) else x.args)
                pl = self._placement(x.name, ctx, unit)
                cost = 0.0
                for sub in subs:
                    if not isinstance(sub, F.RangeExpr):
                        tmp = self._ledger()
                        cost += rec(sub, tmp) * 0.25
                        led.add(tmp.scaled(0.25))
                if L is not None and any(isinstance(sub, F.RangeExpr)
                                         for sub in subs):
                    c, p = self.memory.vector_access(
                        pl, L, prefetch=self.prefetch, ledger=led)
                    prof.add(p)
                    return cost + c
                note_scalar(pl)
                return cost + self.memory.scalar_access(pl, ledger=led)
            if isinstance(x, F.FuncCall):
                if x.name in CEDAR_LIBRARY:
                    c, p, l = self._library(x.name, x.args, ctx, unit)
                    prof.add(p)
                    led.add(l)
                    return c
                if x.name in self.units:
                    c, p, l = self._user_call(x.name, x.args, ctx, unit)
                    prof.add(p)
                    led.add(l)
                    return c
                arg_cost = sum(rec(a, led) for a in x.args)
                info = INTRINSICS.get(x.name)
                if L is not None:
                    return arg_cost + self.vector.op_cost(
                        L, heavy=(info is not None and
                                  info.cost_class == "heavy"), ledger=led)
                if info is None or info.cost_class == "func":
                    led.charge("compute", self.cfg.cost_func)
                    return arg_cost + self.cfg.cost_func
                if info.cost_class == "heavy":
                    led.charge("compute", self.cfg.cost_div)
                    return arg_cost + self.cfg.cost_div
                led.charge("compute", self.cfg.cost_alu)
                return arg_cost + self.cfg.cost_alu
            if isinstance(x, F.BinOp):
                c = rec(x.left, led) + rec(x.right, led)
                if L is not None:
                    return c + self.vector.op_cost(L, heavy=x.op in _HEAVY_OPS,
                                                   ledger=led)
                if x.op in _HEAVY_OPS:
                    led.charge("compute", self.cfg.cost_div)
                    return c + self.cfg.cost_div
                if x.op == "*":
                    led.charge("compute", self.cfg.cost_mul)
                    return c + self.cfg.cost_mul
                led.charge("compute", self.cfg.cost_alu)
                return c + self.cfg.cost_alu
            if isinstance(x, F.UnOp):
                c = rec(x.operand, led)
                if L is None:
                    led.charge("compute", self.cfg.cost_alu)
                    return c + self.cfg.cost_alu
                v = self.vector.op_cost(L) * 0.25
                led.charge("vector", v)
                return c + v
            raise MachineModelError(f"cannot price {type(x).__name__}")

        return rec(e, led), prof, led

    # -- loops ----------------------------------------------------------------

    def _do_loop(self, s: F.DoLoop, ctx: _Ctx, unit: str):
        trips = self._trips(s, ctx)
        mid_env = dict(ctx.env)
        lo = self._num(s.start, ctx, 1.0)
        mid_env[s.var] = lo + max(trips - 1, 0) / 2.0
        inner = _Ctx(env=mid_env, private=ctx.private, level=ctx.level,
                     depth=ctx.depth)
        body_c, body_p, body_l = self._body(s.body, inner, unit)
        overhead = self.cfg.cost_branch + self.cfg.cost_alu
        led = body_l.scaled(trips)
        led.charge("compute", trips * overhead)
        return trips * (body_c + overhead), body_p.scaled(trips), led

    def _parallel_do(self, s: C.ParallelDo, ctx: _Ctx, unit: str):
        trips = int(self._trips(s, ctx))
        private = set(ctx.private)
        for decl in s.locals_:
            for node in decl.walk():
                if isinstance(node, F.EntityDecl):
                    private.add(node.name)
        private.add(s.var)
        mid_env = dict(ctx.env)
        lo = self._num(s.start, ctx, 1.0)
        mid_env[s.var] = lo + max(trips - 1, 0) / 2.0
        inner = _Ctx(env=mid_env, private=frozenset(private),
                     level=s.level, depth=ctx.depth + 1)

        body_c, body_p, body_l = self._body(s.body, inner, unit)
        pre_c, pre_p, pre_l = self._body(s.preamble, inner, unit)
        post_c, post_p, post_l = self._body(s.postamble, inner, unit)

        level = s.level
        led = self._ledger()
        label = f"{unit}:do {s.var}" + (f"@{s.line}" if s.line else "")
        if s.order == "doacross":
            region = self._sync_region_cost(s, inner, unit)
            timing = self.scheduler.doacross(
                level, trips, body_c, region, pre_c, post_c,
                ledger=led, timeline=self.timeline, label=label)
        else:
            timing = self.scheduler.run(level, trips, body_c, pre_c,
                                        post_c, ledger=led,
                                        timeline=self.timeline, label=label)
        workers = timing.workers
        prof = body_p.scaled(trips)
        prof.add(pre_p.scaled(workers))
        prof.add(post_p.scaled(workers))
        # critical-path attribution: the scheduler charged its overhead;
        # body/preamble/postamble cycles carry the body's category mix
        if body_c > 0:
            led.add(body_l.scaled(timing.body_cycles / body_c))
        elif timing.body_cycles:
            led.charge("compute", timing.body_cycles)
        led.add(pre_l)
        led.add(post_l)

        total = timing.total_time
        # postambles with locks serialize across workers
        if any(isinstance(x, C.LockStmt) for x in s.postamble):
            extra = self.sync.critical_section(post_c, workers) - post_c
            led.charge("sync", extra)
            total += extra
        # a critical section inside the body serializes its region across
        # all iterations: the lock chain is a hard floor on completion time
        region_c = self._lock_region_cost(s.body, inner, unit)
        if region_c > 0:
            lock_chain = trips * (region_c + self.cfg.cost_lock
                                  + self.cfg.cost_unlock)
            if lock_chain > total:
                led.charge("sync", lock_chain - total)
                total = lock_chain

        # global bandwidth saturation across active clusters
        active_clusters = (self.cfg.clusters if level in ("S", "X") else 1)
        factor = self.memory.saturation_factor(
            prof.global_elems, total * 1.0, active_clusters)
        if factor > 1.0:
            led.charge("mem_global", (factor - 1.0) * total)
            led.count("bank_stall_cycles", (factor - 1.0) * total)
        return total * factor, prof, led

    def _lock_region_cost(self, body: list[F.Stmt], ctx: _Ctx,
                          unit: str) -> float:
        """Cost of statements between LOCK and UNLOCK at body top level."""
        inside = False
        cost = 0.0
        for st in body:
            if isinstance(st, C.LockStmt):
                inside = True
                continue
            if isinstance(st, C.UnlockStmt):
                inside = False
                continue
            if inside:
                c, _, _ = self._stmt(st, ctx, unit)
                cost += c
        return cost

    def _sync_region_cost(self, s: C.ParallelDo, ctx: _Ctx,
                          unit: str) -> float:
        inside = False
        cost = 0.0
        for st in s.body:
            if isinstance(st, C.AwaitStmt):
                inside = True
                continue
            if isinstance(st, C.AdvanceStmt):
                inside = False
                continue
            if inside:
                c, _, _ = self._stmt(st, ctx, unit)
                cost += c
        return cost

    def _where(self, s: C.WhereStmt, ctx: _Ctx, unit: str):
        L = self._section_len(s.mask, ctx)
        if L is None:
            for st in s.body + s.elsewhere:
                if isinstance(st, F.Assign):
                    L = self._section_len(st.target, ctx)
                    if L is not None:
                        break
        L = L if L is not None else float(self.cfg.prefetch_block)
        cost, prof, led = self._expr(s.mask, ctx, unit, vector_len=L)
        for st in s.body + s.elsewhere:
            c, p, l = self._stmt(st, ctx, unit)
            cost += c
            prof.add(p)
            led.add(l)
        return cost, prof, led

    # -- calls ------------------------------------------------------------------

    def _call(self, s: F.CallStmt, ctx: _Ctx, unit: str):
        if s.name in CEDAR_LIBRARY:
            return self._library(s.name, s.args, ctx, unit)
        if s.name in ("await",):
            return self._fixed(self.cfg.cost_await, "sync")
        if s.name in ("advance",):
            return self._fixed(self.cfg.cost_advance, "sync")
        if s.name in ("lock",):
            return self._fixed(self.cfg.cost_lock, "sync")
        if s.name in ("unlock",):
            return self._fixed(self.cfg.cost_unlock, "sync")
        if s.name in self.units:
            return self._user_call(s.name, s.args, ctx, unit)
        return self._fixed(self.cfg.cost_func, "compute")

    def _user_call(self, name: str, actuals: list[F.Expr], ctx: _Ctx,
                   unit: str):
        if len(self._unit_stack) > 12 or name in self._unit_stack[-3:]:
            # recursion guard
            return self._fixed(self.cfg.cost_func * 10, "compute")
        callee = self.units[name]
        env: dict[str, float] = {}
        st = self.tables[name]
        for sym in st.symbols.values():
            if sym.is_parameter and sym.param_value is not None:
                from repro.analysis.expr import const_value

                v = const_value(sym.param_value)
                if v is not None:
                    env[sym.name] = float(v)
        for dummy, actual in zip(callee.args, actuals):
            v = self._num(actual, ctx, None)
            if v is not None:
                env[dummy] = v
        arg_cost = 4.0 * len(actuals) + 30.0  # call linkage
        self._unit_stack.append(name)
        try:
            cctx = _Ctx(env=env, private=frozenset(), level=ctx.level,
                        depth=ctx.depth)
            c, p, l = self._body(callee.body, cctx, name)
        finally:
            self._unit_stack.pop()
        l.charge("compute", arg_cost)
        return arg_cost + c, p, l

    def _library(self, name: str, args: list[F.Expr], ctx: _Ctx,
                 unit: str):
        lib = CEDAR_LIBRARY[name]
        # section length of the first array argument
        L = None
        for a in args:
            L = self._section_len(a, ctx)
            if L is not None:
                break
        L = L if L is not None else 100.0
        prof = AccessProfile()
        led = self._ledger()

        if ctx.level is not None:
            # called from inside a parallel loop: the calling processor
            # runs the vectorized kernel locally on its own data
            compute = self.vector.reduction_cost(
                L * lib.serial_ops_per_elem, ledger=led)
            stream_time = 0.0
            for a in args:
                if isinstance(a, (F.ArrayRef, F.Apply, F.Var)):
                    pl = self._placement(a.name, ctx, unit)
                    c, pr = self.memory.vector_access(
                        pl, L, prefetch=self.prefetch, ledger=led)
                    stream_time += c
                    prof.add(pr)
            led.charge("compute", 30.0)
            return 30.0 + compute + stream_time, prof, led

        # whole-machine distributed execution (§3.3 two-step combining)
        p = self.cfg.total_processors
        compute = lib.parallel_ops(int(L), p) * self.cfg.cost_alu
        led.charge("compute", compute)
        stream_time = 0.0
        stream_led = self._ledger()
        for a in args:
            if isinstance(a, (F.ArrayRef, F.Apply, F.Var)):
                pl = self._placement(a.name, ctx, unit)
                tmp = self._ledger()
                c, pr = self.memory.vector_access(pl, L / p,
                                                  prefetch=self.prefetch,
                                                  ledger=tmp)
                if c > stream_time:
                    stream_time, stream_led = c, tmp
                prof.add(pr.scaled(p))
        led.add(stream_led)
        startup = self.cfg.start_xdoall if p > self.cfg.processors_per_cluster \
            else self.cfg.start_cdoall
        led.charge("startup", startup)
        combine = self.sync.reduction_combine("X" if p > 8 else "C",
                                              ledger=led)
        total = startup + compute + stream_time + combine
        factor = self.memory.saturation_factor(prof.global_elems, total,
                                               self.cfg.clusters)
        if factor > 1.0:
            led.charge("mem_global", (factor - 1.0) * total)
            led.count("bank_stall_cycles", (factor - 1.0) * total)
        return total * factor, prof, led

    # ------------------------------------------------------------------
    # paging

    def _paging_overhead(self, unit: str, env: Mapping[str, float],
                         prof: AccessProfile, ledger: CycleLedger) -> float:
        st = self.tables[unit]
        ws = {"global": 0.0, "cluster": 0.0}
        ctx = _Ctx(env=dict(env))
        for sym in st.symbols.values():
            if not sym.is_array:
                continue
            elems = 1.0
            ok = True
            for b in sym.dims:
                lo = self._num(b.lower, ctx, 1.0)
                hi = self._num(b.upper, ctx, None) if b.upper is not None else None
                if hi is None:
                    ok = False
                    break
                elems *= max(hi - lo + 1.0, 0.0)
            if not ok:
                continue
            pl = self._placement(sym.name, ctx, unit)
            key = "global" if pl == "global" else "cluster"
            ws[key] += elems * 8.0
        overhead = 0.0
        for placement, bytes_ in ws.items():
            if bytes_ <= 0:
                continue
            touched = {"global": prof.global_elems,
                       "cluster": prof.cluster_elems + prof.cache_elems}[placement]
            touches = max(touched * 8.0 / bytes_, 1.0)
            overhead += self.paging.fault_overhead(bytes_, placement, touches,
                                                   ledger=ledger)
        return overhead
