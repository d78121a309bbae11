"""The central coordinator: loop-nest planning (paper §3.4).

For each outermost loop nest the planner

1. runs the scalar analyses (induction substitution, reduction
   recognition, privatization) to explain away removable dependences;
2. builds the dependence graph and determines which nest levels can run
   in parallel;
3. enumerates candidate execution versions — serial, inner-vector,
   XDOALL (+stripmined vector body), SDOALL/CDOALL nests, CDOACROSS with
   synchronization, optionally behind a run-time dependence test;
4. scores each with the compile-time cost model and materializes the
   cheapest.

"We believe that as the number of alternatives increases, so does the
number of near-optimal ones" — the heuristics here are deliberately
simple, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.analysis.expr import linearize
from repro.analysis.induction import find_induction_variables
from repro.analysis.nest import NestRecord
from repro.analysis.privatization import PrivatizationResult, find_privatizable
from repro.analysis.reductions import Reduction, find_reductions
from repro.analysis.runtime_test import synthesize_runtime_test
from repro.cedar.nodes import (
    AdvanceStmt,
    AwaitStmt,
    LockStmt,
    ParallelDo,
    UnlockStmt,
)
from repro.errors import TransformError
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable
from repro.restructurer.costmodel import CostModel, estimate_body_ops, trip_count
from repro.restructurer.induction_sub import substitute_inductions
from repro.restructurer.names import NamePool
from repro.restructurer.options import RestructurerOptions
from repro.restructurer.privatize import last_value_assign, privatize_for_loop
from repro.restructurer.recurrence import replace_with_library
from repro.restructurer.reduction_xform import transform_reductions
from repro.restructurer.scalar_expansion import plan_expansion
from repro.restructurer.stripmine import stripmine_vectorize, vectorize_inner
from repro.restructurer.sync_region import (
    SyncPlan,
    bracket,
    plan_critical_section,
    plan_doacross,
)
from repro.restructurer.versioning import build_two_version
from repro.trace.events import NULL_SINK, DecisionEvent


@dataclass
class NestPlan:
    """What the planner decided for one loop nest."""

    original: F.DoLoop
    replacement: list[F.Stmt]
    chosen: str                        # label of the winning version
    considered: list[tuple[str, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    #: source line of the DO statement — disambiguates several nests over
    #: the same index variable in one unit
    line: Optional[int] = None
    #: variables whose loop-carried dependences the planner explained
    #: away, and how ("privatized", "reduction", "induction-substituted",
    #: "monotonic-iv") — the claims the runtime race detector validates
    discharged: dict[str, str] = field(default_factory=dict)

    @property
    def loop_id(self) -> str:
        """Human-readable nest identifier, e.g. ``"do i @ line 12"``."""
        where = f" @ line {self.line}" if self.line is not None else ""
        return f"do {self.original.var}{where}"

    @property
    def parallelized(self) -> bool:
        from repro.cedar.nodes import contains_parallelism

        return (contains_parallelism(self.replacement)
                or self.chosen.startswith("library"))

    def to_dict(self) -> dict:
        return {
            "loop": f"do {self.original.var}",
            "line": self.line,
            "chosen": self.chosen,
            "parallelized": self.parallelized,
            "considered": [{"version": v, "predicted_cycles": s}
                           for v, s in self.considered],
            "notes": list(self.notes),
            "discharged": dict(self.discharged),
        }


def _monotonic_arrays(nest: NestRecord, ivs) -> dict[str, str]:
    """Arrays provably written at distinct addresses every iteration.

    An array qualifies for IV ``v`` when *every* reference to it in the
    loop is 1-D with the **identical** affine subscript ``v + c`` — the
    TRFD packed-triangle pattern ``xij(k)``.  Because ``v`` is strictly
    monotonic across iterations, no two iterations touch the same cell,
    so the (non-affine after substitution) dependences on the array can
    be discharged.  Returns {array name: iv name}.
    """
    mono_ivs = {iv.name for iv in ivs if iv.strictly_monotonic}
    if not mono_ivs:
        return {}
    out: dict[str, str] = {}
    for name, refs in nest.by_name.items():
        forms = []
        for r in refs:
            if not r.subscripts:
                continue
            le = linearize(r.subscripts[0]) \
                if len(r.subscripts) == 1 and not r.in_call else None
            used = le.variables() if le is not None else set()
            if len(used) != 1 or not used <= mono_ivs \
                    or abs(le.coeff(*used)) != 1:
                forms = []  # one unexplained reference disqualifies
                break
            forms.append((*used, le.const, le.coeffs))
        if len(set(forms)) == 1:
            out[name] = forms[0][0]
    return out


class LoopPlanner:
    """Plans and materializes one loop nest at a time."""

    def __init__(self, options: RestructurerOptions,
                 unit: F.ProgramUnit, symtab: SymbolTable,
                 params: dict[str, int] | None = None,
                 sink=None):
        self.opt = options
        self.unit = unit
        self.symtab = symtab
        self.params = params or {}
        self.sink = sink if sink is not None else NULL_SINK
        self.pool = NamePool(unit)
        self.cost = CostModel()

    # ------------------------------------------------------------------

    def _emit(self, loop: F.DoLoop, technique: str, action: str,
              reason: str = "", cost: Optional[float] = None) -> None:
        self.sink.emit(DecisionEvent(
            kind="plan", unit=self.unit.name, technique=technique,
            action=action, loop=f"do {loop.var}", line=loop.line,
            reason=reason, predicted_cycles=cost))

    def plan(self, loop: F.DoLoop) -> NestPlan:
        # every analysis below reads this one record; induction
        # substitution, the only step that rewrites ``loop`` in place,
        # invalidates it
        nest = NestRecord(loop, self.unit, self.symtab, self.params)
        notes: list[str] = []
        before: list[F.Stmt] = []
        after: list[F.Stmt] = []
        discharged: dict[str, str] = {}

        # 1. induction variables
        substituted: list[str] = []
        mono_arrays: set[str] = set()
        if self.opt.basic_induction or self.opt.generalized_induction:
            ivs = find_induction_variables(nest, self.params)
            allowed = []
            for iv in ivs:
                if iv.kind == "basic" and self.opt.basic_induction:
                    allowed.append(iv)
                elif iv.kind in ("geometric", "polynomial") \
                        and self.opt.generalized_induction:
                    allowed.append(iv)
            if allowed:
                candidates = _monotonic_arrays(nest, allowed)
                outcome = substitute_inductions(nest, allowed, self.pool)
                before.extend(outcome.before_loop)
                after.extend(outcome.after_loop)
                substituted = outcome.substituted
                mono_arrays = {a for a, iv_name in candidates.items()
                               if iv_name in substituted}
                if substituted:
                    notes.append("induction substitution: "
                                 + ", ".join(substituted))
                    self._emit(loop, "induction-substitution", "applied",
                               reason=", ".join(substituted))
                if mono_arrays:
                    notes.append("monotonic-IV arrays independent: "
                                 + ", ".join(sorted(mono_arrays)))

        # 2. library idiom replacement
        if self.opt.recurrence_recognition:
            lib = replace_with_library(loop)
            if lib is not None:
                notes.append("replaced by Cedar library call")
                self._emit(loop, "library", "accepted",
                           reason="recurrence/idiom matched a Cedar "
                                  "library routine")
                return NestPlan(loop, before + lib + after,
                                chosen="library", notes=notes,
                                line=loop.line, discharged=discharged)

        # 3. reductions
        reductions = self._allowed_reductions(nest)

        # 4. privatization
        priv = find_privatizable(
            nest, params=self.params, arrays=self.opt.array_privatization)
        priv_ok = [p for p in priv if p.privatizable]
        if not self.opt.scalar_privatization:
            priv_ok = [p for p in priv_ok if p.is_array]

        # 5. dependence graph + ignorable variables.  A variable counts as
        # explained only if the privatization transform will actually take
        # it: arrays needing a last value are declined there, and scalars
        # needing one must have a synthesizable final assignment.
        ignorable: set[str] = set()
        for p in priv_ok:
            if p.needs_last_value:
                if p.is_array:
                    continue
                if last_value_assign(nest, p.name) is None:
                    continue
            ignorable.add(p.name)
        graph = nest.graph
        # a "reduction" whose accumulator carries no dependence (e.g. an
        # array element indexed by the parallel loop) needs no transform:
        # treating it as one would privatize/combine whole arrays for
        # nothing
        carried_vars = graph.variables_with_carried(0)
        reductions = [r for r in reductions if r.var in carried_vars]
        ignore = (ignorable
                  | {r.var for r in reductions}
                  | set(substituted)
                  | mono_arrays)
        discharged.update({n: "privatized" for n in ignorable})
        discharged.update({r.var: "reduction" for r in reductions})
        discharged.update({n: "induction-substituted" for n in substituted})
        discharged.update({a: "monotonic-iv" for a in mono_arrays})

        outer_parallel = graph.is_parallel(0, ignore)
        if not outer_parallel:
            blockers = sorted(graph.variables_with_carried(0) - ignore)
            if blockers:
                reason = "loop-carried dependence on " + ", ".join(blockers)
            elif graph.opaque_calls:
                reason = ("calls a routine that is neither an intrinsic nor "
                          "a Cedar library routine")
            else:
                reason = "loop-carried dependence on unanalyzable references"
            self._emit(loop, "xdoall", "rejected", reason=reason)
        inner = self._inner_loop(loop)
        if inner is not None:
            inner = NestRecord(inner, self.unit, self.symtab, self.params)
        inner_parallel = inner is not None and self._inner_is_parallel(inner)

        # 6. enumerate and score
        versions = self._versions(nest, ignore, reductions, priv_ok,
                                  outer_parallel, inner, inner_parallel)
        versions.sort(key=lambda v: v[1])
        considered = [(label, score) for label, score, _ in versions]

        # 7. materialize the winner (fall back down the list on failure);
        # a version that failed has its record already
        failed = set()
        for label, score, builder in versions:
            try:
                stmts = builder()
            except TransformError as exc:
                notes.append(f"version {label} failed: {exc}")
                self._emit(loop, label, "failed", reason=str(exc),
                           cost=score)
                failed.add(label)
                continue
            self._emit(loop, label, "accepted", cost=score)
            for other, oscore in considered:
                if other != label and other not in failed:
                    self._emit(loop, other, "rejected",
                               reason=f"predicted {oscore:.0f} cycles vs "
                                      f"{score:.0f} for {label}",
                               cost=oscore)
            # stamp the source line onto the materialized parallel loops
            # so runtime diagnostics (race reports) can name the nest
            for node in F.stmts_walk(stmts):
                if isinstance(node, ParallelDo) and node.line is None:
                    node.line = loop.line
            return NestPlan(loop, before + stmts + after, chosen=label,
                            considered=considered, notes=notes,
                            line=loop.line, discharged=discharged)
        self._emit(loop, "serial", "accepted",
                   reason="every candidate version failed to materialize")
        return NestPlan(loop, before + [loop] + after, chosen="serial",
                        considered=considered, notes=notes, line=loop.line,
                        discharged=discharged)

    # ------------------------------------------------------------------

    def _allowed_reductions(self, nest: "F.DoLoop | NestRecord"
                            ) -> list[Reduction]:
        if not self.opt.simple_reductions:
            return []
        reds = find_reductions(nest)
        out = []
        for r in reds:
            if r.kind == "array":
                if not self.opt.array_reductions:
                    continue
                sym = self.symtab.lookup(r.var)
                if sym is None or not sym.is_array \
                        or any(b.upper is None for b in sym.dims):
                    continue  # assumed-size: cannot build the private copy
            if len(r.stmts) > 1 and not self.opt.multi_stmt_reductions:
                continue
            out.append(r)
        return out

    def _inner_loop(self, loop: F.DoLoop) -> Optional[F.DoLoop]:
        body = [s for s in loop.body if not isinstance(s, F.ContinueStmt)]
        inners = [s for s in body if isinstance(s, F.DoLoop)]
        if len(inners) == 1:
            return inners[0]
        return None

    def _inner_is_parallel(self, inner: NestRecord) -> bool:
        priv = find_privatizable(inner, params=self.params,
                                 arrays=self.opt.array_privatization)
        ignore = {p.name for p in priv if p.privatizable}
        # reductions are NOT ignorable here: the CDOALL built for the inner
        # loop has no reduction transform, so an accumulator would race
        return inner.graph.is_parallel(0, ignore)

    # ------------------------------------------------------------------

    def _versions(self, nest, ignore, reductions, priv_ok,
                  outer_parallel, inner_nest, inner_parallel):
        """(label, score, builder) candidates, unsorted."""
        loop, graph = nest.loop, nest.graph
        inner = inner_nest.loop if inner_nest is not None else None
        trips = trip_count(loop)
        body_ops = estimate_body_ops(loop.body)
        out: list[tuple[str, float, Callable[[], list[F.Stmt]]]] = []

        out.append(("serial", self.cost.serial(trips, body_ops),
                    lambda: [loop]))

        if inner is not None and inner_parallel and self.opt.stripmining:
            itrips = trip_count(inner)
            ibody = estimate_body_ops(inner.body)
            per_iter = (body_ops - self.cost.serial(itrips, ibody)
                        + self.cost.vectorized(itrips, ibody))
            out.append((
                "inner-vector",
                self.cost.serial(trips, max(per_iter, 1.0)),
                lambda: [self._with_inner_vectorized(loop)],
            ))

        if outer_parallel:
            if self.opt.stripmining:
                out.append((
                    "xdoall-vector",
                    self.cost.parallel("xdoall", trips,
                                       max(0.35 * body_ops, 1.0),
                                       self.cost.total_p),
                    lambda: self._build_xdoall(nest, reductions, priv_ok,
                                               vector=True),
                ))
                # single-cluster mapping: far cheaper startup, 8 procs —
                # wins for small loops (§3.4's DOALL-activation question)
                if self.opt.cluster_mapping:
                    out.append((
                        "cdoall-vector",
                        self.cost.parallel("cdoall", trips,
                                           max(0.35 * body_ops, 1.0),
                                           self.cost.ppc),
                        lambda: self._build_xdoall(nest, reductions, priv_ok,
                                                   vector=True, level="C"),
                    ))
            out.append((
                "xdoall",
                self.cost.parallel("xdoall", trips, body_ops,
                                   self.cost.total_p),
                lambda: self._build_xdoall(nest, reductions, priv_ok,
                                           vector=False),
            ))
            if self.opt.cluster_mapping:
                out.append((
                    "cdoall",
                    self.cost.parallel("cdoall", trips, body_ops,
                                       self.cost.ppc),
                    lambda: self._build_xdoall(nest, reductions, priv_ok,
                                               vector=False, level="C"),
                ))
            if inner is not None and inner_parallel:
                itrips = trip_count(inner)
                ibody = estimate_body_ops(inner.body)
                inner_cost = self.cost.parallel(
                    "cdoall", itrips, max(0.35 * ibody, 1.0), self.cost.ppc)
                rest = max(body_ops - self.cost.serial(itrips, ibody), 0.0)
                out.append((
                    "sdoall-cdoall",
                    self.cost.parallel("sdoall", trips, rest + inner_cost,
                                       self.cost.clusters),
                    lambda: self._build_sdoall_cdoall(loop, inner_nest,
                                                      reductions, priv_ok),
                ))
        else:
            # DOACROSS alternative for carried-but-synchronizable loops
            if self.opt.doacross and not reductions:
                plan = plan_doacross(nest, graph, ignore)
                if plan is not None:
                    score = self.cost.doacross(
                        "cdoacross", trips, body_ops,
                        plan.region_ops, self.cost.ppc)
                    self._emit(loop, "cdoacross", "noted",
                               reason=plan.describe(), cost=score)
                    out.append((
                        "cdoacross", score,
                        lambda p=plan: self._build_bracketed(
                            p, priv_ok,
                            AwaitStmt(point=1, distance=p.distance),
                            AdvanceStmt(point=1), "C", "doacross"),
                    ))
                else:
                    self._emit(loop, "cdoacross", "rejected",
                               reason="carried dependences have no exact "
                                      "positive distance to synchronize on")
            elif not self.opt.doacross:
                self._emit(loop, "cdoacross", "rejected",
                           reason="doacross disabled by options")
            else:
                self._emit(loop, "cdoacross", "rejected",
                           reason="reduction accumulators preclude a "
                                  "synchronized ordered loop")
            # run-time dependence test: two-version loop
            if self.opt.runtime_dependence_test:
                test = synthesize_runtime_test(nest, self.params)
                # the test proves one array independent: any other
                # carried dependence keeps the loop serial
                others = [] if test is None else sorted(
                    graph.variables_with_carried(0) - ignore - {test.array})
                if test is None:
                    self._emit(loop, "runtime-two-version", "rejected",
                               reason="no run-time dependence test "
                                      "synthesizable for the subscripts")
                elif others:
                    self._emit(loop, "runtime-two-version", "rejected",
                               reason=f"the run-time test covers only "
                                      f"{test.array}; loop-carried "
                                      f"dependence on {', '.join(others)}")
                else:
                    par_score = self.cost.parallel(
                        "xdoall", trips, body_ops, self.cost.total_p)
                    out.append((
                        "runtime-two-version",
                        par_score * 1.1 + 10.0,
                        lambda t=test: self._build_two_version(
                            nest, t, reductions, priv_ok),
                    ))
            # unordered critical section (§4.1.6)
            if self.opt.critical_sections:
                cplan = plan_critical_section(nest, graph, ignore)
                if cplan is not None:
                    base = self.cost.parallel("xdoall", trips, body_ops,
                                              self.cost.total_p)
                    serialized = trips * (cplan.region_ops + 60.0)
                    out.append((
                        "critical-xdoall", max(base, serialized) * 1.05,
                        lambda cp=cplan: self._build_bracketed(
                            cp, priv_ok, LockStmt(name="crit"),
                            UnlockStmt(name="crit"), "X", "doall"),
                    ))
                else:
                    self._emit(loop, "critical-xdoall", "rejected",
                               reason="dependences are not confined to an "
                                      "order-insensitive region")
            # inner vectorization may still apply below a serial outer
        return out

    # -- builders ----------------------------------------------------------

    def _with_inner_vectorized(self, loop: F.DoLoop) -> F.Stmt:
        inner = self._inner_loop(loop)
        assert inner is not None
        new_body: list[F.Stmt] = []
        for s in loop.body:
            if s is inner:
                new_body.extend(vectorize_inner(inner))
            else:
                new_body.append(s)
        return F.DoLoop(var=loop.var, start=loop.start, end=loop.end,
                        step=loop.step, body=new_body)

    def _build_xdoall(self, nest: NestRecord, reductions: list[Reduction],
                      priv: list[PrivatizationResult],
                      vector: bool, level: str = "X") -> list[F.Stmt]:
        work = nest.loop.clone()
        # the same reductions, as statements of the clone
        active = {r.var for r in reductions}
        reds = [r for r in self._allowed_reductions(work)
                if r.var in active] if active else []
        red_out = transform_reductions(work, reds, self.pool, self.symtab,
                                       sink=self.sink, unit=self.unit.name)
        priv_out = privatize_for_loop(
            work, priv, self.symtab,
            allow_arrays=self.opt.array_privatization,
            sink=self.sink, unit=self.unit.name)
        if vector:
            if red_out.transformed:
                raise TransformError(
                    "reduction loops are not stripmine-vectorized; the "
                    "partial accumulator stays scalar per processor")
            # analyze scalars on the original loop (still in the unit tree,
            # so liveness queries see the surrounding code)
            plan = plan_expansion(nest, self.pool)
            if not plan.ok:
                raise TransformError(
                    f"scalars block vectorization: {plan.blocked}")
            pdo = stripmine_vectorize(
                work, self.pool, level=level,
                expanded_scalars=plan.mapping, scalar_types=plan.types)
        else:
            # inner library idioms (dot products, sums) still pay off per
            # task: each processor runs the vectorized library kernel on
            # its own iteration's data
            if self.opt.recurrence_recognition:
                self._replace_inner_idioms(work.body)
            # remaining parallel inner loops vectorize per task — the
            # paper's third level ("SDOALL / CDOALL / vector", Figure 9)
            if self.opt.stripmining:
                self._vectorize_inner_loops(work.body)
            pdo = ParallelDo(level=level, order="doall", var=work.var,
                             start=work.start, end=work.end, step=work.step,
                             body=work.body)
            pdo.locals_ = priv_out.locals_
        pdo.locals_ = pdo.locals_ + red_out.locals_
        pdo.preamble = red_out.preamble
        pdo.postamble = red_out.postamble
        return [pdo] + priv_out.after_loop

    def _build_sdoall_cdoall(self, loop: F.DoLoop, inner: NestRecord,
                             reductions: list[Reduction],
                             priv: list[PrivatizationResult]) -> list[F.Stmt]:
        if reductions:
            raise TransformError(
                "reductions are mapped to single-level XDOALL loops")
        # analyze the inner loop while it still sits in the original tree
        inner_priv_results = find_privatizable(
            inner, params=self.params, arrays=self.opt.array_privatization)
        work = loop.clone()
        w_inner = self._inner_loop(work)
        assert w_inner is not None
        priv_out = privatize_for_loop(
            work, priv, self.symtab,
            allow_arrays=self.opt.array_privatization,
            sink=self.sink, unit=self.unit.name)

        # inner loop: CDOALL; with only two parallel levels the paper also
        # stripmines the innermost to generate vector statements
        try:
            cdo = stripmine_vectorize(
                w_inner, self.pool, level="C")
        except TransformError:
            inner_priv = privatize_for_loop(
                w_inner, inner_priv_results,
                self.symtab, allow_arrays=self.opt.array_privatization,
                sink=self.sink, unit=self.unit.name)
            cdo = ParallelDo(level="C", order="doall", var=w_inner.var,
                             start=w_inner.start, end=w_inner.end,
                             step=w_inner.step, locals_=inner_priv.locals_,
                             body=w_inner.body)

        new_body: list[F.Stmt] = []
        for s in work.body:
            if s is w_inner:
                new_body.append(cdo)
            else:
                new_body.append(s)
        sdo = ParallelDo(level="S", order="doall", var=work.var,
                         start=work.start, end=work.end, step=work.step,
                         locals_=priv_out.locals_, body=new_body)
        return [sdo] + priv_out.after_loop

    def _build_bracketed(self, plan: SyncPlan,
                         priv: list[PrivatizationResult], opening: F.Stmt,
                         closing: F.Stmt, level: str, order: str
                         ) -> list[F.Stmt]:
        """A synchronised region's loop: ``opening``/``closing`` around
        the region, the loop's privatized scalars declared local."""
        priv_out = privatize_for_loop(
            plan.loop, priv, self.symtab,
            allow_arrays=self.opt.array_privatization,
            sink=self.sink, unit=self.unit.name)
        pdo = bracket(plan, opening, closing, level, order,
                      locals_=priv_out.locals_)
        return [pdo] + priv_out.after_loop

    def _build_two_version(self, nest: NestRecord, test,
                           reductions, priv) -> list[F.Stmt]:
        parallel = self._build_xdoall(nest, reductions, priv, vector=False)
        serial = [nest.loop.clone()]
        return [build_two_version(test, parallel, serial)]

    def _vectorize_inner_loops(self, stmts: list[F.Stmt]) -> None:
        """Vectorize eligible inner loops in place (full-range sections)."""
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, F.DoLoop):
                nest = NestRecord(s, params=self.params)
                if not nest.inner_loops:
                    priv = {p.name for p in
                            find_privatizable(nest, arrays=False)
                            if p.privatizable and not p.is_array}
                    if nest.graph.is_parallel(0, priv):
                        try:
                            stmts[i:i + 1] = vectorize_inner(s)
                            i += 1
                            continue
                        except TransformError:
                            pass
                self._vectorize_inner_loops(s.body)
            elif isinstance(s, F.IfBlock):
                for _, body in s.arms:
                    self._vectorize_inner_loops(body)
            i += 1

    def _replace_inner_idioms(self, stmts: list[F.Stmt]) -> None:
        """Replace library idioms among nested loops (in place)."""
        i = 0
        while i < len(stmts):
            s = stmts[i]
            if isinstance(s, F.DoLoop):
                rep = replace_with_library(s)
                if rep is not None:
                    stmts[i:i + 1] = rep
                    i += len(rep)
                    continue
                self._replace_inner_idioms(s.body)
            elif isinstance(s, F.IfBlock):
                for _, body in s.arms:
                    self._replace_inner_idioms(body)
            i += 1
