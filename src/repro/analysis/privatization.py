"""Scalar and array privatization analysis (paper §3.2 and §4.1.2).

A variable is *privatizable* for a loop when no value flows between
iterations through it: every read in an iteration is preceded, on every
path of that same iteration, by a write.  Privatizing gives each processor
its own copy (placed in cluster memory on Cedar — the performance win of
Figure 7) and removes the loop-carried dependences.

Scalars use the definite-assignment walker of
:mod:`repro.analysis.dataflow`.  Arrays use a *use-covered-by-def* check:
each read's subscripts must match (affine-equal, under identical or
enclosing inner-loop bounds) an earlier unconditional write in the same
iteration.

If the variable is live after the loop, privatization additionally needs a
last-value copy-out; the analysis reports this so the transformation can
emit it (or decline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from repro.analysis.expr import LinearExpr, linearize
from repro.analysis.nest import NestRecord
from repro.analysis.refs import Ref
from repro.fortran import ast_nodes as F
from repro.fortran.symtab import SymbolTable


@dataclass
class PrivatizationResult:
    """Analysis verdict for one variable in one loop."""

    name: str
    privatizable: bool
    is_array: bool = False
    needs_last_value: bool = False
    reason: str = ""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        verdict = "private" if self.privatizable else f"NOT private ({self.reason})"
        return f"<{self.name}: {verdict}>"


def analyze_scalar(loop: "F.DoLoop | NestRecord", name: str,
                   unit: Optional[F.ProgramUnit] = None,
                   symtab: Optional[SymbolTable] = None) -> PrivatizationResult:
    """Decide scalar privatizability of ``name`` in ``loop``."""
    nest = NestRecord.of(loop, unit, symtab)
    if name == nest.loop.var:
        return PrivatizationResult(name, False, reason="loop index")
    usage = nest.usage.of(name)
    if usage.conservative:
        return PrivatizationResult(
            name, False, reason="goto or call involving the variable")
    if not usage.written_anywhere:
        return PrivatizationResult(name, False,
                                   reason="read-only (no privatization needed)")
    if usage.upward_exposed:
        return PrivatizationResult(
            name, False, reason="read before assigned within an iteration")
    return PrivatizationResult(name, True,
                               needs_last_value=nest.live_after(name))


# ---------------------------------------------------------------------------
# array privatization
# ---------------------------------------------------------------------------

def _subscript_key(ref: Ref, params: Mapping[str, int] | None):
    """Affine forms of the subscripts, or None if any is non-affine
    (crossing iterations via the privatization loop index is fine — same
    iteration means same index value — so references through the outer
    index are comparable symbolically)."""
    out = []
    for s in ref.subscripts:
        le = linearize(s, params)
        if le is None:
            return None
        out.append(le)
    return out


def _provable_nonneg(le, positive: frozenset[str] | set[str]) -> bool:
    """Is the affine form provably ≥ 0, assuming each name in ``positive``
    is ≥ 1 (Fortran array extents must be positive for the declaration to
    be valid)?  True when every coefficient is nonnegative, every variable
    is in ``positive``, and const + Σ coeffs ≥ 0."""
    if le.is_constant:
        return le.const >= 0
    total = le.const
    for name, c in le.coeffs:
        if c < 0 or name not in positive:
            return False
        total += c
    return total >= 0


def _write_covers_read(write: Ref, read: Ref,
                       params: Mapping[str, int] | None,
                       positive: frozenset[str] = frozenset()) -> bool:
    """Does ``write`` (earlier, unconditional) cover ``read`` in the same
    iteration of the privatization loop?

    Per-dimension interval containment: each dimension's subscript must be
    affine in **at most one** inner-loop index with unit coefficient (so
    the written region is a dense rectangle), each dimension must use a
    *distinct* index, and the interval the read touches must lie inside
    the interval the write produces.  Symbolic parts that are not inner
    indices must match exactly.
    """
    if len(write.subscripts) != len(read.subscripts):
        return False
    if write.conditional:
        return False
    wk = _subscript_key(write, params)
    rk = _subscript_key(read, params)
    if wk is None or rk is None:
        return False

    w_inner = {li.var: li for li in write.loops[1:]}
    r_inner = {li.var: li for li in read.loops[1:]}

    used_w: set[str] = set()
    for wsub, rsub in zip(wk, rk):
        wvars = [v for v in wsub.variables() if v in w_inner]
        rvars = [v for v in rsub.variables() if v in r_inner]
        if len(wvars) > 1 or len(rvars) > 1:
            return False
        # symbolic residues (e.g. the outer index, array strides) must match
        w_res = wsub
        r_res = rsub
        if wvars:
            if wvars[0] in used_w:
                return False  # same index in two dims: not rectangular
            used_w.add(wvars[0])
            if wsub.coeff(wvars[0]) != 1:
                return False
            w_res = wsub - LinearExpr.variable(wvars[0])
        if rvars:
            if rsub.coeff(rvars[0]) != 1:
                return False
            r_res = rsub - LinearExpr.variable(rvars[0])

        # interval endpoints: residue + loop range (a missing index is a
        # degenerate one-point interval)
        def interval(res, var, loops):
            if var is None:
                return res, res
            li = loops[var]
            lo = linearize(li.start, params)
            hi = linearize(li.end, params)
            if lo is None or hi is None or (li.step is not None):
                return None, None
            return res + lo, res + hi

        w_lo, w_hi = interval(w_res, wvars[0] if wvars else None, w_inner)
        r_lo, r_hi = interval(r_res, rvars[0] if rvars else None, r_inner)
        if w_lo is None or r_lo is None:
            return False
        lo_gap = r_lo - w_lo      # must be ≥ 0
        hi_gap = w_hi - r_hi      # must be ≥ 0
        if not _provable_nonneg(lo_gap, positive) \
                or not _provable_nonneg(hi_gap, positive):
            return False
    return True


def _affine_interval(ref: Ref, params: Mapping[str, int] | None):
    """1-D written/read interval (lo, hi) as LinearExprs, or None.

    The subscript must be affine in at most one inner-loop index with unit
    coefficient; the loop must have unit stride and affine bounds.
    """
    if len(ref.subscripts) != 1:
        return None
    le = linearize(ref.subscripts[0], params)
    if le is None:
        return None
    inner = {li.var: li for li in ref.loops[1:]}
    ivars = [v for v in le.variables() if v in inner]
    if not ivars:
        return le, le
    if len(ivars) > 1 or le.coeff(ivars[0]) != 1:
        return None
    li = inner[ivars[0]]
    if li.step is not None:
        return None
    lo = linearize(li.start, params)
    hi = linearize(li.end, params)
    if lo is None or hi is None:
        return None
    res = le - LinearExpr.variable(ivars[0])
    return res + lo, res + hi


def _union_covers_read(writes: list[Ref], read: Ref,
                       params: Mapping[str, int] | None,
                       positive: frozenset[str] = frozenset()) -> bool:
    """Does the union of several unconditional 1-D writes cover the read?

    Handles the classic boundary+interior pattern (``w(1)``, ``w(m)``, and
    ``w(2:m-1)``): intervals are chained by constant gaps and the read
    interval must sit inside the merged span.
    """
    read_iv = _affine_interval(read, params)
    if read_iv is None:
        return False
    intervals = []
    for wr in writes:
        if wr.conditional:
            continue
        iv = _affine_interval(wr, params)
        if iv is not None:
            intervals.append(iv)
    if not intervals:
        return False

    def const_diff(a, b):
        d = a - b
        return d.const if d.is_constant else None

    # Greedy chaining from the read's lower end: repeatedly absorb any
    # interval that starts within one element of the covered frontier.
    # Comparisons against the evolving frontier keep the symbolic
    # differences constant in the boundary+interior pattern even when the
    # intervals themselves are not mutually comparable.
    # Invariant: cells [r_lo, frontier] are covered by absorbed writes.
    # Absorbing an interval whose lo is within one of the frontier and
    # resetting the frontier to its hi keeps the invariant even when hi
    # "regresses" symbolically (the claim only shrinks), which makes the
    # boundary+interior pattern work for every runtime extent.
    r_lo, r_hi = read_iv
    frontier = r_lo - 1
    remaining = list(intervals)
    progress = True
    while progress:
        if _provable_nonneg(frontier - r_hi, positive):
            return True
        progress = False
        for iv in list(remaining):
            lo, hi = iv
            gap = const_diff(lo, frontier)
            if gap is None or gap > 1:
                continue
            frontier = hi
            remaining.remove(iv)
            progress = True
            break
    return _provable_nonneg(frontier - r_hi, positive)


def _positive_symbols(symtab: Optional[SymbolTable]) -> frozenset[str]:
    """Names provably ≥ 1: variables used as declared array extents."""
    if symtab is None:
        return frozenset()
    out: set[str] = set()
    for sym in symtab.symbols.values():
        for b in sym.dims:
            if b.upper is not None and isinstance(b.upper, F.Var):
                out.add(b.upper.name)
    return frozenset(out)


def analyze_array(loop: "F.DoLoop | NestRecord", name: str,
                  unit: Optional[F.ProgramUnit] = None,
                  symtab: Optional[SymbolTable] = None,
                  params: Mapping[str, int] | None = None) -> PrivatizationResult:
    """Decide array privatizability of ``name`` in ``loop``."""
    nest = NestRecord.of(loop, unit, symtab, params)
    if nest.collector.has_goto:
        return PrivatizationResult(name, False, True, reason="goto in loop")
    refs = nest.by_name.get(name, [])
    if any(r.in_call for r in refs):
        return PrivatizationResult(name, False, True,
                                   reason="passed to a call")
    writes = [(i, r) for i, r in enumerate(refs) if r.is_write]
    if not writes:
        return PrivatizationResult(name, False, True, reason="read-only")

    positive = _positive_symbols(nest.symtab)
    for pos, rd in enumerate(refs):
        if rd.is_write:
            continue
        earlier = [wr for i, wr in writes if i < pos]
        covered = any(_write_covers_read(wr, rd, params, positive)
                      for wr in earlier)
        if not covered:
            covered = _union_covers_read(earlier, rd, params, positive)
        if not covered:
            return PrivatizationResult(
                name, False, True,
                reason="read not covered by an earlier write in the iteration")
    return PrivatizationResult(name, True, True,
                               needs_last_value=nest.live_after(name))


def find_privatizable(loop: "F.DoLoop | NestRecord",
                      unit: Optional[F.ProgramUnit] = None,
                      symtab: Optional[SymbolTable] = None,
                      params: Mapping[str, int] | None = None,
                      arrays: bool = True) -> list[PrivatizationResult]:
    """All privatizable variables of ``loop`` (scalars, optionally arrays);
    ``params`` is the caller's even when ``loop`` is a record."""
    nest = NestRecord.of(loop, unit, symtab, params)
    names_scalar: set[str] = set()
    names_array: set[str] = set()
    inner_vars = nest.inner_vars
    for r in nest.refs:
        if r.name == nest.loop.var or r.name in inner_vars:
            continue
        if r.is_scalar:
            names_scalar.add(r.name)
        else:
            names_array.add(r.name)
    out: list[PrivatizationResult] = []
    for n in sorted(names_scalar - names_array):
        res = analyze_scalar(nest, n)
        if res.privatizable:
            out.append(res)
    if arrays:
        for n in sorted(names_array):
            res = analyze_array(nest, n, params=params)
            if res.privatizable:
                out.append(res)
    # inner loop index variables are trivially private
    for v in sorted(inner_vars):
        out.append(PrivatizationResult(v, True, needs_last_value=False))
    return out
