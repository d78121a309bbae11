"""Dynamic race detection: a shadow-access recorder for the interpreter.

The restructurer's dependence analysis *claims* that the iterations of
every DOALL loop it emits are independent once the privatized scalars,
reduction accumulators and substituted induction variables are set
aside.  This module validates that claim at runtime, the way the paper's
run-time dependence tests do: while the interpreter executes a parallel
loop worker by worker, every read and write of *shared* storage (any
variable not declared loop-local) is logged per iteration, and on loop
exit the log is checked for cross-iteration conflicts — two different
iterations touching the same scalar cell or the same array element with
at least one write.

A loop execution of fewer than two iterations is counted but opens no
log (:meth:`ShadowRecorder.open_loop` returns None).  That is exact, not
a sampling: every access it logs belongs to its one iteration — its
preamble and postamble are never logged for it — and a conflict needs
two different iterations, so its log could never report anything.  It
runs as it would with no recorder attached, and any enclosing open loop
still logs its accesses.  Zero- and one-strip DOALLs (strip-mined loops
with n no larger than the strip) are most of them.

Scope rules:

- accesses to loop-local storage (the ``locals_`` a privatization or
  reduction transform declared, and the loop index itself) are private
  and never recorded;
- accesses inside a loop's preamble/postamble are skipped *for that
  loop* — partial-accumulator initialization and the combine step are
  synchronized constructs on the machine — but still recorded for any
  enclosing parallel loop;
- accesses made while a lock is held carry the lock name; two accesses
  that share a lock never conflict (unordered critical sections, §4.1.6);
- ordered (DOACROSS) loops are not checked: their carried dependences
  are covered by await/advance synchronization by construction.

The log is flat.  Each open loop keeps one read log and one write log of
``(cell token, flat C-order offset, iteration, lockset id)`` rows in a
typed array; a section access is *one* row pointing at an ``int64``
array of the offsets its view covers, expanded with NumPy only when the
loop closes.  ``close_loop`` then groups the rows by cell and applies
the independence test as Nuriyev states it — disjoint per-step index
sets — on per-cell iteration extremes: a cell written by more than one
iteration (``wmin != wmax``) is a write-write conflict, a cell whose
single writer differs from some reader is a read-write conflict.  Only
cells written under a lock (or belonging to a coarsened array, below)
fall back to comparing access events pairwise, locksets included.

A loop the compiled engine runs as one whole grid is held open by the
engine itself and logs through :meth:`ShadowRecorder.record_block`: many
rows of the same format per call, one per (element, iteration) it
touched.  Only loops that cannot conflict are run that way (see
:mod:`repro.execmodel.source_jit`), so the order of those rows — not the
tree's — never reaches a report.

A section of more than ``expand_cap`` elements is coarsened to a
whole-array supercell, which conflicts with every element access to the
same array (conservative).  WHERE-masked section writes are recorded for
the full section, another deliberate over-approximation.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.execmodel.values import FArray, Scope

#: offset column of a supercell row: "every element of the array";
#: smaller values index the log's section list (``_SECTION0 - k``)
_ALL = -1
_SECTION0 = -2

_I64 = np.iinfo(np.int64)


@dataclass(frozen=True)
class RaceConflict:
    """One detected cross-iteration conflict in a DOALL loop."""

    loop: str                     # loop identifier, e.g. "do i @ line 12"
    var: str                      # variable (display name at first access)
    element: Optional[tuple]      # Fortran subscripts; None = scalar/whole
    kind: str                     # "write-write" | "read-write"
    iterations: tuple[int, int]   # the two conflicting iteration numbers

    def to_dict(self) -> dict:
        return {
            "loop": self.loop,
            "var": self.var,
            "element": list(self.element) if self.element is not None
            else None,
            "kind": self.kind,
            "iterations": list(self.iterations),
        }

    def describe(self) -> str:
        where = (f"{self.var}({', '.join(map(str, self.element))})"
                 if self.element else self.var)
        i, j = self.iterations
        return (f"{self.loop}: {self.kind} conflict on {where} between "
                f"iterations {i} and {j}")


class _Log:
    """Accesses of one kind in one loop, in program order."""

    __slots__ = ("rows", "sections")

    def __init__(self):
        #: (token, offset, iteration, lockset id) quadruples, flattened
        self.rows = array("q")
        #: offset arrays of the section rows, in row order
        self.sections: list[np.ndarray] = []

    def flat(self) -> np.ndarray:
        """The log as an ``(n, 4)`` array, one row per element touched
        (section rows repeated once per offset, order preserved)."""
        rows = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 4)
        if not self.sections:
            return rows
        is_section = rows[:, 1] <= _SECTION0
        counts = np.ones(len(rows), dtype=np.int64)
        counts[is_section] = [len(s) for s in self.sections]
        out = np.repeat(rows, counts, axis=0)
        out[np.repeat(is_section, counts), 1] = np.concatenate(self.sections)
        return out


class _LoopCtx:
    """Recording state of one active DOALL loop."""

    __slots__ = ("label", "wscope", "cur_iter", "suspended",
                 "private_data", "writes", "reads")

    def __init__(self, label: str):
        self.label = label
        self.wscope: Optional[Scope] = None
        self.cur_iter: Optional[int] = None
        self.suspended = False
        #: ndarray storage allocated loop-locally (any worker), by id;
        #: holding the arrays keeps those ids unique while the loop is
        #: open and lets them go when it closes
        self.private_data: dict[int, np.ndarray] = {}
        self.writes = _Log()
        self.reads = _Log()


class ShadowRecorder:
    """Shared-access recorder threaded through the interpreter.

    Create one, pass it to :class:`repro.execmodel.interp.Interpreter`
    via ``shadow=``, run the program, then read ``conflicts``.
    """

    #: max elements one access record expands to before coarsening
    expand_cap = 4096
    #: max conflicts reported per loop execution (first-write order)
    max_conflicts_per_loop = 64

    def __init__(self):
        self.conflicts: list[RaceConflict] = []
        #: executions of parallel loops seen (doall only), logged or
        #: not: one of fewer than two iterations opens no log, since a
        #: conflict needs two different iterations
        self.loops_checked = 0
        #: True while some open loop is inside an iteration body — the
        #: engines test this before paying for a ``record_*`` call
        self.recording = False
        self._ctxs: list[_LoopCtx] = []
        self._active: list[_LoopCtx] = []
        #: interned locksets; id 0 is "no lock held"
        self._locksets: list[frozenset] = [frozenset()]
        self._lockset_ids: dict[frozenset, int] = {frozenset(): 0}
        self._lockset = 0
        #: strong refs to keyed objects so id() values stay unique
        self._pins: list[Any] = []
        self._tokens: dict[Any, int] = {}
        self._names: list[str] = []
        #: per token: None for a scalar, else the shape and lower bounds
        #: the array's elements are reported with
        self._dims: list[Optional[tuple[tuple, tuple]]] = []
        #: token -> ``arange`` index grid of a sectioned array
        self._grids: dict[int, np.ndarray] = {}

    # -- identity ------------------------------------------------------

    def _token(self, obj: Any, name: str, key: Any,
               arr: Optional[FArray] = None) -> int:
        """Small stable token for a storage object (scope or ndarray).

        Scalars pass ``key=(id(scope), name)``: the storage object is
        their *containing scope*, which holds many variables, so the
        cell key must include the name or every scalar in a scope would
        collapse into one cell (conflating, say, a read-only loop bound
        with a lock-protected counter).  Arrays key on the ndarray
        alone: two names aliasing the same storage (argument passing)
        must share a cell.
        """
        t = len(self._pins)
        self._tokens[key] = t
        self._pins.append(obj)
        self._names.append(name)
        self._dims.append(None if arr is None
                          else (arr.data.shape, arr.lowers))
        return t

    # -- loop lifecycle (called by the interpreter) --------------------

    def _refresh(self) -> None:
        self._active = [c for c in self._ctxs
                        if c.cur_iter is not None and not c.suspended]
        self.recording = bool(self._active)

    def open_loop(self, label: str, n: int) -> Optional[_LoopCtx]:
        """Count one execution of a DOALL of ``n`` iterations and open
        its log — or, for fewer than two iterations, which cannot
        conflict, return None: the loop runs as it does unrecorded,
        and an enclosing open loop still logs its accesses."""
        self.loops_checked += 1
        if n < 2:
            return None
        ctx = _LoopCtx(label)
        self._ctxs.append(ctx)
        return ctx

    def begin_worker(self, ctx: _LoopCtx, wscope: Scope) -> None:
        """A worker joined: register its loop-local storage as private."""
        ctx.wscope = wscope
        ctx.cur_iter = None
        for v in wscope.vars.values():
            if isinstance(v, FArray):
                ctx.private_data[id(v.data)] = v.data
        self._refresh()

    def begin_iteration(self, ctx: _LoopCtx, iteration: int) -> None:
        ctx.cur_iter = int(iteration)
        self._refresh()

    def suspend(self, ctx: _LoopCtx) -> None:
        ctx.suspended = True
        self._refresh()

    def resume(self, ctx: _LoopCtx) -> None:
        ctx.suspended = False
        self._refresh()

    def close_loop(self, ctx: Optional[_LoopCtx]) -> None:
        if ctx is None:
            return
        assert self._ctxs and self._ctxs[-1] is ctx
        self._ctxs.pop()
        self._refresh()
        self.conflicts.extend(self._analyze(ctx))

    # -- locks ---------------------------------------------------------

    def _hold(self, locks: frozenset) -> None:
        lk = self._lockset_ids.get(locks)
        if lk is None:
            lk = self._lockset_ids[locks] = len(self._locksets)
            self._locksets.append(locks)
        self._lockset = lk

    def acquire(self, name: str) -> None:
        self._hold(self._locksets[self._lockset] | {name})

    def release(self, name: str) -> None:
        self._hold(self._locksets[self._lockset] - {name})

    # -- access recording (called by the interpreter) ------------------

    def record_scalar(self, containing: Optional[Scope], name: str,
                      kind: str) -> None:
        """A scalar variable access; ``containing`` is the scope that
        holds the variable (None is treated as global/shared)."""
        for ctx in self._active:
            if containing is not None and _scope_under(containing,
                                                       ctx.wscope):
                continue  # loop-local: private by construction
            holder = containing if containing is not None else self
            key = (id(holder), name)
            tok = self._tokens.get(key)
            if tok is None:
                tok = self._token(holder, name, key)
            (ctx.writes if kind == "w" else ctx.reads).rows.extend(
                (tok, 0, ctx.cur_iter, self._lockset))

    def record_array(self, arr: FArray, name: str, kind: str,
                     idx: Optional[tuple] = None,
                     specs: Optional[list] = None) -> None:
        """An array access: one element (``idx``, Fortran subscripts),
        a section (``specs`` as passed to ``FArray.slice_of``), or the
        whole array (neither)."""
        data = arr.data
        key = id(data)
        ctxs = [c for c in self._active if key not in c.private_data]
        if not ctxs:
            return
        tok = self._tokens.get(key)
        if tok is None:
            tok = self._token(data, name, key, arr)
        offsets = None
        if idx is not None:
            off = 0
            for i, lo, n in zip(idx, arr.lowers, data.shape):
                j = int(i) - lo
                if not 0 <= j < n:
                    return  # the access itself raises out-of-bounds
                off = off * n + j
        else:
            offsets = self._section(tok, arr, specs)
            off = _ALL
        for ctx in ctxs:
            log = ctx.writes if kind == "w" else ctx.reads
            if offsets is not None:
                off = _SECTION0 - len(log.sections)
                log.sections.append(offsets)
            log.rows.extend((tok, off, ctx.cur_iter, self._lockset))

    def record_block(self, ctx: _LoopCtx, kind: str,
                     storage: "FArray | Scope", name: str,
                     offsets, iterations) -> None:
        """Many accesses of one variable in one call, for a loop that
        runs as a whole grid rather than iteration by iteration.

        ``storage`` is the array, or the scope holding scalar ``name``;
        ``offsets`` are flat C-order element offsets (0 for a scalar)
        and ``iterations`` the iteration each access belongs to,
        broadcast against each other.  The rows go to ``ctx``'s log
        alone: the caller holds the loop open itself — no worker or
        iteration is begun on it, so it has no private storage to set
        aside — and only does so while no enclosing loop is
        ``recording``."""
        if isinstance(storage, FArray):
            pin, key, arr = storage.data, id(storage.data), storage
        else:
            pin, key, arr = storage, (id(storage), name), None
        tok = self._tokens.get(key)
        if tok is None:
            tok = self._token(pin, name, key, arr)
        rows = np.empty(np.broadcast(offsets, iterations).shape + (4,),
                        dtype=np.int64)
        rows[..., 0] = tok
        rows[..., 1] = offsets
        rows[..., 2] = iterations
        rows[..., 3] = self._lockset
        (ctx.writes if kind == "w" else ctx.reads).rows.frombytes(
            rows.tobytes())

    def _section(self, tok: int, arr: FArray,
                 specs: Optional[list]) -> Optional[np.ndarray]:
        """Flat offsets of the elements a section's view covers, or None
        to coarsen.  Slicing the token's index grid with the very key
        the access slices the data with keeps the two in step."""
        grid = self._grids.get(tok)
        if grid is None:
            grid = self._grids[tok] = np.arange(arr.data.size).reshape(
                arr.data.shape)
        if specs is not None:
            grid = FArray(grid, arr.lowers).slice_of(specs)
        if grid.size > self.expand_cap:
            return None
        return grid.ravel()

    # -- analysis ------------------------------------------------------

    def _analyze(self, ctx: _LoopCtx) -> list[RaceConflict]:
        w = ctx.writes.flat()
        if not len(w):
            return []
        r = ctx.reads.flat()
        # one integer per cell: supercells sort first within their token
        span = int(max(w[:, 1].max(), r[:, 1].max() if len(r) else 0)) + 2
        wkey = w[:, 0] * span + (w[:, 1] + 1)
        rkey = r[:, 0] * span + (r[:, 1] + 1)

        # written cells, each with its writers' iteration extremes and
        # the log position of its first write (the report order)
        order = np.argsort(wkey, kind="stable")
        skey = wkey[order]
        starts = np.flatnonzero(np.concatenate(
            ([True], skey[1:] != skey[:-1])))
        cells = skey[starts]
        first = order[starts]
        wit = w[order, 2]
        wmin = np.minimum.reduceat(wit, starts)
        wmax = np.maximum.reduceat(wit, starts)

        # readers of those cells
        pos = np.searchsorted(cells, rkey)
        pos[pos == len(cells)] = 0
        hit = cells[pos] == rkey
        rmin = np.full(len(cells), _I64.max)
        rmax = np.full(len(cells), _I64.min)
        np.minimum.at(rmin, pos[hit], r[hit, 2])
        np.maximum.at(rmax, pos[hit], r[hit, 2])

        # the rule for lock-free cells: several writers, or a reader
        # that is not the single writer
        ww = wmin != wmax
        rw = ~ww & ((rmin < wmin) | (rmax > wmax))
        # cells written under a lock (a lock only ever excuses a pair
        # whose write holds it), and arrays with a supercell access,
        # compare events pairwise instead
        slow = np.isin(cells, wkey[w[:, 3] != 0])
        slow |= np.isin(cells // span, np.concatenate(
            (w[w[:, 1] == _ALL, 0], r[r[:, 1] == _ALL, 0])))
        found = self._pairwise(cells[slow], first[slow], wkey, w, rkey, r,
                               span) if slow.any() else {}
        hits = np.flatnonzero((ww | rw) & ~slow)
        hits = hits[np.argsort(first[hits])][:self.max_conflicts_per_loop]
        for c in hits.tolist():
            if ww[c]:
                kind, pair = "write-write", (wmin[c], wmax[c])
            elif rmin[c] < wmin[c]:
                kind, pair = "read-write", (rmin[c], wmin[c])
            else:
                kind, pair = "read-write", (wmin[c], rmax[c])
            found[int(first[c])] = (int(cells[c]), kind,
                                    (int(pair[0]), int(pair[1])))
        # first-write order, fast and slow cells interleaved
        return [self._conflict(ctx, divmod(cell, span), kind, pair)
                for _, (cell, kind, pair) in
                sorted(found.items())[:self.max_conflicts_per_loop]]

    def _pairwise(self, cells, first, wkey, w, rkey, r, span) -> dict:
        """Event-by-event check of the given written cells: first-write
        position -> (cell, kind, iteration pair) for each conflict."""
        supercells = (cells // span) * span   # offset _ALL of each array
        wanted = np.concatenate((cells, supercells))
        writes = self._events(wkey, w, wanted)
        reads = self._events(rkey, r, wanted)
        found = {}
        for cell, sc, at in zip(cells.tolist(), supercells.tolist(),
                                first.tolist()):
            writers = writes[cell]
            pair = _conflicting_pair(writers, writers)
            kind = "write-write"
            if pair is None and sc != cell:
                # a supercell access touches every element of the array
                pair = _conflicting_pair(writers, writes.get(sc, ()))
            if pair is None:
                readers = reads.get(cell, set())
                if sc != cell:
                    readers = readers | reads.get(sc, set())
                pair = _conflicting_pair(writers, readers)
                kind = "read-write"
            if pair is not None:
                found[at] = (cell, kind, pair)
        return found

    def _events(self, keys, rows, wanted) -> dict[int, set]:
        """cell -> {(iteration, lockset)} over the rows of the wanted
        cells."""
        pick = np.isin(keys, wanted)
        out: dict[int, set] = {}
        for key, it, lk in zip(keys[pick].tolist(),
                               rows[pick, 2].tolist(),
                               rows[pick, 3].tolist()):
            out.setdefault(key, set()).add((it, self._locksets[lk]))
        return out

    def _conflict(self, ctx: _LoopCtx, cell: tuple[int, int], kind: str,
                  pair: tuple[int, int]) -> RaceConflict:
        tok, off = cell[0], cell[1] - 1
        dims = self._dims[tok]
        element = None
        if dims is not None and off != _ALL:
            element = tuple(int(j) + lo for j, lo in zip(
                np.unravel_index(off, dims[0]), dims[1]))
        return RaceConflict(loop=ctx.label, var=self._names[tok],
                            element=element, kind=kind, iterations=pair)

    def to_dict(self) -> dict:
        return {
            "loops_checked": self.loops_checked,
            "conflicts": [c.to_dict() for c in self.conflicts],
        }


def _scope_under(scope: Scope, wscope: Optional[Scope]) -> bool:
    """True if ``scope`` is ``wscope`` or nested anywhere below it."""
    if wscope is None:
        return False
    s: Optional[Scope] = scope
    while s is not None:
        if s is wscope:
            return True
        s = s.parent
    return False


def _conflicting_pair(a: set, b: set) -> Optional[tuple[int, int]]:
    """First (iter, iter) pair from a×b with different iterations and no
    common lock, or None."""
    for (i, locks_i) in a:
        for (j, locks_j) in b:
            if i == j:
                continue
            if locks_i & locks_j:
                continue  # serialized by a shared critical section
            return (i, j) if i < j else (j, i)
    return None
