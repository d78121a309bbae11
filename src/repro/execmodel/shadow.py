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
array of the offsets its view covers, expanded only when the loop
closes.  ``close_loop`` then groups the rows by cell and applies
the independence test as Nuriyev states it — disjoint per-step index
sets — on per-cell iteration extremes: a cell written by more than one
iteration (``wmin != wmax``) is a write-write conflict, a cell whose
single writer differs from some reader is a read-write conflict.  Only
cells written under a lock (or belonging to a coarsened array, below)
fall back to comparing access events pairwise, locksets included.  A log
of at most :data:`SMALL_LOG` rows is checked in plain Python, a larger
one with NumPy: the same rule, the same event sets, the same report.

Reads of storage no iteration can write are not logged.  Each log is
opened with the storage keys its loop cannot write
(:meth:`ShadowRecorder.open_loop`'s ``read_only``, worked out by the
interpreter from the loop's syntax and memoised per loop site — a Cedar
library function in an expression only reads its arguments, the
kernels write nothing), and a read row of such a key is dropped; write
rows are always kept.  That is exact: ``close_loop`` builds its cells
from write rows alone, a read whose key has no write row matches no
cell, and a supercell read marks only cells of its own token — so the
conflicts, their order and their iteration pairs are those of the full
log.  A dropped read still registers its storage's token where a logged
one would, so a conflict is reported under the same name and element
subscripts either way.

An access to a scalar of a loop's own worker scope (its index and the
private scalars it declares) is private to that loop and to every loop
around it in the same unit — the scope sits under all their worker
scopes — so the compiled engine's recorder-aware text makes no call at
all for the innermost DOALL's scalars; the tree still asks, and is
answered with nothing.  (Below a CALL the callee's scopes hang off no
worker scope: each iteration that calls it makes fresh ones, whose
scalar rows can never meet another iteration's.)

A loop the compiled engine runs as one whole grid is held open by the
engine itself (:meth:`ShadowRecorder.grid` labels its lanes with their
iterations) and logs through :meth:`ShadowRecorder.record_block`: one
block row per access, the elements every lane touches as a first flat
offset and an offset step, expanded to one ordinary row per (element,
iteration) when the loop closes.  Only loops that cannot conflict are
run that way (see :mod:`repro.execmodel.source_jit`), so the order of
those rows — not the tree's — never reaches a report.

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

#: the most rows — writes and reads, a section counted per element, a
#: block per lane — a log may hold for ``ShadowRecorder._analyze`` to
#: take its plain-Python pass: up to here it beats the NumPy one (≈ 40
#: against ≈ 45 µs at 128 rows on a 2-CPU host; ≈ 14 µs at 32 rows)
SMALL_LOG = 128


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

    __slots__ = ("rows", "sections", "lanes")

    def __init__(self):
        #: (token, offset, iteration, lockset id) quadruples, flattened;
        #: in a grid's log (``lanes`` set) (token, first offset, offset
        #: step, lockset id) block rows instead, one per lane each
        self.rows = array("q")
        #: offset arrays of the section rows, in row order
        self.sections: list[np.ndarray] = []
        #: the iteration of each lane of a grid's log
        #: (:meth:`ShadowRecorder.grid`), else None
        self.lanes: Optional[np.ndarray] = None

    def size(self) -> int:
        """How many rows :meth:`flat` returns."""
        n = len(self.rows) >> 2
        if self.lanes is not None:
            return n * len(self.lanes)
        return n + sum(len(s) - 1 for s in self.sections)

    def flat(self) -> np.ndarray:
        """The log as an ``(n, 4)`` array, one row per element touched
        (section rows repeated once per offset, a block row once per
        lane; order preserved)."""
        rows = np.frombuffer(self.rows, dtype=np.int64).reshape(-1, 4)
        lanes = self.lanes
        if lanes is not None:
            out = np.empty((len(rows), len(lanes), 4), dtype=np.int64)
            out[..., 0] = rows[:, :1]
            out[..., 1] = rows[:, 1:2] + rows[:, 2:3] * np.arange(len(lanes))
            out[..., 2] = lanes
            out[..., 3] = rows[:, 3:]
            return out.reshape(-1, 4)
        if not self.sections:
            return rows
        is_section = rows[:, 1] <= _SECTION0
        counts = np.ones(len(rows), dtype=np.int64)
        counts[is_section] = [len(s) for s in self.sections]
        out = np.repeat(rows, counts, axis=0)
        out[np.repeat(is_section, counts), 1] = np.concatenate(self.sections)
        return out

    def tuples(self) -> list:
        """:meth:`flat` as a list of ``(token, offset, iteration,
        lockset id)`` tuples, built without NumPy for a small log."""
        rows = self.rows
        quads = zip(rows[0::4], rows[1::4], rows[2::4], rows[3::4])
        lanes = self.lanes
        if lanes is not None:
            its = lanes.tolist()
            return [(tok, off + step * k, it, lk)
                    for tok, off, step, lk in quads
                    for k, it in enumerate(its)]
        if not self.sections:
            return list(quads)
        out = []
        for tok, off, it, lk in quads:
            if off <= _SECTION0:
                out += [(tok, o, it, lk)
                        for o in self.sections[_SECTION0 - off].tolist()]
            else:
                out.append((tok, off, it, lk))
        return out


class _LoopCtx:
    """Recording state of one active DOALL loop."""

    __slots__ = ("label", "read_only", "wscope", "cur_iter", "suspended",
                 "private_data", "outside", "writes", "reads")

    def __init__(self, label: str, read_only):
        self.label = label
        #: storage keys no iteration of the loop writes: their reads
        #: are not logged
        self.read_only = read_only
        self.wscope: Optional[Scope] = None
        self.cur_iter: Optional[int] = None
        self.suspended = False
        #: ndarray storage allocated loop-locally (any worker), by id;
        #: holding the arrays keeps those ids unique while the loop is
        #: open and lets them go when it closes
        self.private_data: dict[int, np.ndarray] = {}
        #: scopes known to hold shared scalars — not a worker scope of
        #: the loop nor below one — by id; holding them keeps the ids
        #: unique, and a scope made later can never be their ancestor
        self.outside: dict[int, Scope] = {}
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
        #: cell key stride: above every offset + 1 of every token, so
        #: ``token * _span + offset + 1`` is one integer per cell — a
        #: bound kept as tokens register, as small as it can be (a wider
        #: key range moves ``np.isin`` off its lookup-table method)
        self._span = 2

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
        if arr is not None:
            self._span = max(self._span, arr.data.size + 2)
        return t

    # -- loop lifecycle (called by the interpreter) --------------------

    def _refresh(self) -> None:
        self._active = [c for c in self._ctxs
                        if c.cur_iter is not None and not c.suspended]
        self.recording = bool(self._active)

    def open_loop(self, label: str, n: int,
                  read_only=frozenset()) -> Optional[_LoopCtx]:
        """Count one execution of a DOALL of ``n`` iterations and open
        its log — or, for fewer than two iterations, which cannot
        conflict, return None: the loop runs as it does unrecorded,
        and an enclosing open loop still logs its accesses.

        ``read_only`` holds the storage keys no iteration of the loop
        can write (an array's ``id`` of its data, a scalar's
        ``(id(holding scope), name)``): the log keeps no read of
        them."""
        self.loops_checked += 1
        if n < 2:
            return None
        ctx = _LoopCtx(label, read_only)
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
        started = ctx.cur_iter is not None
        ctx.cur_iter = int(iteration)
        if not started:     # a next iteration leaves the active set as is
            self._refresh()

    def suspend(self, ctx: _LoopCtx) -> None:
        ctx.suspended = True
        if ctx.cur_iter is not None:    # else it was not active anyway
            self._refresh()

    def resume(self, ctx: _LoopCtx) -> None:
        ctx.suspended = False
        if ctx.cur_iter is not None:
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

    def logs_scalar_read(self, holder: Scope, name: str) -> bool:
        """Whether a read of scalar ``name``, held by ``holder``, makes
        :meth:`record_scalar` do anything now: some active loop it is
        not private to keeps the read, or its token is still to be
        registered.  While one statement's own text runs the active
        loops do not change (a nested loop restores them on return),
        so the compiled engine asks once per statement."""
        key = (id(holder), name)
        for ctx in self._active:
            if (key not in ctx.read_only or key not in self._tokens) \
                    and _outside(ctx, holder):
                return True
        return False

    def logs_array_read(self, arr: Optional[FArray]) -> bool:
        """:meth:`logs_scalar_read` for an element read of ``arr``
        (False for None: the access is not the caller's to record)."""
        if arr is None:
            return False
        key = id(arr.data)
        for ctx in self._active:
            if key not in ctx.private_data and (
                    key not in ctx.read_only or key not in self._tokens):
                return True
        return False

    def record_scalar(self, containing: Optional[Scope], name: str,
                      kind: str) -> None:
        """A scalar variable access; ``containing`` is the scope that
        holds the variable (None is treated as global/shared)."""
        holder = containing if containing is not None else self
        for ctx in self._active:
            if containing is not None and not _outside(ctx, containing):
                continue  # loop-local: private by construction
            key = (id(holder), name)
            tok = self._tokens.get(key)
            if tok is None:
                tok = self._token(holder, name, key)
            if kind == "w":
                ctx.writes.rows.extend((tok, 0, ctx.cur_iter, self._lockset))
            elif key not in ctx.read_only:
                ctx.reads.rows.extend((tok, 0, ctx.cur_iter, self._lockset))

    def record_array(self, arr: FArray, name: str, kind: str,
                     idx: Optional[tuple] = None,
                     specs: Optional[list] = None) -> None:
        """An array access: one element (``idx``, Fortran subscripts),
        a section (``specs`` as passed to ``FArray.slice_of``), or the
        whole array (neither)."""
        data = arr.data
        key = id(data)
        tok = off = None
        for ctx in self._active:
            if key in ctx.private_data:
                continue
            if tok is None:     # registered for a read it drops too
                tok = self._tokens.get(key)
                if tok is None:
                    tok = self._token(data, name, key, arr)
            if kind == "r" and key in ctx.read_only:
                continue
            if off is None:     # the first log that keeps the access
                offsets, off = None, _ALL
                if idx is None:
                    offsets = self._section(tok, arr, specs)
                else:
                    off = 0
                    for i, lo, n in zip(idx, arr.lowers, data.shape):
                        j = int(i) - lo
                        if not 0 <= j < n:
                            return  # the access itself raises out-of-bounds
                        off = off * n + j
            log = ctx.writes if kind == "w" else ctx.reads
            if offsets is not None:
                off = _SECTION0 - len(log.sections)
                log.sections.append(offsets)
            log.rows.extend((tok, off, ctx.cur_iter, self._lockset))

    def grid(self, ctx: _LoopCtx, lanes: np.ndarray) -> None:
        """Make ``ctx`` the log of a loop that runs as one whole grid
        rather than iteration by iteration: ``lanes[k]`` is the
        iteration lane ``k`` belongs to, and the log takes
        :meth:`record_block` rows only."""
        ctx.writes.lanes = ctx.reads.lanes = lanes

    def record_block(self, ctx: _LoopCtx, kind: str,
                     storage: "FArray | Scope", name: str,
                     start: int, step: int) -> None:
        """One access of a variable by every lane of ``ctx``'s grid
        (:meth:`grid`): lane ``k`` touches the element at flat C-order
        offset ``start + step * k`` (0 and 0 for a scalar).  ``storage``
        is the array, or the scope holding scalar ``name``.

        The log keeps the block as one row and expands it when the loop
        closes.  The rows go to ``ctx``'s log alone: the caller holds the
        loop open itself — no worker or iteration is begun on it, so it
        has no private storage to set aside — and only does so while no
        enclosing loop is ``recording``."""
        if isinstance(storage, FArray):
            pin, key, arr = storage.data, id(storage.data), storage
        else:
            pin, key, arr = storage, (id(storage), name), None
        tok = self._tokens.get(key)
        if tok is None:
            tok = self._token(pin, name, key, arr)
        if kind == "r":
            if key in ctx.read_only:
                return
            ctx.reads.rows.extend((tok, start, step, self._lockset))
        else:
            ctx.writes.rows.extend((tok, start, step, self._lockset))

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
        """The log's conflicts, in first-write order: a log of at most
        :data:`SMALL_LOG` rows takes a plain-Python pass
        (:meth:`_scan_small`), a larger one the NumPy pass
        (:meth:`_scan`) — the same cells, kinds and iteration pairs."""
        w, r = ctx.writes, ctx.reads
        if not w.rows:
            return []
        if w.size() + r.size() <= SMALL_LOG:
            found = self._scan_small(w.tuples(), r.tuples())
        else:
            found = self._scan(w.flat(), r.flat())
        span = self._span
        return [self._conflict(ctx, divmod(cell, span), kind, pair)
                for _, (cell, kind, pair) in
                sorted(found.items())[:self.max_conflicts_per_loop]]

    def _scan(self, w: np.ndarray, r: np.ndarray) -> dict:
        """First-write position -> ``(cell, kind, iteration pair)`` of
        each conflict of the flat logs ``w`` and ``r``, on per-cell
        iteration extremes with NumPy."""
        if not len(w):          # empty sections only
            return {}
        # one integer per cell: supercells sort first within their token
        span = self._span
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

        # readers of those cells, grouped by cell
        pos = np.searchsorted(cells, rkey)
        pos[pos == len(cells)] = 0
        hit = cells[pos] == rkey
        rmin = np.full(len(cells), _I64.max)
        rmax = np.full(len(cells), _I64.min)
        if hit.any():
            rorder = np.argsort(pos[hit], kind="stable")
            rpos = pos[hit][rorder]
            rit = r[hit, 2][rorder]
            rstarts = np.flatnonzero(np.concatenate(
                ([True], rpos[1:] != rpos[:-1])))
            rmin[rpos[rstarts]] = np.minimum.reduceat(rit, rstarts)
            rmax[rpos[rstarts]] = np.maximum.reduceat(rit, rstarts)

        # the rule for lock-free cells: several writers, or a reader
        # that is not the single writer
        ww = wmin != wmax
        rw = ~ww & ((rmin < wmin) | (rmax > wmax))
        # cells written under a lock (a lock only ever excuses a pair
        # whose write holds it), and arrays with a supercell access,
        # compare events pairwise instead
        hits = ww | rw
        found = {}
        locked = w[:, 3] != 0
        wsuper = w[:, 1] == _ALL
        rsuper = r[:, 1] == _ALL
        if locked.any() or wsuper.any() or rsuper.any():
            slow = np.isin(cells, wkey[locked])
            slow |= np.isin(cells // span, np.concatenate(
                (w[wsuper, 0], r[rsuper, 0])))
            if slow.any():
                cells_, first_ = cells[slow], first[slow]
                wanted = np.concatenate((cells_, (cells_ // span) * span))
                found = self._pairwise(cells_.tolist(), first_.tolist(),
                                       self._events(wkey, w, wanted),
                                       self._events(rkey, r, wanted))
                hits &= ~slow
        hits = np.flatnonzero(hits)
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
        return found

    def _scan_small(self, w: list, r: list) -> dict:
        """:meth:`_scan` of logs given as row tuples, in plain Python:
        the rule is the same, and so is each slow cell's event set,
        built in row order."""
        span = self._span
        cells: dict[int, list] = {}     # cell -> [first, wmin, wmax]
        locked, supers = set(), set()
        for at, (tok, off, it, lk) in enumerate(w):
            key = tok * span + off + 1
            c = cells.get(key)
            if c is None:
                cells[key] = [at, it, it]
            elif it < c[1]:
                c[1] = it
            elif it > c[2]:
                c[2] = it
            if lk:
                locked.add(key)
            if off == _ALL:
                supers.add(tok)
        if not cells:           # empty sections only
            return {}
        reads: dict[int, list] = {}     # written cell -> [rmin, rmax]
        for tok, off, it, _ in r:
            if off == _ALL:
                supers.add(tok)
            key = tok * span + off + 1
            if key in cells:
                c = reads.get(key)
                if c is None:
                    reads[key] = [it, it]
                elif it < c[0]:
                    c[0] = it
                elif it > c[1]:
                    c[1] = it
        found = {}
        slow = []
        for key, (at, wmin, wmax) in cells.items():
            if key in locked or key // span in supers:
                slow.append((key, at))
            elif wmin != wmax:
                found[at] = (key, "write-write", (wmin, wmax))
            else:
                rd = reads.get(key)
                if rd is not None and rd[0] < wmin:
                    found[at] = (key, "read-write", (rd[0], wmin))
                elif rd is not None and rd[1] > wmax:
                    found[at] = (key, "read-write", (wmin, rd[1]))
        if slow:
            wanted = {key for key, _ in slow} \
                | {key // span * span for key, _ in slow}
            found.update(self._pairwise(
                [key for key, _ in slow], [at for _, at in slow],
                self._row_events(w, wanted), self._row_events(r, wanted)))
        return found

    def _pairwise(self, cells: list, first: list, writes: dict,
                  reads: dict) -> dict:
        """Event-by-event check of the given written cells, each at its
        first-write position, against their ``cell -> {(iteration,
        lockset)}`` events: first-write position -> (cell, kind,
        iteration pair) for each conflict."""
        span = self._span
        found = {}
        for cell, at in zip(cells, first):
            sc = cell // span * span     # offset _ALL of its array
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

    def _row_events(self, rows: list, wanted: set) -> dict[int, set]:
        """:meth:`_events` over row tuples."""
        span = self._span
        out: dict[int, set] = {}
        for tok, off, it, lk in rows:
            key = tok * span + off + 1
            if key in wanted:
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


def _outside(ctx: _LoopCtx, scope: Scope) -> bool:
    """Whether ``scope`` is neither ``ctx``'s worker scope nor nested
    below it — the scalars it holds are shared in ``ctx``'s loop.  Such
    a scope is remembered (``ctx.outside``): it is no descendant of any
    worker scope the loop makes later either."""
    if scope is ctx.wscope:
        return False
    if id(scope) in ctx.outside:
        return True
    if _scope_under(scope, ctx.wscope):
        return False
    ctx.outside[id(scope)] = scope
    return True


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
