"""Content-addressed compilation cache.

Parsing and restructuring are deterministic functions of three inputs:
the Fortran source text, the :class:`RestructurerOptions` in force, and
the repro version.  The cache therefore keys every artifact on

    SHA-256(repro version || artifact kind || options fingerprint || source)

and stores three artifact kinds:

``parse``
    the pristine parse tree.  Consumers that go on to *mutate* the tree
    (the restructurer transforms in place) receive a fresh clone per
    call; read-only consumers (the interpreter, the estimator) may share
    the cached instance.

``restructure``
    the restructured Cedar program plus its :class:`RestructureReport`.
    Both are treated as immutable after construction — every downstream
    consumer (interpreter, estimator, report renderers) only reads them,
    so one cached instance serves all cells of a sweep.

``jit-source``
    the module text the compiled engine emits for one statement list
    (keyed on the list's statement dump and its codegen fingerprint
    rather than on the restructurer options).  It is text, never code
    objects: each process ``compile()``s it again.

The in-memory store is per-process; pass ``cache_dir`` (CLI
``--cache-dir``) for an on-disk pickle store shared across processes —
that is what makes ``--jobs N`` workers and repeated harness invocations
warm-start.  A cold measurement clears the store
(:meth:`CompilationCache.clear`) rather than switching the layer off.

Accounting routes through a :class:`repro.telemetry.MetricsRegistry` —
one code path feeds the ``stats()`` dict (hit/miss/bytes per artifact
kind) and, when ``--telemetry`` is on, the ``repro-metrics/1``
artifact's cache hit rates.  Cache misses additionally open
``parse``/``restructure`` telemetry spans around the recomputation, so
per-stage breakdowns attribute front-end wall-clock.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Optional

from repro._version import __version__
from repro.telemetry import (MetricsRegistry, get_logger, get_registry,
                             span)

_LOG = get_logger("engine.cache")

if TYPE_CHECKING:  # pragma: no cover
    from repro.fortran import ast_nodes as F
    from repro.restructurer.options import RestructurerOptions

#: bump to invalidate every cached artifact regardless of repro version
#: (2: disk entries carry a SHA-256 payload digest, verified on read)
_CACHE_FORMAT = 2

#: the artifact kinds the cache accounts for, in stats order
ARTIFACT_KINDS = ("parse", "restructure", "jit-source")

#: length of the hex digest line heading every on-disk entry
_DIGEST_LEN = 64

#: in-memory entries one process keeps; the least recently used goes
#: first.  Without a bound a long-lived server worker holds every
#: distinct source it was ever sent.  Sized from measured working sets:
#: one pass of the benchmark's ``experiments-sweep`` leaves 140 entries
#: (about 60 reused, 80 used once) and no hit on any sweep reaches
#: further back than 55 entries, so this cap evicts nothing a pass
#: still needs.
MEM_ENTRIES_CAP = 96


def options_fingerprint(options: "RestructurerOptions | None") -> str:
    """A stable, canonical text form of a restructurer configuration.

    ``RestructurerOptions`` is a flat dataclass of primitives, so a
    key-sorted JSON dump is canonical; ``None`` (library default options)
    fingerprints as the default instance, which keeps
    ``restructure(sf)`` and ``restructure(sf, RestructurerOptions())``
    on the same cache line.
    """
    from repro.restructurer.options import RestructurerOptions

    opts = options if options is not None else RestructurerOptions()
    return json.dumps(asdict(opts), sort_keys=True)


def content_key(kind: str, source: str, fingerprint: str = "") -> str:
    """SHA-256 content address of one cacheable artifact."""
    h = hashlib.sha256()
    for part in (f"repro/{__version__}/format{_CACHE_FORMAT}", kind,
                 fingerprint, source):
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


class CompilationCache:
    """In-memory + optional on-disk store of front-end artifacts."""

    def __init__(self, cache_dir: str | os.PathLike | None = None,
                 registry: MetricsRegistry | None = None):
        self.cache_dir = Path(cache_dir) if cache_dir else None
        # least recently used first; locked, so the threads of a
        # library caller can share the process-wide instance
        self._mem: OrderedDict[str, object] = OrderedDict()
        self._mem_lock = threading.Lock()
        #: optional observer of disk-store failures (not plain misses):
        #: the server's store circuit breaker hooks in here so repeated
        #: I/O errors trip it into in-memory mode
        self.disk_error_hook = None
        # one accounting path: every counter lives in a MetricsRegistry
        # (the process-wide telemetry registry for the default cache, a
        # private one for directly constructed instances) — stats()
        # and --telemetry read the same numbers
        self.metrics = registry if registry is not None \
            else MetricsRegistry()
        self._ctr: dict[tuple[str, str], object] = {}
        for kind in ARTIFACT_KINDS:
            for result in ("hit", "miss"):
                self._ctr[kind, result] = self.metrics.counter(
                    "repro_cache_requests_total", kind=kind,
                    result=result)
            for what in ("disk_reads", "disk_writes",
                         "disk_bytes_read", "disk_bytes_written",
                         "corrupt"):
                self._ctr[kind, what] = self.metrics.counter(
                    f"repro_cache_{what}_total", kind=kind)

    # -- the two artifact kinds ----------------------------------------

    def parse(self, source: str, *, mutable: bool = False) -> "F.SourceFile":
        """Parse ``source``, memoized by content.

        ``mutable=True`` returns a fresh clone of the cached tree (the
        restructurer mutates its input); ``mutable=False`` returns the
        shared pristine instance and the caller must not modify it.
        """
        from repro.fortran import ast_nodes as F
        from repro.fortran.parser import parse_program

        key = content_key("parse", source)
        sf = self._load(key, "parse")
        if sf is None:
            with span("parse"):
                sf = parse_program(source)
            self._store(key, sf, "parse")
        if mutable:
            return F.SourceFile([u.clone() for u in sf.units])
        return sf

    def seed_parse(self, source: str, sf: "F.SourceFile") -> None:
        """Adopt ``sf`` as the pristine parse of ``source``.

        For a caller that already parsed ``source`` itself — the linter,
        whose recovering parser takes the strict parser's path on any
        source it reports no error for — so the estimators' ``parse``
        does not parse it a second time.  ``sf`` becomes the shared
        instance: the caller must not modify it afterwards.
        """
        key = content_key("parse", source)
        if self._mem_get(key) is None:
            self._store(key, sf, "parse")

    def restructure(self, source: str,
                    options: "RestructurerOptions | None" = None,
                    ) -> tuple["F.SourceFile", object]:
        """Parse + restructure ``source``, memoized by content.

        Returns the shared ``(cedar program, RestructureReport)`` pair;
        both are immutable by contract — interpret or estimate them, do
        not transform them again.
        """
        from repro.restructurer.pipeline import Restructurer

        key = content_key("restructure", source, options_fingerprint(options))
        pair = self._load(key, "restructure")
        if pair is None:
            sf = self.parse(source, mutable=True)
            with span("restructure"):
                pair = Restructurer(options).run(sf)
            self._store(key, pair, "restructure")
        return pair

    def jit_source(self, source: str, *, fingerprint: str, emit) -> str:
        """Module text for one compiled-engine statement list, memoized.

        ``source`` is the deterministic statement dump, ``fingerprint``
        the codegen-relevant symbol facts plus emitter version, ``emit``
        the zero-argument emitter invoked on a miss.  The stored artifact
        is the emitted module *text* (never code objects), so a corrupt
        or stale on-disk entry quarantines and re-emits like any other
        kind — and the text is re-``compile()``d per process, keeping the
        cache process-portable.
        """
        key = content_key("jit-source", source, fingerprint)
        text = self._load(key, "jit-source")
        if not isinstance(text, str):
            if text is not None:
                # a non-text payload is a corrupt artifact that slipped
                # past the digest (e.g. a stale pickle of another type)
                self._quarantine_value(key, "jit-source")
            with span("jit-emit"):
                text = emit()
            self._store(key, text, "jit-source")
        return text

    def _quarantine_value(self, key: str, kind: str) -> None:
        """Drop a decoded-but-wrong-typed entry from both stores."""
        with self._mem_lock:
            self._mem.pop(key, None)
        self._ctr[kind, "corrupt"].inc()
        _LOG.warning("entry_wrong_type", kind=kind, key=key[:12])
        if self.cache_dir is not None:
            path = self._disk_path(key)
            try:
                os.replace(path, path.with_suffix(".quarantine"))
            except OSError:
                pass

    # -- stats ---------------------------------------------------------

    def _sum(self, what: str) -> int:
        return sum(self._ctr[kind, what].value for kind in ARTIFACT_KINDS)

    @property
    def hits(self) -> int:
        return self._sum("hit")

    @property
    def misses(self) -> int:
        return self._sum("miss")

    @property
    def disk_hits(self) -> int:
        return self._sum("disk_reads")

    @property
    def disk_writes(self) -> int:
        return self._sum("disk_writes")

    def stats(self) -> dict:
        # under the lock: ``_mem_put`` holds cap + 1 entries between its
        # insert and its eviction, which no observer may see
        with self._mem_lock:
            entries = len(self._mem)
        return {
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "entries": entries,
            "by_kind": {
                kind: {
                    "hits": self._ctr[kind, "hit"].value,
                    "misses": self._ctr[kind, "miss"].value,
                    "disk_hits": self._ctr[kind, "disk_reads"].value,
                    "disk_writes": self._ctr[kind, "disk_writes"].value,
                    "disk_bytes_read":
                        self._ctr[kind, "disk_bytes_read"].value,
                    "disk_bytes_written":
                        self._ctr[kind, "disk_bytes_written"].value,
                    "corrupt": self._ctr[kind, "corrupt"].value,
                } for kind in ARTIFACT_KINDS
            },
        }

    def clear(self) -> None:
        """Drop the in-memory store (the disk store is left alone)."""
        with self._mem_lock:
            self._mem.clear()

    def _zero_metrics(self) -> None:
        """Start a fresh accounting epoch (counter objects stay valid)."""
        for ctr in self._ctr.values():
            ctr.value = 0

    # -- storage -------------------------------------------------------

    def _mem_get(self, key: str):
        with self._mem_lock:
            value = self._mem.get(key)
            if value is not None:
                self._mem.move_to_end(key)
            return value

    def _mem_put(self, key: str, value: object) -> None:
        with self._mem_lock:
            self._mem[key] = value
            self._mem.move_to_end(key)
            while len(self._mem) > MEM_ENTRIES_CAP:
                self._mem.popitem(last=False)

    def _load(self, key: str, kind: str):
        hit = self._mem_get(key)
        if hit is not None:
            self._ctr[kind, "hit"].inc()
            return hit
        if self.cache_dir is not None:
            path = self._disk_path(key)
            data = None
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                pass                     # a plain miss, not a failure
            except OSError as exc:
                self._disk_error(exc, kind, key)
            if data is not None:
                value = self._verify(data, kind, key, path)
                if value is not None:
                    self._mem_put(key, value)
                    self._ctr[kind, "hit"].inc()
                    self._ctr[kind, "disk_reads"].inc()
                    self._ctr[kind, "disk_bytes_read"].inc(len(data))
                    _LOG.debug("disk_hit", kind=kind, key=key[:12],
                               bytes=len(data))
                    return value
        self._ctr[kind, "miss"].inc()
        _LOG.debug("miss", kind=kind, key=key[:12])
        return None

    def _verify(self, data: bytes, kind: str, key: str, path: Path):
        """Digest-check and unpickle one disk entry.

        A torn or bit-rotted entry is *quarantined* — renamed aside so
        it is never trusted again — and reported as a miss with a
        warning and a ``repro_cache_corrupt_total`` count, instead of
        either raising or silently serving garbage forever.
        """
        reason = None
        payload = data[_DIGEST_LEN + 1:]
        if len(data) < _DIGEST_LEN + 1 or data[_DIGEST_LEN:_DIGEST_LEN
                                               + 1] != b"\n":
            reason = "missing digest header"
        elif hashlib.sha256(payload).hexdigest().encode() \
                != data[:_DIGEST_LEN]:
            reason = "payload digest mismatch"
        else:
            try:
                return pickle.loads(payload)
            except (pickle.PickleError, EOFError, AttributeError,
                    ImportError, IndexError, ValueError) as exc:
                reason = f"unpicklable payload ({type(exc).__name__})"
        self._ctr[kind, "corrupt"].inc()
        _LOG.warning("disk_entry_corrupt", kind=kind, key=key[:12],
                     reason=reason)
        try:
            os.replace(path, path.with_suffix(".quarantine"))
        except OSError:
            pass                 # unlinkable entry: the digest check
            # above still keeps it from ever being served
        return None

    def _disk_error(self, exc: BaseException, kind: str, key: str) -> None:
        _LOG.warning("disk_store_failed", kind=kind, key=key[:12],
                     error_type=type(exc).__name__)
        hook = self.disk_error_hook
        if hook is not None:
            try:
                hook(exc)
            except Exception:    # an observer must never kill a request
                pass

    def _store(self, key: str, value: object, kind: str) -> None:
        self._mem_put(key, value)
        if self.cache_dir is None:
            return
        path = self._disk_path(key)
        try:
            payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            # content-integrity header: SHA-256 of the payload, verified
            # on every read so a torn or corrupted entry is detectable
            data = hashlib.sha256(payload).hexdigest().encode() \
                + b"\n" + payload
            path.parent.mkdir(parents=True, exist_ok=True)
            # atomic publish: concurrent --jobs workers may race on the
            # same key; each writes a private temp file and renames
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(data)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            self._ctr[kind, "disk_writes"].inc()
            self._ctr[kind, "disk_bytes_written"].inc(len(data))
            _LOG.debug("disk_write", kind=kind, key=key[:12],
                       bytes=len(data))
        except (OSError, pickle.PickleError) as exc:
            # a read-only or full cache dir degrades to memory-only
            self._disk_error(exc, kind, key)

    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.pkl"


# ---------------------------------------------------------------------------
# the process-wide default cache


_DEFAULT: Optional[CompilationCache] = None
_COLLECTOR_REGISTERED = False


def _entries_collector(registry) -> None:
    """Snapshot-time gauge refresh for the process-wide cache."""
    if _DEFAULT is not None:
        registry.gauge("repro_cache_entries").set(len(_DEFAULT._mem))


def get_cache() -> CompilationCache:
    """The process-wide cache (memory-only unless :func:`configure`d)."""
    if _DEFAULT is None:
        configure()
    return _DEFAULT


def configure(cache_dir: str | None = None) -> CompilationCache:
    """(Re)configure the process-wide cache.

    ``cache_dir=None`` keeps the store memory-only.  Harness CLIs call
    this once from ``--cache-dir`` before fanning out work.  The cache
    accounts into the process-wide telemetry registry; each
    ``configure`` starts a fresh accounting epoch.
    """
    global _DEFAULT, _COLLECTOR_REGISTERED
    _DEFAULT = CompilationCache(cache_dir=cache_dir,
                                registry=get_registry())
    _DEFAULT._zero_metrics()
    if not _COLLECTOR_REGISTERED:
        _COLLECTOR_REGISTERED = True
        get_registry().add_collector(_entries_collector)
    return _DEFAULT


def cache_stats() -> dict:
    """Hit/miss statistics of the process-wide cache."""
    return get_cache().stats()


def cached_parse(source: str, *, mutable: bool = False) -> "F.SourceFile":
    """Parse through the process-wide cache."""
    return get_cache().parse(source, mutable=mutable)


def cached_restructure(source: str,
                       options: "RestructurerOptions | None" = None,
                       ) -> tuple["F.SourceFile", object]:
    """Parse + restructure through the process-wide cache."""
    return get_cache().restructure(source, options)
