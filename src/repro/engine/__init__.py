"""repro.engine — the performance layer: compiled execution, caching,
parallel sweeps.

Three pieces, composable and individually optional:

- :mod:`repro.engine.cache` — a content-addressed compilation cache.
  Parsing and restructuring are pure functions of (source text,
  restructurer options, repro version); the cache keys on the SHA-256 of
  exactly that triple and memoizes parse trees and restructured Cedar
  programs in memory, with an optional on-disk store shared across
  processes (``--cache-dir``).  The validate harness's pass bisection
  and the experiments/faults matrices re-run the same front-end work
  per cell; with the cache they pay it once.

- :mod:`repro.execmodel.compiled` — the compiler behind
  ``Interpreter(engine="compiled")``, the one fast engine: statement
  lists are emitted once as Python/NumPy source modules whose text is
  cached here as ``jit-source`` artifacts (whole-grid array code for
  loop nests proven exact, scalar text with dispatch and symbol facts
  resolved for every other statement; a list the emitter declines runs
  on the tree walk), guaranteed numerics-identical to the tree-walking
  interpreter.

- :mod:`repro.engine.parallel` — an order-preserving multiprocessing
  fan-out (``--jobs N``) used by ``repro.experiments``,
  ``repro.validate --all``, and ``repro.faults sweep``.  Results are
  merged in submission order, so parallel runs emit byte-identical JSON
  payloads to serial runs.
"""

from repro._lazy import lazy_exports
from repro.engine.cache import (
    CompilationCache,
    cache_stats,
    cached_parse,
    cached_restructure,
    configure,
    get_cache,
)

# the fan-out is for the sweeps; a library or server-cell caller of the
# cache does not load it
__getattr__, __dir__ = lazy_exports(
    globals(), {"repro.engine.parallel": ("WorkerCrash", "parallel_map")})

__all__ = [
    "CompilationCache",
    "WorkerCrash",
    "cache_stats",
    "cached_parse",
    "cached_restructure",
    "configure",
    "get_cache",
    "parallel_map",
]
