"""The content-addressed compilation cache (repro.engine.cache)."""

import numpy as np
import pytest

from repro.engine.cache import (
    CompilationCache,
    content_key,
    options_fingerprint,
)
from repro.restructurer.options import RestructurerOptions

SRC = """
      subroutine axpy(n, a, x, y)
      integer n, i
      real a, x(n), y(n)
      do 10 i = 1, n
         y(i) = y(i) + a * x(i)
   10 continue
      return
      end
"""

SRC2 = SRC.replace("axpy", "axpy2")


class TestContentKey:
    def test_deterministic(self):
        assert content_key("parse", SRC) == content_key("parse", SRC)

    def test_source_sensitive(self):
        assert content_key("parse", SRC) != content_key("parse", SRC2)

    def test_kind_sensitive(self):
        assert content_key("parse", SRC) != content_key("restructure", SRC)

    def test_fingerprint_sensitive(self):
        fp = options_fingerprint(
            RestructurerOptions(loop_interchange=False))
        assert content_key("restructure", SRC) \
            != content_key("restructure", SRC, fp)

    def test_no_concatenation_collisions(self):
        # the parts are length-delimited, not concatenated
        assert content_key("ab", "c") != content_key("a", "bc")


class TestOptionsFingerprint:
    def test_none_equals_defaults(self):
        assert options_fingerprint(None) \
            == options_fingerprint(RestructurerOptions())

    def test_distinguishes_options(self):
        assert options_fingerprint(RestructurerOptions()) \
            != options_fingerprint(
                RestructurerOptions(loop_interchange=False))


class TestMemoryCache:
    def test_parse_memoized_and_shared(self):
        c = CompilationCache()
        a = c.parse(SRC)
        b = c.parse(SRC)
        assert a is b
        assert c.hits == 1 and c.misses == 1

    def test_mutable_parse_returns_fresh_clone(self):
        c = CompilationCache()
        a = c.parse(SRC, mutable=True)
        b = c.parse(SRC, mutable=True)
        assert a is not b
        assert a.units[0] is not b.units[0]

    def test_restructure_pair_shared(self):
        c = CompilationCache()
        pair_a = c.restructure(SRC)
        pair_b = c.restructure(SRC)
        assert pair_a[0] is pair_b[0] and pair_a[1] is pair_b[1]

    def test_restructure_keyed_on_options(self):
        c = CompilationCache()
        a, _ = c.restructure(SRC)
        b, _ = c.restructure(
            SRC, RestructurerOptions(loop_interchange=False))
        assert a is not b

    def test_clear_drops_memory(self):
        c = CompilationCache()
        a = c.parse(SRC)
        c.clear()
        assert c.parse(SRC) is not a


def variant(i: int) -> str:
    return SRC.replace("axpy", f"axpy{i}")


class TestBoundedMemory:
    """The in-memory store is an LRU capped at MEM_ENTRIES_CAP."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        from repro.engine import cache as cache_mod

        monkeypatch.setattr(cache_mod, "MEM_ENTRIES_CAP", 4)

    def test_never_over_cap(self):
        c = CompilationCache()
        for i in range(12):
            c.parse(variant(i))
            assert c.stats()["entries"] <= 4
        assert c.stats()["entries"] == 4

    def test_reused_key_survives_eviction_pressure(self):
        c = CompilationCache()
        kept = c.parse(SRC)
        for i in range(12):
            c.parse(variant(i))
            assert c.parse(SRC) is kept     # the hit moves it to the end
        assert c.misses == 13

    def test_evicted_key_recomputes_to_an_equal_artifact(self):
        c = CompilationCache()
        first = c.parse(SRC)
        cedar, _ = c.restructure(SRC)
        for i in range(4):
            c.parse(variant(i))
        misses = c.misses
        again = c.parse(SRC)
        assert c.misses == misses + 1
        assert again is not first and again == first
        assert c.restructure(SRC)[0] == cedar

    def test_evicted_key_rereads_the_disk_store(self, tmp_path):
        c = CompilationCache(cache_dir=tmp_path)
        first = c.parse(SRC)
        for i in range(4):
            c.parse(variant(i))
        misses, disk_hits = c.misses, c.disk_hits
        again = c.parse(SRC)
        assert c.disk_hits == disk_hits + 1 and c.misses == misses
        assert again is not first and again == first

    def test_threads_never_overfill_or_raise(self):
        import sys
        import threading

        c = CompilationCache()
        trees = {i: c.parse(variant(i), mutable=True) for i in range(9)}
        failures = []

        def worker(w):
            try:
                for n in range(300):
                    i = (w * 5 + n) % 9
                    c.seed_parse(variant(i), trees[i])
                    if c.parse(variant(i)) != trees[i]:
                        failures.append(i)
                    if c.stats()["entries"] > 4:
                        failures.append("over cap")
            except Exception as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(w,))
                       for w in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestSeedParse:
    def test_seeded_tree_is_what_parse_returns(self):
        from repro.fortran.parser import parse_program

        c = CompilationCache()
        sf = parse_program(SRC)
        c.seed_parse(SRC, sf)
        assert c.parse(SRC) is sf
        assert c.hits == 1 and c.misses == 0
        assert c.parse(SRC, mutable=True).units[0] is not sf.units[0]

    def test_seed_never_replaces_a_cached_tree(self):
        from repro.fortran.parser import parse_program

        c = CompilationCache()
        cached = c.parse(SRC)
        c.seed_parse(SRC, parse_program(SRC))
        assert c.parse(SRC) is cached


class TestDiskCache:
    def test_second_instance_hits_disk(self, tmp_path):
        c1 = CompilationCache(cache_dir=tmp_path)
        c1.restructure(SRC)
        assert c1.disk_writes >= 1
        c2 = CompilationCache(cache_dir=tmp_path)
        c2.restructure(SRC)
        assert c2.disk_hits >= 1 and c2.misses == 0

    def test_disk_artifact_is_usable(self, tmp_path):
        from repro.execmodel.interp import Interpreter

        CompilationCache(cache_dir=tmp_path).restructure(SRC)
        cedar, report = CompilationCache(
            cache_dir=tmp_path).restructure(SRC)
        x = np.arange(1.0, 5.0)
        y = np.ones(4)
        out = Interpreter(cedar, processors=2).call(
            "axpy", 4, 2.0, x, y)
        assert np.allclose(out["y"], 1.0 + 2.0 * x)

    def test_torn_disk_entry_recomputes(self, tmp_path):
        c1 = CompilationCache(cache_dir=tmp_path)
        c1.parse(SRC)
        for p in tmp_path.rglob("*.pkl"):
            p.write_bytes(b"not a pickle")
        c2 = CompilationCache(cache_dir=tmp_path)
        sf = c2.parse(SRC)      # must not raise
        assert sf.units and c2.misses == 1

    def test_readonly_dir_degrades_to_memory(self, tmp_path):
        ro = tmp_path / "ro"
        ro.mkdir()
        ro.chmod(0o500)
        try:
            c = CompilationCache(cache_dir=ro)
            a = c.parse(SRC)    # disk write fails silently
            assert c.parse(SRC) is a
        finally:
            ro.chmod(0o700)


class TestDiskIntegrity:
    """On-disk entries carry a SHA-256 payload digest verified on every
    read; a corrupt entry is quarantined and reported, never trusted."""

    def _entry(self, tmp_path):
        [p] = list(tmp_path.rglob("*.pkl"))
        return p

    def test_entry_carries_verifiable_digest(self, tmp_path):
        import hashlib

        CompilationCache(cache_dir=tmp_path).parse(SRC)
        data = self._entry(tmp_path).read_bytes()
        digest, payload = data[:64], data[65:]
        assert data[64:65] == b"\n"
        assert hashlib.sha256(payload).hexdigest().encode() == digest

    def test_flipped_bit_is_quarantined_not_served(self, tmp_path):
        CompilationCache(cache_dir=tmp_path).parse(SRC)
        p = self._entry(tmp_path)
        data = bytearray(p.read_bytes())
        data[-1] ^= 0xFF                  # bit rot in the payload
        p.write_bytes(bytes(data))
        c2 = CompilationCache(cache_dir=tmp_path)
        sf = c2.parse(SRC)                # recomputes, must not raise
        assert sf.units
        st = c2.stats()["by_kind"]["parse"]
        assert st["misses"] == 1 and st["corrupt"] == 1
        # the damaged bytes were moved aside, and the recompute
        # republished a fresh, verifiable entry at the original path
        assert p.with_suffix(".quarantine").exists()
        assert CompilationCache(
            cache_dir=p.parents[1]).parse(SRC).units

    def test_truncated_entry_is_quarantined(self, tmp_path):
        CompilationCache(cache_dir=tmp_path).parse(SRC)
        p = self._entry(tmp_path)
        p.write_bytes(p.read_bytes()[:80])   # torn write
        c2 = CompilationCache(cache_dir=tmp_path)
        assert c2.parse(SRC).units
        assert c2.stats()["by_kind"]["parse"]["corrupt"] == 1
        assert p.with_suffix(".quarantine").exists()

    def test_quarantined_entry_not_retried(self, tmp_path):
        CompilationCache(cache_dir=tmp_path).parse(SRC)
        p = self._entry(tmp_path)
        p.write_bytes(b"garbage")
        CompilationCache(cache_dir=tmp_path).parse(SRC)
        # the rewrite after quarantine publishes a fresh valid entry
        c3 = CompilationCache(cache_dir=tmp_path)
        c3.parse(SRC)
        st = c3.stats()["by_kind"]["parse"]
        assert st["corrupt"] == 0 and st["disk_hits"] == 1

    def test_corruption_counter_in_registry(self, tmp_path):
        CompilationCache(cache_dir=tmp_path).parse(SRC)
        p = self._entry(tmp_path)
        p.write_bytes(b"garbage")
        c2 = CompilationCache(cache_dir=tmp_path)
        c2.parse(SRC)
        snap = c2.metrics.snapshot()
        got = [m["value"] for m in snap["counters"]
               if m["name"] == "repro_cache_corrupt_total"
               and m["labels"]["kind"] == "parse"]
        assert got == [1]

    def test_disk_error_hook_fires_on_io_failure(self, tmp_path):
        # a path whose parent is a regular file fails with an OSError
        # on every open/mkdir — even running as root (unlike chmod)
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        seen = []
        c = CompilationCache(cache_dir=blocker / "cache")
        c.disk_error_hook = seen.append
        a = c.parse(SRC)                  # store fails -> hook fires
        assert c.parse(SRC) is a          # memory path still serves
        assert seen and all(isinstance(e, OSError) for e in seen)

    def test_hook_not_fired_on_plain_miss(self, tmp_path):
        seen = []
        c = CompilationCache(cache_dir=tmp_path)
        c.disk_error_hook = seen.append
        c.parse(SRC)                      # cold miss + clean write
        assert seen == []


class TestPerKindAccounting:
    """stats() breaks hits/misses down per artifact kind, backed by the
    registry counters that also feed the telemetry artifact."""

    def test_stats_by_kind_breakdown(self, tmp_path):
        c = CompilationCache(cache_dir=tmp_path)
        c.parse(SRC)
        c.parse(SRC)
        c.restructure(SRC)
        st = c.stats()
        by = st["by_kind"]
        assert set(by) == {"parse", "restructure", "jit-source"}
        assert by["parse"]["hits"] >= 1 and by["parse"]["misses"] == 1
        assert by["restructure"]["misses"] == 1
        assert by["restructure"]["disk_writes"] >= 1
        assert by["restructure"]["disk_bytes_written"] > 0
        # the aggregate properties are the per-kind sums
        assert st["hits"] == sum(k["hits"] for k in by.values())
        assert st["misses"] == sum(k["misses"] for k in by.values())

    def test_disk_hit_counts_bytes_read(self, tmp_path):
        CompilationCache(cache_dir=tmp_path).parse(SRC)
        c2 = CompilationCache(cache_dir=tmp_path)
        c2.parse(SRC)
        by = c2.stats()["by_kind"]["parse"]
        assert by["disk_hits"] == 1
        assert by["disk_bytes_read"] > 0

    def test_metrics_registry_sees_requests(self):
        c = CompilationCache()
        c.parse(SRC)
        c.parse(SRC)
        snap = c.metrics.snapshot()
        got = {(m["labels"]["kind"], m["labels"]["result"]): m["value"]
               for m in snap["counters"]
               if m["name"] == "repro_cache_requests_total"}
        assert got[("parse", "hit")] == 1
        assert got[("parse", "miss")] == 1


class TestProcessWideConfiguration:
    def test_configure_sets_the_store(self, tmp_path, monkeypatch):
        from repro.engine import cache as mod

        monkeypatch.setattr(mod, "_DEFAULT", None)
        c = mod.configure(cache_dir=str(tmp_path))
        assert mod.get_cache() is c and c.cache_dir == tmp_path
        assert mod.cached_parse(SRC) is mod.cached_parse(SRC)
        assert mod.cache_stats()["hits"] == 1

    def test_default_is_memory_only(self, monkeypatch):
        from repro.engine import cache as mod

        monkeypatch.setattr(mod, "_DEFAULT", None)
        assert mod.get_cache().cache_dir is None


@pytest.mark.parametrize("opts", [None, RestructurerOptions(
    scalar_expansion=False)])
def test_cached_restructure_matches_uncached(opts):
    """Cache hits must be semantically identical to recomputation."""
    from repro.fortran.parser import parse_program
    from repro.restructurer.pipeline import Restructurer

    cache = CompilationCache()
    cached, _ = cache.restructure(SRC, opts)
    cached2, _ = cache.restructure(SRC, opts)   # the hit
    fresh, _ = Restructurer(opts).run(parse_program(SRC))
    assert cached is cached2
    assert str(cached.units[0].name) == str(fresh.units[0].name)
    from repro.execmodel.interp import Interpreter

    x = np.arange(1.0, 7.0)
    args = (6, 3.0, x, np.zeros(6))
    out_c = Interpreter(cached, processors=4).call("axpy", *args)
    out_f = Interpreter(fresh, processors=4).call("axpy", *args)
    assert np.array_equal(out_c["y"], out_f["y"])


class TestJitSourceArtifacts:
    """The jit-source artifact kind: emitted module text, content-keyed
    on the statement dump + codegen fingerprint, digest-verified on
    disk, quarantined and re-emitted when corrupt."""

    DUMP = "Assign(target=x, value=1)"
    FP = "jit1|unit|x:r"

    def _emitter(self, calls, text="OUT = [lambda rt: None]\n"):
        def emit():
            calls.append(1)
            return text
        return emit

    def test_memoized_per_dump_and_fingerprint(self):
        c = CompilationCache()
        calls = []
        a = c.jit_source(self.DUMP, fingerprint=self.FP,
                         emit=self._emitter(calls))
        b = c.jit_source(self.DUMP, fingerprint=self.FP,
                         emit=self._emitter(calls))
        assert a == b and len(calls) == 1
        assert c.stats()["by_kind"]["jit-source"]["hits"] == 1
        # a different fingerprint (other symbol types) re-emits
        c.jit_source(self.DUMP, fingerprint="jit1|unit|x:i",
                     emit=self._emitter(calls))
        assert len(calls) == 2

    def test_disk_round_trip_skips_emitter(self, tmp_path):
        calls = []
        c1 = CompilationCache(cache_dir=tmp_path)
        c1.jit_source(self.DUMP, fingerprint=self.FP,
                      emit=self._emitter(calls))
        assert c1.stats()["by_kind"]["jit-source"]["disk_writes"] == 1
        c2 = CompilationCache(cache_dir=tmp_path)
        text = c2.jit_source(self.DUMP, fingerprint=self.FP,
                             emit=self._emitter(calls))
        assert text == "OUT = [lambda rt: None]\n"
        assert len(calls) == 1          # served from disk, not re-emitted
        assert c2.stats()["by_kind"]["jit-source"]["disk_hits"] == 1

    def test_corrupt_module_quarantined_then_recompiled(self, tmp_path):
        """Bit rot in a stored JIT module must never be served: the
        digest check quarantines the entry and the engine falls back to
        recompilation (a fresh emit), republishing a valid artifact."""
        calls = []
        c1 = CompilationCache(cache_dir=tmp_path)
        c1.jit_source(self.DUMP, fingerprint=self.FP,
                      emit=self._emitter(calls))
        [p] = list(tmp_path.rglob("*.pkl"))
        data = bytearray(p.read_bytes())
        data[-1] ^= 0xFF                     # flip a payload bit
        p.write_bytes(bytes(data))
        c2 = CompilationCache(cache_dir=tmp_path)
        text = c2.jit_source(self.DUMP, fingerprint=self.FP,
                             emit=self._emitter(calls))
        assert text == "OUT = [lambda rt: None]\n"
        assert len(calls) == 2               # recompiled, not served
        st = c2.stats()["by_kind"]["jit-source"]
        assert st["corrupt"] == 1 and st["misses"] == 1
        assert p.with_suffix(".quarantine").exists()
        # the re-emit republished a verifiable entry at the same path
        c3 = CompilationCache(cache_dir=tmp_path)
        c3.jit_source(self.DUMP, fingerprint=self.FP,
                      emit=self._emitter(calls))
        assert len(calls) == 2
        assert c3.stats()["by_kind"]["jit-source"]["disk_hits"] == 1

    def test_wrong_typed_payload_quarantined(self, tmp_path):
        """A digest-valid entry of the wrong type (a stale pickle of a
        non-string) is quarantined, not handed to compile()."""
        c1 = CompilationCache(cache_dir=tmp_path)
        key = content_key("jit-source", self.DUMP, self.FP)
        c1._store(key, 12345, "jit-source")  # poisoned but digest-valid
        calls = []
        c2 = CompilationCache(cache_dir=tmp_path)
        text = c2.jit_source(self.DUMP, fingerprint=self.FP,
                             emit=self._emitter(calls))
        assert text == "OUT = [lambda rt: None]\n"
        assert len(calls) == 1
        assert c2.stats()["by_kind"]["jit-source"]["corrupt"] == 1
        [q] = list(tmp_path.rglob("*.quarantine"))
        assert q.stem == f"{key}"
