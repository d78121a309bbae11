"""--jobs / --cache-dir across the three sweep CLIs: byte-identical
payloads, shared exit-code convention on parallel failure paths."""

import json

import pytest


def _validate(args, tmp_path, name):
    from repro.validate.__main__ import main

    out = tmp_path / name
    rc = main(["tridag", "--no-bisect", *args, "-o", str(out)])
    return rc, out.read_bytes() if out.exists() else b""


def _faults(args, tmp_path, name):
    from repro.faults.__main__ import main

    out = tmp_path / name
    rc = main(["sweep", "--quick", "--workloads", "tridag",
               "--scenarios", "healthy", "dead-ce", *args,
               "-o", str(out)])
    return rc, out.read_bytes() if out.exists() else b""


class TestByteIdentity:
    def test_validate_serial_parallel_identical(self, tmp_path, capsys):
        rc1, b1 = _validate(["--jobs", "1"], tmp_path, "j1.json")
        rc2, b2 = _validate(["--jobs", "2"], tmp_path, "j2.json")
        assert rc1 == rc2 == 0
        assert b1 == b2

    def test_faults_serial_parallel_identical(self, tmp_path, capsys):
        rc1, b1 = _faults(["--jobs", "1"], tmp_path, "j1.json")
        rc2, b2 = _faults(["--jobs", "2"], tmp_path, "j2.json")
        assert rc1 == rc2 == 0
        assert b1 == b2

    def test_experiments_serial_parallel_identical(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["table1", "--quick", "--json", "--jobs", "1"]) == 0
        out1 = capsys.readouterr().out
        assert main(["table1", "--quick", "--json", "--jobs", "2"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        assert json.loads(out1)["schema"] == "repro-experiment/1"


class TestCacheDirFlag:
    def test_validate_populates_and_reuses_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        rc, _ = _validate(["--cache-dir", str(store)], tmp_path, "a.json")
        assert rc == 0
        entries = list(store.rglob("*.pkl"))
        assert entries, "cache store not populated"
        # second run over the same store must not add entries
        rc, _ = _validate(["--cache-dir", str(store)], tmp_path, "b.json")
        assert rc == 0
        assert list(store.rglob("*.pkl")) == entries

    def test_cache_dir_payloads_identical_to_uncached(self, tmp_path,
                                                      capsys):
        """Recomputed, stored and read-back artifacts serialize alike.
        Every ``main`` starts on an empty in-memory cache (the shared
        flag code builds a fresh one), so the first run is the cold
        side."""
        from repro.engine.cache import get_cache

        _, cold = _validate([], tmp_path, "cold.json")
        assert get_cache().misses > 0 and get_cache().disk_hits == 0
        store = ["--cache-dir", str(tmp_path / "s")]
        _, filled = _validate(store, tmp_path, "filled.json")
        assert get_cache().disk_writes > 0
        _, warm = _validate(store, tmp_path, "warm.json")
        assert get_cache().disk_hits > 0 and get_cache().misses == 0
        assert cold == filled == warm


class TestParallelFailurePaths:
    """Exit-code map coverage when cells fail under --jobs N."""

    def test_validate_watchdog_fault_exits_3(self, tmp_path, capsys):
        rc, raw = _validate(["--jobs", "2", "--timeout", "0.000001"],
                            tmp_path, "t.json")
        assert rc == 3
        payload = json.loads(raw)
        assert payload["faults"]
        assert payload["faults"][0]["kind"] == "timeout"
        # the crashed workload still has a schema-valid entry
        [w] = payload["workloads"]
        assert all(c["status"] == "error" for c in w["configs"])

    def test_faults_watchdog_fault_exits_3(self, tmp_path, capsys):
        rc, raw = _faults(["--jobs", "2", "--timeout", "0.000001"],
                          tmp_path, "t.json")
        assert rc == 3
        payload = json.loads(raw)
        assert payload["summary"]["harness_faults"] >= 1

    def test_experiments_fault_exits_3_and_reports(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["table1", "--quick", "--json", "--jobs", "2",
                   "--keep-going", "--timeout", "0.000001"])
        assert rc == 3
        payload = json.loads(capsys.readouterr().out)
        assert payload["faults"]
        assert payload["faults"][0]["kind"] == "timeout"

    def test_usage_errors_still_exit_2(self, capsys):
        from repro.experiments.__main__ import main as exp_main

        assert exp_main(["no-such-experiment", "--jobs", "2"]) == 2

    def test_bad_jobs_value_is_usage_error(self, capsys):
        from repro.validate.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["tridag", "--jobs", "many"])
        assert exc.value.code == 2


class TestLoggingByteIdentity:
    """Structured logging must be observational only: payload bytes do
    not change whether it's off or on via --log-level, serial or
    parallel."""

    def test_validate_flag_logging_identical(self, tmp_path, capsys):
        rc1, plain = _validate(["--jobs", "2"], tmp_path, "off.json")
        rc2, logged = _validate(
            ["--jobs", "2", "--log-level", "debug"], tmp_path, "on.json")
        assert rc1 == rc2 == 0
        assert plain == logged
        assert plain, "payload unexpectedly empty"

    def test_validate_serial_logging_identical(self, tmp_path, capsys):
        rc1, plain = _validate([], tmp_path, "off.json")
        rc2, logged = _validate(
            ["--log-level", "debug", "--telemetry", str(tmp_path / "t")],
            tmp_path, "on.json")
        assert rc1 == rc2 == 0
        assert plain == logged
        # the logged run actually logged something
        assert (tmp_path / "t" / "log.jsonl").read_text().strip()

    def test_faults_logging_identical(self, tmp_path, capsys):
        rc1, plain = _faults(["--jobs", "2"], tmp_path, "off.json")
        rc2, logged = _faults(
            ["--jobs", "2", "--log-level", "debug"], tmp_path, "on.json")
        assert rc1 == rc2 == 0
        assert plain == logged

    def test_log_sink_lands_in_telemetry_dir(self, tmp_path, capsys):
        telem = tmp_path / "telem"
        rc, _ = _validate(["--log-level", "info",
                           "--telemetry", str(telem)],
                          tmp_path, "t.json")
        assert rc == 0
        assert (telem / "log.jsonl").exists()
        import json as _json

        events = [_json.loads(ln) for ln in
                  (telem / "log.jsonl").read_text().splitlines()]
        assert any(e["event"] == "workload_done" for e in events)
