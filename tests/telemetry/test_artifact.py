"""The PR's acceptance scenario: a ``--jobs 2 --telemetry DIR`` sweep
produces one merged ``repro-metrics/1`` artifact that passes the
artifact validator, carries spans from at least two worker processes with
per-stage breakdowns and cache hit rates — while the sweep's own JSON
payload stays byte-identical to a serial, telemetry-off run."""

import contextlib
import io
import json

import pytest


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """One serial/off + one parallel/on experiments sweep, shared by the
    assertions below (the sweep is the expensive part)."""
    import repro.experiments.__main__ as exp

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = exp.main(argv)
        assert rc == 0
        return buf.getvalue()

    tdir = tmp_path_factory.mktemp("telem")
    off = run(["table1", "fig6", "--quick", "--json", "--jobs", "1"])
    on = run(["table1", "fig6", "--quick", "--json", "--jobs", "2",
              "--telemetry", str(tdir)])
    payload = json.loads((tdir / "metrics.json").read_text())
    return {"dir": tdir, "off": off, "on": on, "payload": payload}


class TestAcceptance:
    def test_sweep_json_byte_identical(self, sweep):
        assert sweep["on"] == sweep["off"]

    def test_artifact_passes_canonical_validator(self, sweep, validator):
        assert validator.validate(sweep["payload"]) == []

    def test_artifact_passes_script_validator(self, sweep, validator,
                                              capsys):
        path = str(sweep["dir"] / "metrics.json")
        assert validator.main(["validate", path]) == 0
        assert "conform to repro-metrics/1" in capsys.readouterr().out

    def test_spans_from_at_least_two_workers(self, sweep):
        span_pids = {s["pid"] for s in sweep["payload"]["spans"]}
        assert len(span_pids) >= 2
        assert len(sweep["payload"]["pids"]) >= 2

    def test_spans_keyed_by_cell_index(self, sweep):
        cells = [s for s in sweep["payload"]["spans"]
                 if s["name"] == "cell"]
        assert cells
        indices = {s["cell"] for s in cells}
        assert indices == set(range(len(cells)))

    def test_per_stage_breakdown_present(self, sweep):
        stages = sweep["payload"]["summary"]["stages"]
        # experiment cells drive the front end + the perf estimator
        assert {"parse", "restructure", "estimate"} <= set(stages)
        assert all(st["count"] > 0 and st["total_s"] >= 0.0
                   for st in stages.values())

    def test_cache_hit_rates_present(self, sweep):
        cache = sweep["payload"]["summary"]["cache"]
        assert cache, "no cache accounting in the artifact"
        for slot in cache.values():
            assert slot["hits"] + slot["misses"] > 0
            assert 0.0 <= slot["hit_rate"] <= 1.0

    def test_worker_utilization_present(self, sweep):
        workers = sweep["payload"]["summary"]["workers"]
        assert len(workers) >= 2
        assert all(0.0 <= w["utilization"] <= 1.0
                   for w in workers.values())

    def test_session_dir_is_clean(self, sweep):
        names = {p.name for p in sweep["dir"].iterdir()}
        assert names == {"meta.json", "metrics.json"}


class TestOtherHarnesses:
    def test_validate_instrumented(self, tmp_path, capsys, validator):
        import repro.validate.__main__ as val

        tdir = tmp_path / "telem"
        assert val.main(["tridag", "--no-bisect", "--json",
                         "--telemetry", str(tdir)]) == 0
        payload = json.loads((tdir / "metrics.json").read_text())
        assert validator.validate(payload) == []
        assert payload["summary"]["cells"] == 1
        # finalize ended the session: it does not leak into the next run
        from repro import telemetry

        assert not telemetry.enabled()

    def test_faults_sweep_instrumented(self, tmp_path, capsys,
                                       validator):
        import repro.faults.__main__ as faults

        tdir = tmp_path / "telem"
        assert faults.main(["sweep", "--quick", "--workloads", "tridag",
                            "--scenarios", "healthy", "dead-ce",
                            "--json", "--telemetry", str(tdir)]) == 0
        payload = json.loads((tdir / "metrics.json").read_text())
        assert validator.validate(payload) == []
        # the fault sweep fans out per workload: one cell here
        assert payload["summary"]["cells"] == 1
        assert payload["harness"] == "repro.faults sweep"
