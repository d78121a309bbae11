"""Differential validation: comparison, bisection, reports, CLI."""

import json

import numpy as np
import pytest

from repro.restructurer.pipeline import PASS_STAGES, stages_for
from repro.restructurer.options import RestructurerOptions
from repro.validate import (
    PIPELINE_CONFIGS,
    baseline_options,
    bisect_stages,
    build_report,
    compare_outputs,
    options_for_stages,
    validate_workload,
)
from repro.validate import differential
from repro.workloads import validation_cases


class TestCompareOutputs:
    def test_identical_results_are_clean(self):
        base = {"x": np.arange(5.0), "n": 5}
        assert compare_outputs(base, dict(base)) == []

    def test_float_within_tolerance_is_clean(self):
        base = {"x": np.ones(4)}
        cand = {"x": np.ones(4) + 1e-6}
        assert compare_outputs(base, cand) == []

    def test_float_divergence_reported(self):
        base = {"x": np.ones(4)}
        cand = {"x": np.array([1.0, 1.0, 2.0, 1.0])}
        divs = compare_outputs(base, cand, processors=4, seed=9)
        assert len(divs) == 1
        d = divs[0]
        assert d.key == "x" and d.mismatches == 1
        assert d.max_abs == pytest.approx(1.0)
        assert d.processors == 4 and d.seed == 9

    def test_integers_compared_exactly(self):
        base = {"k": np.array([1, 2, 3])}
        cand = {"k": np.array([1, 2, 4])}
        divs = compare_outputs(base, cand)
        assert divs and divs[0].mismatches == 1
        # even a tiny integer delta is a divergence, no tolerance
        assert compare_outputs(base, {"k": np.array([1, 2, 3])}) == []

    def test_permutation_ok_sorts_before_comparing(self):
        base = {"hits": np.array([3, 1, 2])}
        cand = {"hits": np.array([2, 3, 1])}
        assert compare_outputs(base, cand) != []
        assert compare_outputs(base, cand, permutation_ok=True) == []

    def test_shape_mismatch_is_divergent(self):
        base = {"x": np.ones(4)}
        cand = {"x": np.ones(3)}
        divs = compare_outputs(base, cand)
        assert divs and divs[0].max_abs == float("inf")

    def test_scalar_results_compared(self):
        assert compare_outputs({"s": 2.0}, {"s": 2.0}) == []
        assert compare_outputs({"s": 2.0}, {"s": 3.0}) != []


class TestConfigs:
    def test_baseline_disables_every_stage(self):
        assert stages_for(baseline_options()) == []

    def test_options_for_stages_round_trips(self):
        labels = [label for label, _ in PASS_STAGES]
        assert stages_for(options_for_stages(labels)) == labels
        some = ["reduction-recognition", "scalar-privatization"]
        assert stages_for(options_for_stages(some)) == some

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError):
            options_for_stages(["no-such-pass"])

    def test_pipeline_configs_cover_auto_and_manual(self):
        assert set(PIPELINE_CONFIGS) == {"automatic", "manual"}
        for factory in PIPELINE_CONFIGS.values():
            assert isinstance(factory(), RestructurerOptions)


class TestBisection:
    def test_clean_workload_bisects_to_none(self):
        case = validation_cases()["tridag"]
        stages = stages_for(RestructurerOptions.manual())
        assert bisect_stages(case, stages, seed=3, processors=2) is None

    def test_bisection_names_the_guilty_stage(self, monkeypatch):
        # fake a pipeline where enabling loop-fusion corrupts x: the
        # bisector must name it without knowing anything else
        case = validation_cases()["tridag"]
        stages = stages_for(RestructurerOptions.manual())
        guilty = "loop-fusion"
        assert guilty in stages

        monkeypatch.setattr(differential, "run_baseline",
                            lambda case, seed, **kw: {"x": np.ones(4)})

        def fake_variant(case, options, seed, processors, shadow=None,
                         **kw):
            bad = options.loop_fusion
            out = {"x": np.full(4, 2.0) if bad else np.ones(4)}
            return out, None

        monkeypatch.setattr(differential, "run_variant", fake_variant)
        got = bisect_stages(case, stages, seed=3, processors=2)
        assert got == guilty

    def test_divergent_base_parallelization_named(self, monkeypatch):
        case = validation_cases()["tridag"]
        stages = stages_for(RestructurerOptions.manual())
        monkeypatch.setattr(differential, "run_baseline",
                            lambda case, seed, **kw: {"x": np.ones(4)})
        monkeypatch.setattr(
            differential, "run_variant",
            lambda case, options, seed, processors, shadow=None, **kw:
            ({"x": np.zeros(4)}, None))
        got = bisect_stages(case, stages, seed=3, processors=2)
        assert got == "base-parallelization"


class TestValidateWorkload:
    @pytest.fixture(scope="class")
    def result(self):
        case = validation_cases()["tridag"]
        return validate_workload(
            case, {n: PIPELINE_CONFIGS[n] for n in ("automatic", "manual")},
            seeds=(3,), processors=(2,))

    def test_small_workload_validates_clean(self, result):
        assert result.ok
        for c in result.configs:
            assert c.status == "ok"
            assert c.divergences == [] and c.races == []
            assert c.compared_keys, "must compare at least one result key"

    def test_report_conforms_to_schema_checker(self, result, validator):
        payload = build_report([result], configs=["automatic", "manual"])
        payload = json.loads(json.dumps(payload))  # as CI would read it
        assert validator.validate(payload) == []

    def test_checker_rejects_inconsistent_status(self, result, validator):
        payload = json.loads(json.dumps(
            build_report([result], configs=["automatic", "manual"])))
        broken = json.loads(json.dumps(payload))
        broken["workloads"][0]["configs"][0]["status"] = "race"
        problems = validator.validate(broken)
        assert any("without any conflict" in p for p in problems)
        broken = json.loads(json.dumps(payload))
        broken["summary"]["ok"] += 1
        problems = validator.validate(broken)
        assert any("recount" in p for p in problems)


class TestCli:
    def test_cli_runs_one_workload_clean(self, capsys, tmp_path,
                                         validator):
        from repro.validate.__main__ import main
        out = tmp_path / "v.json"
        rc = main(["tridag", "--processors", "2", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-validate/1"
        assert payload["summary"]["ok"] == payload["summary"]["configs_run"]
        assert validator.validate(payload) == []

    def test_repeated_names_run_once(self, tmp_path, validator):
        """A workload or config named twice is validated once, listed
        once, and the payload passes its own validator."""
        from repro.validate.__main__ import main
        out = tmp_path / "dup.json"
        rc = main(["tridag", "tridag", "--config", "automatic",
                   "--config", "automatic", "--processors", "2",
                   "--no-bisect", "-o", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert validator.validate(payload) == []
        assert [w["workload"] for w in payload["workloads"]] == ["tridag"]
        assert payload["configs"] == ["automatic"]
        assert [c["config"] for c in payload["workloads"][0]["configs"]] \
            == ["automatic"]

    def test_cli_rejects_unknown_workload(self):
        from repro.validate.__main__ import main
        with pytest.raises(SystemExit):
            main(["no-such-workload"])
