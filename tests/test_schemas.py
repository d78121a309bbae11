"""``schemas/*.json`` as an executable spec.

The schema files are the artifact contract: every keyword in them is one
the validator's interpreter executes, a real generated payload of every
tag conforms, and a malformed payload gets a violation that names the
JSON path — never an exception.
"""

import contextlib
import copy
import io
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCHEMA_FILES = sorted((REPO / "schemas").glob("*.schema.json"))

SRC = """      subroutine axpy(n, a, x, y)
      integer n, i
      real a, x(n), y(n)
      do 10 i = 1, n
         y(i) = y(i) + a * x(i)
   10 continue
      return
      end
"""
BAD_SRC = """      program bad
      x = ((1
      goto 999
      end
"""

#: per tag, where a schema-constrained array lives in the real payload
ARRAY_AT = {
    "repro-experiment/1": ("experiments", "table1", "rows"),
    "repro-profile/1": ("runs", 0, "loops"),
    "repro-validate/1": ("configs",),
    "repro-faults/1": ("scenarios", "chaos", "dead_ces"),
    "repro-lint/1": ("files", 0, "diagnostics"),
    "repro-metrics/1": ("summary", "slowest_cells"),
    "repro-server/1": ("result", "experiment", "experiments",
                       "source", "columns"),
}
TAGS = sorted(ARRAY_AT)


def _quiet(main, argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


@pytest.fixture(scope="module")
def payloads(tmp_path_factory):
    """One real payload per schema tag, as CI would read it from disk."""
    import repro.experiments.__main__ as experiments
    import repro.validate.__main__ as validation
    from repro import telemetry
    from repro.engine.cache import get_cache
    from repro.faults.sweep import run_sweep
    from repro.lint.engine import lint_source, report_json
    from repro.server.service import RestructurerService

    tmp = tmp_path_factory.mktemp("artifacts")
    found = {}
    found["repro-experiment/1"] = json.loads(_quiet(experiments.main, [
        "table1", "--quick", "--json", "--profile", str(tmp / "prof")]))
    found["repro-profile/1"] = json.loads(
        (tmp / "prof" / "table1.profile.json").read_text())
    _quiet(validation.main, ["tridag", "--no-bisect",
                             "-o", str(tmp / "validate.json"),
                             "--telemetry", str(tmp / "telem")])
    telemetry.get_registry().reset()
    found["repro-validate/1"] = json.loads(
        (tmp / "validate.json").read_text())
    found["repro-metrics/1"] = json.loads(
        (tmp / "telem" / "metrics.json").read_text())
    found["repro-faults/1"] = run_sweep(["tridag"], ["healthy", "chaos"],
                                        quick=True, timeout=120.0)
    found["repro-lint/1"] = report_json(
        [lint_source(BAD_SRC, path="bad.f"), lint_source(SRC, path="ok.f")])
    svc = RestructurerService(workers=1,
                              registry=telemetry.MetricsRegistry())
    try:
        found["repro-server/1"] = svc.handle(
            "restructure", {"source": SRC, "quick": True})
    finally:
        svc.drain(timeout_s=5.0)
        get_cache().disk_error_hook = None
    return {tag: json.loads(json.dumps(p)) for tag, p in found.items()}


def _keywords(schema):
    """Every keyword used anywhere in a schema document."""
    yield from schema
    subs = [schema.get("items"), schema.get("additionalProperties"),
            *schema.get("oneOf", ()),
            *schema.get("properties", {}).values(),
            *schema.get("definitions", {}).values()]
    for sub in subs:
        if isinstance(sub, dict):
            yield from _keywords(sub)


def _json_path(keys):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                         for k in keys)


@pytest.mark.parametrize("path", SCHEMA_FILES, ids=lambda p: p.name)
def test_every_schema_keyword_is_interpreted(path, validator):
    doc = json.loads(path.read_text())
    assert set(_keywords(doc)) <= validator.KEYWORDS
    assert validator.SCHEMAS[doc["$id"]] == doc
    assert doc["$id"] in validator.HOOKS


def test_every_tag_has_a_schema_file(validator):
    assert sorted(validator.SCHEMAS) == TAGS == sorted(validator.HOOKS)


def test_interpreter_refuses_keywords_it_does_not_implement(validator):
    with pytest.raises(ValueError, match="uniqueItems"):
        validator.check_shape([], {"uniqueItems": True}, {}, "$", [])


def test_one_of_needs_exactly_one_alternative(validator):
    schema = {"oneOf": [{"type": "number"},
                        {"type": "array", "items": {"type": "number"}}]}
    for value, n_violations in ((1.5, 0), ([1, 2], 0), ("x", 1), (["x"], 1)):
        out = []
        validator.check_shape(value, schema, schema, "$.m", out)
        assert len(out) == n_violations, (value, out)


@pytest.mark.parametrize("tag", TAGS)
def test_real_payload_conforms(tag, payloads, validator):
    assert validator.validate(payloads[tag]) == []


@pytest.mark.parametrize("tag", TAGS)
def test_dropped_required_key_is_a_path_addressed_violation(
        tag, payloads, validator):
    required = [k for k in validator.SCHEMAS[tag]["required"]
                if k != "schema"]
    assert required
    for key in required:
        broken = copy.deepcopy(payloads[tag])
        del broken[key]
        problems = validator.validate(broken)
        assert f"$.{key}: missing required key" in problems, (key, problems)


@pytest.mark.parametrize("tag", TAGS)
def test_array_replaced_by_integer_is_a_path_addressed_violation(
        tag, payloads, validator):
    broken = copy.deepcopy(payloads[tag])
    *parents, last = ARRAY_AT[tag]
    holder = broken
    for key in parents:
        holder = holder[key]
    assert isinstance(holder[last], list)
    holder[last] = 7
    problems = validator.validate(broken)
    assert any(p.startswith(_json_path(ARRAY_AT[tag]) + ": expected ")
               for p in problems), problems
