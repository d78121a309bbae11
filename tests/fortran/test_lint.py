"""Tests for the linter: diagnostics, recovery, rules, CLI, ingestion."""

import json

import pytest

from repro.errors import LexError, ParseError
from repro.fortran.diagnostics import CODES, Diagnostic, DiagnosticSink
from repro.fortran.parser import parse_program
from repro.lint.engine import JSON_SCHEMA, lint_source, report_json


# -- the no-location-free invariant ----------------------------------------


def test_diagnostic_requires_location():
    """Regression: a diagnostic without a real line/col must not ship.

    The pre-linter parser raised its missing-END error with no location
    at all; Diagnostic now makes that a constructor-time failure.
    """
    with pytest.raises(ValueError):
        Diagnostic("F103", "missing end", line=0, col=7)
    with pytest.raises(ValueError):
        Diagnostic("F103", "missing end", line=3, col=0)
    with pytest.raises(ValueError):
        Diagnostic("F103", "missing end", line=None, col=7)


def test_diagnostic_code_must_be_registered():
    with pytest.raises(ValueError):
        Diagnostic("F999", "nope", line=1, col=1)
    with pytest.raises(ValueError):
        Diagnostic("F101", "nope", line=1, col=1, severity="fatal")


def test_code_registry_severity_prefixes():
    for code in CODES:
        assert code[0] in "FW" and code[1:].isdigit() and len(code) == 4


def test_missing_end_has_location():
    rep = lint_source("      program p\n      x = 1\n")
    codes = [d.code for d in rep.diagnostics]
    assert "F103" in codes
    for d in rep.diagnostics:
        assert d.line >= 1 and d.col >= 1


# -- recovery: many errors from one file -----------------------------------

BAD = """\
      program bad
      x = ((1
      y =
      goto 999
      end
"""


def test_recovery_reports_every_error():
    rep = lint_source(BAD)
    errors = [d for d in rep.diagnostics if d.severity == "error"]
    assert len(errors) >= 3
    # three distinct problems, each with its own real location
    assert len({(d.line, d.col) for d in errors}) >= 3
    assert {"F101", "F201"} <= {d.code for d in errors}
    # the partial AST still exists: the unit survived recovery
    assert len(rep.ast.units) == 1
    assert rep.ast.units[0].name == "bad"


def test_fail_fast_without_sink_unchanged():
    with pytest.raises(ParseError):
        parse_program(BAD)
    with pytest.raises(LexError):
        parse_program('      x = "unterminated\n')


def test_max_errors_cap():
    lines = ["      program p"] + ["      x = (" for _ in range(30)] \
        + ["      end"]
    rep = lint_source("\n".join(lines) + "\n", max_errors=5)
    assert rep.error_count == 5  # stored errors capped...
    assert rep.sink.suppressed_errors == 25  # ...the rest counted
    assert not rep.ok
    assert "suppressed" in rep.render()


# -- the rule pack ---------------------------------------------------------


def lint_codes(src):
    return [d.code for d in lint_source(src).diagnostics]


def test_undefined_label_f201():
    src = ("      program p\n"
           "      goto 50\n"
           "      end\n")
    assert "F201" in lint_codes(src)


def test_duplicate_label_f202():
    src = ("      program p\n"
           "   10 x = 1\n"
           "   10 y = 2\n"
           "      end\n")
    assert "F202" in lint_codes(src)


def test_unreferenced_format_w302():
    src = ("      program p\n"
           "  100 format (i6)\n"
           "      end\n")
    assert "W302" in lint_codes(src)


def test_referenced_format_clean():
    src = ("      program p\n"
           "      write (*, 100) 1\n"
           "  100 format (i6)\n"
           "      end\n")
    rep = lint_source(src)
    assert rep.ok and not rep.diagnostics


def test_do_ends_on_executable_w301():
    src = ("      program p\n"
           "      do 10 i = 1, 5\n"
           "   10 x = i\n"
           "      end\n")
    assert "W301" in lint_codes(src)


def test_labeled_do_on_continue_clean():
    src = ("      program p\n"
           "      do 10 i = 1, 5\n"
           "         x = i\n"
           "   10 continue\n"
           "      end\n")
    assert "W301" not in lint_codes(src)


# -- layout traps from the lexer -------------------------------------------


def test_dec_tab_warning_w201():
    rep = lint_source("\tprogram p\n\tx = 1\n\tend\n")
    assert "W201" in [d.code for d in rep.diagnostics]
    assert rep.error_count == 0  # the tab convention still lexes


def test_text_past_column_72_w202():
    body = "      x = 1"
    src = body + " " * (72 - len(body)) + "junk\n      end\n"
    rep = lint_source(src)
    w = [d for d in rep.diagnostics if d.code == "W202"]
    assert len(w) == 1
    assert w[0].col == 73


# -- JSON report -----------------------------------------------------------


def test_report_json_shape():
    doc = report_json([lint_source(BAD, path="bad.f"),
                       lint_source("      program p\n      end\n",
                                   path="ok.f")],
                      meta={"strict": False})
    assert doc["schema"] == JSON_SCHEMA == "repro-lint/1"
    assert doc["ok"] is False
    assert doc["error_count"] >= 3 and doc["warning_count"] >= 0
    assert [f["path"] for f in doc["files"]] == ["bad.f", "ok.f"]
    assert doc["files"][1]["ok"] is True
    assert doc["meta"]["tool"] == "repro.lint"
    for d in doc["files"][0]["diagnostics"]:
        assert d["code"] in CODES and d["slug"] == CODES[d["code"]]
        assert d["line"] >= 1 and d["col"] >= 1
    json.dumps(doc)  # must be serializable as-is


def test_report_json_validates(tmp_path):
    import subprocess
    import sys
    doc = report_json([lint_source(BAD, path="bad.f")])
    p = tmp_path / "lint.json"
    p.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "scripts/validate_experiment_json.py", str(p)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- CLI exit map ----------------------------------------------------------


def lint_main(argv):
    from repro.lint.__main__ import main
    return main(argv)


def test_cli_clean_exit_0(tmp_path, capsys):
    f = tmp_path / "ok.f"
    f.write_text("      program p\n      x = 1\n      end\n")
    assert lint_main([str(f)]) == 0
    assert "clean" in capsys.readouterr().out


def test_cli_findings_exit_1(tmp_path, capsys):
    f = tmp_path / "bad.f"
    f.write_text(BAD)
    assert lint_main([str(f)]) == 1
    out = capsys.readouterr().out
    assert "[F101]" in out and "[F201]" in out


def test_cli_usage_exit_2(tmp_path, capsys):
    assert lint_main([]) == 2
    assert lint_main([str(tmp_path / "missing.f")]) == 2
    capsys.readouterr()


def test_cli_strict_warnings_exit_1(tmp_path, capsys):
    f = tmp_path / "warn.f"
    f.write_text("      program p\n"
                 "  100 format (i6)\n"
                 "      end\n")
    assert lint_main([str(f)]) == 0
    assert lint_main(["--strict", str(f)]) == 1
    capsys.readouterr()


def test_cli_json_output(tmp_path, capsys):
    f = tmp_path / "ok.f"
    f.write_text("      program p\n      end\n")
    assert lint_main(["--json", str(f)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro-lint/1" and doc["ok"] is True


# -- ingestion through repro.experiments -----------------------------------


def experiments_main(argv):
    from repro.experiments.__main__ import main
    return main(argv)


def test_ingest_sample_clean(capsys):
    assert experiments_main(["--source", "examples/sample.f",
                             "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Ingested source examples/sample.f" in out
    assert "smooth" in out


def test_ingest_rejects_lint_errors(tmp_path, capsys):
    f = tmp_path / "bad.f"
    f.write_text(BAD)
    assert experiments_main(["--source", str(f)]) == 1
    err = capsys.readouterr().err
    assert "[F101]" in err and "not ingested" in err


def test_ingest_usage_errors(tmp_path, capsys):
    assert experiments_main(["--source",
                             str(tmp_path / "missing.f")]) == 2
    assert experiments_main(["--source", "examples/sample.f",
                             "table1"]) == 2
    capsys.readouterr()


def test_ingest_json_is_experiment_shaped(capsys):
    assert experiments_main(["--source", "examples/sample.f",
                             "--quick", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "repro-experiment/1"
    table = doc["experiments"]["source"]
    assert set(table) == {"title", "columns", "rows", "notes", "meta"}
    for row in table["rows"]:
        assert set(row) == set(table["columns"])
    assert table["meta"]["lint"]["ok"] is True


def clean_sources():
    """The 22 validation sources and the pinned 50-program fuzz corpus."""
    import pathlib

    from repro.workloads import validation_cases

    corpus = sorted((pathlib.Path(__file__).parent / "corpus").glob("*.f"))
    return [(name, case.source)
            for name, case in sorted(validation_cases().items())] \
        + [(p.name, p.read_text()) for p in corpus]


def test_clean_lint_tree_is_the_strict_parsers_tree():
    """``ingest_source`` hands the linter's tree to the estimators
    (``seed_parse``) instead of parsing a clean source again: on a
    source with no error the recovering parser must have built exactly
    what the strict one builds."""
    sources = clean_sources()
    assert len(sources) == 22 + 50
    for name, source in sources:
        report = lint_source(source, path=name)
        assert report.error_count == 0, name
        assert report.ast == parse_program(source), name


def test_ingest_json_is_the_same_with_and_without_the_seeded_tree(
        capsys, monkeypatch):
    from repro.engine import cache

    argv = ["--source", "examples/sample.f", "--quick", "--json"]
    try:
        with monkeypatch.context() as m:    # seeding off: strict parse
            m.setattr(cache.CompilationCache, "seed_parse",
                      lambda self, source, sf: None)
            assert experiments_main(argv) == 0
            by_kind = cache.cache_stats()["by_kind"]
            assert by_kind["parse"]["misses"] > 0
        strict = capsys.readouterr().out
        assert experiments_main(argv) == 0
        seeded = capsys.readouterr().out
        by_kind = cache.cache_stats()["by_kind"]
    finally:
        cache.configure()
    assert seeded == strict
    # the one tree served every consumer: nothing was parsed twice
    assert by_kind["parse"]["misses"] == 0 and by_kind["parse"]["hits"] > 0
