"""Unit tests for the fixed-form lexer."""

import pytest

from repro.errors import LexError
from repro.fortran.lexer import lex_source
from repro.fortran.tokens import TokenKind


def kinds(src):
    return [t.kind for t in lex_source(src) if t.kind is not TokenKind.EOF]


def values(src):
    return [t.value for t in lex_source(src)
            if t.kind not in (TokenKind.EOF, TokenKind.NEWLINE)]


def test_simple_statement():
    toks = lex_source("      x = 1")
    assert [t.kind for t in toks] == [
        TokenKind.IDENT, TokenKind.EQUALS, TokenKind.INT,
        TokenKind.NEWLINE, TokenKind.EOF,
    ]


def test_comment_cards_skipped():
    src = "c a comment\nC another\n* starred\n\n      x = 1\n"
    assert values(src) == ["x", "=", "1"]


def test_inline_bang_comment():
    assert values("      x = 1 ! trailing") == ["x", "=", "1"]


def test_label_token():
    toks = lex_source("   10 continue")
    assert toks[0].kind is TokenKind.LABEL
    assert toks[0].value == "10"
    assert toks[1].value == "continue"


def test_continuation_card():
    src = "      x = 1 +\n     &    2\n"
    assert values(src) == ["x", "=", "1", "+", "2"]
    # single logical line → single NEWLINE
    assert kinds(src).count(TokenKind.NEWLINE) == 1


def test_continuation_requires_statement():
    with pytest.raises(LexError):
        lex_source("     & 2\n")


def test_columns_past_72_ignored():
    body = "      x = 1"
    src = body + " " * (72 - len(body)) + "garbage"
    assert values(src) == ["x", "=", "1"]


def test_identifiers_lowercased():
    assert values("      CaMeL = Xyz") == ["camel", "=", "xyz"]


def test_integer_and_real_literals():
    vals = values("      x = 1 + 2.5 + 3. + .5 + 1.e-3 + 2e6")
    assert "2.5" in vals and "3." in vals and ".5" in vals
    assert "1.e-3" in vals and "2e6" in vals


def test_double_literal():
    toks = [t for t in lex_source("      x = 1.5d0")
            if t.kind is TokenKind.DOUBLE]
    assert len(toks) == 1 and toks[0].value == "1.5d0"


def test_real_vs_dot_operator():
    # "1.eq.2" must lex as INT OP INT, not REAL
    vals = [(t.kind, t.value) for t in lex_source("      l = 1.eq.2")
            if t.kind in (TokenKind.INT, TokenKind.OP, TokenKind.REAL)]
    assert vals == [(TokenKind.INT, "1"), (TokenKind.OP, ".eq."),
                    (TokenKind.INT, "2")]


def test_dot_operators():
    vals = values("      l = a .and. b .or. .not. c .eqv. d")
    assert ".and." in vals and ".or." in vals
    assert ".not." in vals and ".eqv." in vals


def test_logical_constants():
    toks = [t for t in lex_source("      l = .true. .or. .false.")
            if t.kind is TokenKind.LOGICAL]
    assert [t.value for t in toks] == [".true.", ".false."]


def test_string_literal_with_escape():
    toks = [t for t in lex_source("      s = 'don''t'")
            if t.kind is TokenKind.STRING]
    assert toks[0].value == "don't"


def test_unterminated_string():
    with pytest.raises(LexError):
        lex_source("      s = 'oops")


def test_power_and_concat_operators():
    assert "**" in values("      x = a ** 2")
    assert "//" in values("      s = a // b")


def test_colon_for_sections():
    vals = values("      a(1:n) = b(1:n:2)")
    assert vals.count(":") == 3


def test_bad_label():
    with pytest.raises(LexError):
        lex_source("  1x3 continue")


def test_line_and_column_positions():
    toks = lex_source("      x = 1\n      y = 2\n")
    xs = [t for t in toks if t.value == "y"]
    assert xs[0].line == 2
    assert xs[0].col == 7


def test_blank_lines_are_comments():
    assert values("\n\n      x = 1\n\n") == ["x", "=", "1"]


def test_dec_tab_convention_warns():
    from repro.fortran.diagnostics import DiagnosticSink
    src = "\tx = 1\n"
    sink = DiagnosticSink(src)
    toks = lex_source(src, sink)
    assert [t.value for t in toks
            if t.kind not in (TokenKind.EOF, TokenKind.NEWLINE)] \
        == ["x", "=", "1"]
    assert [d.code for d in sink.warnings] == ["W201"]


def test_text_past_column_72_warns():
    from repro.fortran.diagnostics import DiagnosticSink
    body = "      x = 1"
    src = body + " " * (72 - len(body)) + "junk\n"
    sink = DiagnosticSink(src)
    lex_source(src, sink)
    w = [d for d in sink.warnings if d.code == "W202"]
    assert len(w) == 1 and w[0].col == 73


def test_lexer_recovery_collects_multiple_errors():
    from repro.fortran.diagnostics import DiagnosticSink
    src = "      x = 1 @ 2\n      y = 'open\n"
    sink = DiagnosticSink(src)
    lex_source(src, sink)
    codes = [d.code for d in sink.errors]
    assert "F001" in codes and "F002" in codes
    for d in sink.errors:
        assert d.line >= 1 and d.col >= 1


# ---------------------------------------------------------------------------
# characters outside Fortran's set: the front end reports, never crashes


def _lex_with_sink(src):
    from repro.fortran.diagnostics import DiagnosticSink
    sink = DiagnosticSink(src)
    toks = lex_source(src, sink)
    return [(t.kind, t.value, t.col) for t in toks
            if t.kind not in (TokenKind.EOF, TokenKind.NEWLINE)], \
        [(d.code, d.message, d.line, d.col) for d in sink.diagnostics]


@pytest.mark.parametrize("src, want_toks, want_diags", [
    # a superscript digit is not part of the number before it
    ("      x = 2²",
     [(TokenKind.IDENT, "x", 7), (TokenKind.EQUALS, "=", 9),
      (TokenKind.INT, "2", 11)],
     [("F001", "unexpected character '²'", 1, 12)]),
    # nor an exponent's digit
    ("      x = 1.5e²",
     [(TokenKind.IDENT, "x", 7), (TokenKind.EQUALS, "=", 9),
      (TokenKind.REAL, "1.5", 11), (TokenKind.IDENT, "e", 14)],
     [("F001", "unexpected character '²'", 1, 15)]),
    # an Arabic-Indic digit is not read as 3
    ("      x = ٣",
     [(TokenKind.IDENT, "x", 7), (TokenKind.EQUALS, "=", 9)],
     [("F001", "unexpected character '٣'", 1, 11)]),
])
def test_numbers_take_ascii_digits_only(src, want_toks, want_diags):
    assert _lex_with_sink(src) == (want_toks, want_diags)
    with pytest.raises(LexError, match="unexpected character"):
        lex_source(src)


def test_a_non_ascii_digit_label_is_malformed():
    toks, diags = _lex_with_sink("٣     continue\n  ²   continue\n")
    assert [t[1] for t in toks] == ["continue", "continue"]
    assert [d[0] for d in diags] == ["F003", "F003"]


def test_non_ascii_digits_reach_lint_as_diagnostics():
    from repro.fortran.parser import parse_program
    from repro.lint import lint_source

    for body in ("2²", "1.5e²", "٣"):
        src = f"      program p\n      x = {body}\n      end\n"
        report = lint_source(src)
        assert "F001" in [d.code for d in report.diagnostics]
        with pytest.raises(LexError):
            parse_program(src)


def test_continuation_cards_keep_their_columns():
    src = "      x = a +\n     &    bb * 'it''s'\n     &  .eq. c\n"
    toks, diags = _lex_with_sink(src)
    assert diags == []
    located = [(t.value, t.line, t.col) for t in lex_source(src)
               if t.kind not in (TokenKind.EOF,)]
    assert located == [
        ("x", 1, 7), ("=", 1, 9), ("a", 1, 11), ("+", 1, 13),
        ("bb", 2, 11), ("*", 2, 14), ("it's", 2, 16),
        (".eq.", 3, 9), ("c", 3, 14), ("", 3, 73)]
