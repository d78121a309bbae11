"""Fixed-form Fortran 77 lexer.

Handles the fixed-form card layout:

- column 1 ``c``, ``C`` or ``*`` (or a blank line) marks a comment card;
- columns 1-5 hold an optional numeric statement label;
- a non-blank, non-zero character in column 6 marks a continuation card;
- the statement body occupies columns 7-72; text past column 72 is
  dropped *with a warning* (``W202``) when it is significant;
- a tab in columns 1-6 advances to column 7 (the DEC tab convention,
  warned as ``W201``); a digit 1-9 immediately after the tab marks a
  continuation card;
- ``!`` starts a trailing comment (common extension, honoured outside
  character literals).

The lexer is *space-tolerant* rather than fully space-insensitive: it
requires the conventional spelling ``do 10 i = 1, n`` (as produced by every
tool of the era) rather than the pathological ``DO10I=1,N``.  Identifiers and
keywords are lower-cased; Fortran has no reserved words, so keyword
recognition is the parser's job.

Each logical statement is terminated by a ``NEWLINE`` token; a ``LABEL``
token (if any) leads the statement.  The token stream ends with ``EOF``.

A logical statement is its cards' body text joined, plus one (offset,
line, column) record per card segment, from which a token's source
position is read.  The text is tokenized by one compiled master pattern
(``_MASTER``, scanned with ``re.finditer``) whose named alternatives
are the token shapes: quoted literals with doubled quotes, dot
operators and logical constants, numbers (a number's ``.`` is left to a
dot operator that starts there, as in ``1.eq.2``; ``e``/``d`` exponents;
leading-dot reals), names, punctuation, and ``** // + - * /``.  A kind
table maps most alternatives straight to a token.  Digits and letters
are ASCII ones only, so any other character (``2²``, ``٣``) falls to
the catch-all: a lone ``.`` reports ``F005``, anything else ``F001``,
at that character's line and column, and an unterminated literal
reports ``F002`` at its opening quote.

Errors and warnings flow through a
:class:`~repro.fortran.diagnostics.DiagnosticSink`.  Without one, the
historical fail-fast contract holds: the first error raises
:class:`~repro.errors.LexError` (always with line *and* column).  With a
sink, errors are recorded and lexing recovers — by skipping the offending
character, or the rest of the statement for unterminated literals — so a
single bad card no longer hides the rest of the file.

``FORMAT`` statements are special-cased at the logical-line level: their
body after the keyword is captured verbatim (whitespace outside quotes
removed) into one ``RAW`` token, because format edit descriptors
(``2x``, ``i5``, ``f8.3``) do not tokenize under expression rules.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.fortran.diagnostics import DiagnosticSink, _RaisingSink
from repro.fortran.tokens import (
    DOT_CONSTANTS,
    DOT_OPERATORS,
    SYMBOL_OPERATORS,
    Token,
    TokenKind,
)

_COMMENT_CHARS = {"c", "C", "*", "!"}


def _either(words) -> str:
    return "|".join(re.escape(w) for w in words)


#: One alternative per token shape, tried in order at each position
#: after optional blanks.  A number's dot is not taken when a dot
#: operator starts there (``1.eq.2``); a lone dot is ``dot`` (F005) and
#: any other character no alternative accepts is ``other`` (F001).
#: ``re.ASCII``: digits and letters are ASCII ones only.
_MASTER = re.compile(
    r"[ \t]*(?:"
    r"(?P<bang>!)"
    r"|(?P<string>'(?P<body>(?:[^']|'')*)(?P<close>'?))"
    rf"|(?P<dotop>{_either(DOT_OPERATORS)})"
    rf"|(?P<logical>{_either(DOT_CONSTANTS)})"
    r"|(?P<number>(?:[0-9]+(?:\.(?!(?:"
    + _either(op[1:] for op in DOT_OPERATORS)
    + r"))[0-9]*)?|\.[0-9]+)(?:[ed][+-]?[0-9]+)?)"
    r"|(?P<ident>[a-z_][a-z0-9_]*)"
    r"|(?P<lparen>\()|(?P<rparen>\))|(?P<comma>,)|(?P<colon>:)"
    r"|(?P<equals>=)"
    rf"|(?P<op>{_either(SYMBOL_OPERATORS)})"
    r"|(?P<dot>\.)"
    r"|(?P<other>[^ \t]))",
    re.ASCII | re.IGNORECASE)

#: token kind of each ``_MASTER`` group that maps one match to one token
_SIMPLE_KINDS: dict[str, TokenKind] = {
    "ident": TokenKind.IDENT,
    "lparen": TokenKind.LPAREN,
    "rparen": TokenKind.RPAREN,
    "comma": TokenKind.COMMA,
    "colon": TokenKind.COLON,
    "equals": TokenKind.EQUALS,
    "op": TokenKind.OP,
    "dotop": TokenKind.OP,
    "logical": TokenKind.LOGICAL,
}

#: the one string object each fixed spelling is stored as (trees keep
#: operator values, so a copy per token would cost memory)
_SPELLINGS = {s: s for s in ("(", ")", ",", ":", "=", *SYMBOL_OPERATORS,
                             *DOT_OPERATORS, *DOT_CONSTANTS)}

#: ``(group name, its _SIMPLE_KINDS entry or None)`` by group number (a
#: match's ``lastindex`` is its outermost group: ``string``, not ``body``)
_GROUPS = {index: (name, _SIMPLE_KINDS.get(name))
           for name, index in _MASTER.groupindex.items()}

#: significant columns of a fixed-form statement body (7..72)
_BODY_WIDTH = 66


def _is_comment_card(line: str) -> bool:
    if not line.strip():
        return True
    return line[0] in _COMMENT_CHARS


#: a run of text up to the first ``!`` outside character literals (a
#: doubled quote inside a literal closes and reopens it)
_TO_BANG = re.compile(r"(?:[^'!]|'[^']*(?:'|$))*")
#: a character literal (to keep) or a run of blanks (to drop)
_QUOTED_OR_BLANKS = re.compile(r"'[^']*(?:'|$)|[ \t]+")


def _unquoted_bang(text: str) -> int:
    """Index of the first ``!`` outside character literals, or -1."""
    end = _TO_BANG.match(text).end()
    return end if end < len(text) else -1


def strip_format_spec(spec: str) -> str:
    """Remove whitespace outside quoted sections of a FORMAT body.

    This is the canonical spelling stored in ``FormatStmt.spec``: with no
    insignificant spaces, re-lexing unparsed output reproduces the spec
    byte-for-byte even when the unparser had to split it across
    continuation cards (card splits eat the spaces they cut at).
    """
    return _QUOTED_OR_BLANKS.sub(
        lambda m: m.group() if m.group()[0] == "'" else "", spec)


class _LogicalLine:
    """A logical statement: label, body text, and one (offset, line,
    column) record per non-empty card segment of the body."""

    __slots__ = ("label", "parts", "segments", "size", "first_line")

    def __init__(self, label: str | None, first_line: int):
        self.label = label
        self.parts: list[str] = []
        self.segments: list[tuple[int, int, int]] = []
        self.size = 0
        self.first_line = first_line

    def extend(self, body: str, lineno: int, col0: int) -> None:
        if body:
            self.segments.append((self.size, lineno, col0))
            self.parts.append(body)
            self.size += len(body)

    def loc(self, j: int) -> tuple[int, int]:
        """Source line and column of body character ``j`` (clamped to
        the last character)."""
        if not self.segments:
            return self.first_line, 7
        j = min(j, self.size - 1)
        for offset, line, col0 in reversed(self.segments):
            if offset <= j:
                break
        return line, col0 + j - offset

    def last_line(self) -> int:
        return self.segments[-1][1] if self.segments else self.first_line


class Lexer:
    """Tokenizes one logical statement at a time."""

    def __init__(self, source: str, sink: Optional[DiagnosticSink] = None):
        self._sink = sink if sink is not None else _RaisingSink(source)
        self._logical = self._split_logical_lines(source)

    # -- card assembly -------------------------------------------------

    def _card_layout(self, raw: str, lineno: int
                     ) -> tuple[str, str, str, int]:
        """Split one card into (label_field, cont_char, body, body_col).

        Applies the DEC tab convention and the column-72 cutoff; emits
        ``W201``/``W202`` warnings through the sink.
        """
        tab = raw.find("\t")
        if 0 <= tab <= 5 and raw[:tab].find("!") < 0:
            # DEC tab convention: the tab skips to column 7; a digit 1-9
            # right after it marks a continuation card.
            self._sink.warning(
                "W201",
                "tab in the label field: advancing to column 7 "
                "(DEC tab convention)", lineno, tab + 1)
            head = raw[:tab]
            rest = raw[tab + 1:]
            if rest[:1] and rest[0] in "123456789":
                label_field, cont, body, body_col = head, rest[0], rest[1:], 7
            else:
                label_field, cont, body, body_col = head, " ", rest, 7
        else:
            label_field = raw[:5]
            cont = raw[5:6]
            body = raw[6:]
            body_col = 7
        if len(body) > _BODY_WIDTH:
            kept, dropped = body[:_BODY_WIDTH], body[_BODY_WIDTH:]
            significant = (dropped.strip()
                           and not dropped.lstrip().startswith("!")
                           and _unquoted_bang(kept) < 0)
            if significant:
                self._sink.warning(
                    "W202",
                    f"text past column 72 is dropped: {dropped.strip()!r}",
                    lineno, body_col + _BODY_WIDTH)
            body = kept
        return label_field, cont, body, body_col

    def _split_logical_lines(self, source: str) -> list[_LogicalLine]:
        """Assemble physical cards into logical statements."""
        logical: list[_LogicalLine] = []
        current: Optional[_LogicalLine] = None
        for lineno, raw in enumerate(source.splitlines(), start=1):
            line = raw.rstrip("\n")
            if _is_comment_card(line):
                continue
            label_field, cont_field, body, body_col = \
                self._card_layout(line, lineno)
            is_continuation = (
                cont_field.strip() not in ("", "0")
                and not label_field.strip()
            )
            if is_continuation:
                if current is None:
                    self._sink.error(
                        "F004",
                        "continuation card with no statement to continue",
                        lineno, 6)
                    continue
                current.extend(body, lineno, body_col)
                continue
            # New statement card.
            if current is not None:
                logical.append(current)
            label = label_field.strip() or None
            if label is not None and not (label.isascii()
                                          and label.isdigit()):
                self._sink.error(
                    "F003", f"malformed statement label {label!r}",
                    lineno, 1 + label_field.index(label[0]))
                label = None
            current = _LogicalLine(label, lineno)
            current.extend(body, lineno, body_col)
        if current is not None:
            logical.append(current)
        return logical

    # ------------------------------------------------------------------

    def tokens(self) -> list[Token]:
        """Lex the whole source into a flat token list."""
        out: list[Token] = []
        for ll in self._logical:
            out.extend(self._lex_logical(ll))
        out.append(Token(TokenKind.EOF, "", 0, 0))
        return out

    # ------------------------------------------------------------------

    @staticmethod
    def _format_split(text: str) -> Optional[int]:
        """If ``text`` is a FORMAT statement body, index where the raw
        spec starts (at its opening paren); else None.

        The heuristic distinguishing the FORMAT keyword from an array
        named ``format``: the statement must end with the closing paren
        of the spec (``format(i) = 2`` keeps going after it).
        """
        stripped = text.lstrip()
        if stripped[:6].lower() != "format":
            return None
        rest = stripped[6:]
        if not rest.lstrip().startswith("("):
            return None
        bang = _unquoted_bang(text)
        effective = text[:bang] if bang >= 0 else text
        if not effective.rstrip().endswith(")"):
            return None
        offset = len(text) - len(stripped)
        return offset + 6 + (len(rest) - len(rest.lstrip()))

    def _lex_logical(self, ll: _LogicalLine) -> list[Token]:
        toks: list[Token] = []
        if ll.label is not None:
            toks.append(Token(TokenKind.LABEL, str(int(ll.label)),
                              ll.first_line, 1))
        text = "".join(ll.parts)

        fmt_at = self._format_split(text)
        if fmt_at is not None:
            line, col = ll.loc(text.lower().index("format"))
            toks.append(Token(TokenKind.IDENT, "format", line, col))
            bang = _unquoted_bang(text)
            raw = text[fmt_at:bang] if bang >= 0 else text[fmt_at:]
            rline, rcol = ll.loc(fmt_at)
            toks.append(Token(TokenKind.RAW, strip_format_spec(raw),
                              rline, rcol))
            toks.append(Token(TokenKind.NEWLINE, "", ll.last_line(), 73))
            return toks

        # one card segment (the usual case): columns follow offsets
        one_card = len(ll.segments) == 1
        if one_card:
            _, line, col0 = ll.segments[0]
        for m in _MASTER.finditer(text):
            group, simple = _GROUPS[m.lastindex]
            value = m.group(m.lastindex)
            start = m.end() - len(value)
            if one_card:
                col = col0 + start
            else:
                line, col = ll.loc(start)
            if simple is TokenKind.IDENT:
                toks.append(Token(simple, value.lower(), line, col))
            elif simple is not None:
                toks.append(Token(simple, _SPELLINGS[value.lower()],
                                  line, col))
            elif group == "number":
                value = value.lower()
                kind = (TokenKind.DOUBLE if "d" in value else
                        TokenKind.REAL if "." in value or "e" in value else
                        TokenKind.INT)
                toks.append(Token(kind, value, line, col))
            elif group == "string":
                if not m.group("close"):
                    self._sink.error("F002", "unterminated character literal",
                                     line, col)
                toks.append(Token(TokenKind.STRING,
                                  m.group("body").replace("''", "'"),
                                  line, col))
            elif group == "bang":
                break     # trailing comment
            elif group == "dot":
                self._sink.error(
                    "F005",
                    f"unexpected '.' sequence {text[start:start + 6]!r}",
                    line, col)
            else:
                self._sink.error("F001", f"unexpected character {value!r}",
                                 line, col)
        toks.append(Token(TokenKind.NEWLINE, "", ll.last_line(), 73))
        return toks


def lex_source(source: str,
               sink: Optional[DiagnosticSink] = None) -> list[Token]:
    """Convenience: lex ``source`` into a token list (ending with EOF)."""
    return Lexer(source, sink).tokens()
