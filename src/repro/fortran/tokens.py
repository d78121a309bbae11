"""Token kinds and the Token record produced by the fixed-form lexer."""

from __future__ import annotations

from enum import Enum, auto


class TokenKind(Enum):
    """Lexical category of a token."""

    IDENT = auto()       # identifiers and keywords (Fortran has no reserved words)
    INT = auto()         # integer literal
    REAL = auto()        # real literal (single precision)
    DOUBLE = auto()      # double-precision literal (d exponent)
    STRING = auto()      # character literal
    LOGICAL = auto()     # .true. / .false.
    OP = auto()          # operator, including dot-operators like .and.
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    COLON = auto()
    EQUALS = auto()
    NEWLINE = auto()     # end of a logical statement line
    LABEL = auto()       # numeric statement label (columns 1-5)
    RAW = auto()         # verbatim text (the body of a FORMAT statement)
    EOF = auto()


#: Dot-delimited operators, longest-match order.
DOT_OPERATORS = (
    ".neqv.", ".eqv.", ".and.", ".not.", ".or.",
    ".lt.", ".le.", ".eq.", ".ne.", ".gt.", ".ge.",
)

#: Dot-delimited logical constants.
DOT_CONSTANTS = (".true.", ".false.")

#: Multi-character symbolic operators, longest first.
SYMBOL_OPERATORS = ("**", "//", "+", "-", "*", "/")


class Token:
    """A single lexical token.

    ``value`` holds the canonical text: identifiers and dot-operators are
    lower-cased; literals keep their spelling.  A slotted class rather
    than a dataclass: the lexer builds one per token, and tokens compare
    and hash by value.
    """

    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind: TokenKind, value: str, line: int, col: int):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def _key(self) -> tuple:
        return (self.kind, self.value, self.line, self.col)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def is_ident(self, *names: str) -> bool:
        """True if this token is an identifier equal to one of ``names``."""
        return self.kind is TokenKind.IDENT and self.value in names

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind.name}, {self.value!r}, {self.line}:{self.col})"
