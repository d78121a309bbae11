"""Recursive-descent parser for the Fortran 77 subset.

Statements are parsed one logical line at a time; block structure (labeled
DO termination, DO/END DO, block IF) is reconstructed with an explicit frame
stack, which naturally supports several nested DO loops sharing one terminal
label (``do 100 i`` / ``do 100 j`` / ``100 continue``).

The parser produces :class:`repro.fortran.ast_nodes.SourceFile`; any
``name(...)`` form in an expression becomes the unresolved :class:`Apply`
node, later resolved against the symbol table.

Two tables drive it.  ``_STATEMENT_TABLE`` is the statement inventory:
keyword(s), a guard that tells the statement from an assignment to a
variable of the same name (Fortran has no reserved words: ``data`` needs
a name next, ``read``/``write`` must not look like ``name(...) = ...``),
and a handler; a keyword no entry accepts starts an assignment.
``_INFIX`` gives each binary operator a left and a right binding power,
and :meth:`ExprParser.parse` is one loop over it.  Loosest to tightest:
``.eqv.``/``.neqv.``, ``.or.``, ``.and.``, prefix ``.not.``, the
relational operators (which do not associate: a second one is left to
the statement, which reports ``trailing tokens``), ``//``, ``+``/``-``
(a leading sign takes the whole first product: ``-a*b`` is
``-(a*b)``), ``*``/``/``, a sign after an operator (``x*-a*b`` is
``(x*(-a))*b``), and ``**`` (right-associative, its right operand may
be signed).

Two error contracts coexist:

- **fail-fast** (the default, no sink): the first error raises
  :class:`~repro.errors.ParseError`, always carrying a source line and
  column — the historical contract every existing caller relies on;
- **panic-mode recovery** (a :class:`~repro.fortran.diagnostics.DiagnosticSink`
  supplied): every error is recorded as a :class:`Diagnostic` and parsing
  resumes at the next statement boundary, so one bad card no longer hides
  the rest of the file.  Malformed program units are repaired where
  possible (open blocks force-closed at END, a missing END closes the
  unit at EOF) so a partial AST is still produced.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ParseError
from repro.fortran import ast_nodes as F
from repro.fortran.diagnostics import DiagnosticSink, _RaisingSink
from repro.fortran.lexer import lex_source
from repro.fortran.tokens import Token, TokenKind

_TYPE_KEYWORDS = {"integer", "real", "logical", "character", "doubleprecision"}

_RELATIONAL = {".lt.", ".le.", ".eq.", ".ne.", ".gt.", ".ge."}

#: I/O statement keywords that take a parenthesized control list
_IO_CONTROL_KEYWORDS = {"open", "close", "inquire"}
#: file-positioning statements: control list or a bare unit expression
_IO_POSITION_KEYWORDS = {"rewind", "backspace", "endfile"}


def _fail(code: str, message: str, line: int | None,
          col: int | None) -> None:
    """Raise a :class:`ParseError` stamped with a diagnostic code."""
    exc = ParseError(message, line, col)
    exc.code = code
    raise exc


class _StmtTokens:
    """Cursor over the tokens of one logical statement."""

    __slots__ = ("toks", "pos", "end")

    def __init__(self, toks: list[Token], label: Optional[Token] = None):
        self.toks = toks
        self.pos = 0
        # what the cursor reads past the last token: a NEWLINE where the
        # last token is — or, on a labelled card with no statement, where
        # the label is
        last = toks[-1] if toks else label
        self.end = Token(TokenKind.NEWLINE, "", last.line, last.col)

    # -- cursor primitives -------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = self.pos + offset
        return self.toks[i] if i < len(self.toks) else self.end

    def next(self) -> Token:
        i = self.pos
        self.pos = i + 1
        return self.toks[i] if i < len(self.toks) else self.end

    def at_end(self) -> bool:
        return self.pos >= len(self.toks)

    def expect(self, kind: TokenKind, value: str | None = None) -> Token:
        t = self.peek()
        if t.kind is not kind or (value is not None and t.value != value):
            want = value or kind.name
            _fail("F101", f"expected {want}, found {t.value!r}",
                  t.line, t.col)
        return self.next()

    def expect_ident(self, *names: str) -> Token:
        t = self.peek()
        if t.kind is not TokenKind.IDENT or (names and t.value not in names):
            _fail("F101",
                  f"expected identifier {'/'.join(names) or ''}, "
                  f"found {t.value!r}", t.line, t.col)
        return self.next()

    def accept(self, kind: TokenKind, value: str | None = None) -> Optional[Token]:
        t = self.peek()
        if t.kind is kind and (value is None or t.value == value):
            return self.next()
        return None

    def require_end(self) -> None:
        if not self.at_end():
            t = self.peek()
            _fail("F101", f"trailing tokens: {t.value!r}", t.line, t.col)


# ---------------------------------------------------------------------------
# expression parsing (binding powers)
# ---------------------------------------------------------------------------

#: binding power of a leading sign (the first term of a sum): its
#: operand is a whole product, ``-a*b`` is ``-(a*b)``
_ADD = 10
#: binding power of a sign after an operator and of ``**``: its operand
#: is a power, ``x*-a*b`` is ``(x*(-a))*b``
_POW = 13
#: operand binding power of prefix ``.not.``, which is allowed at that
#: binding power or looser: ``.not. a .lt. b`` is ``.not. (a .lt. b)``
_NOT = 7
#: left binding power of the relational operators, which do not
#: associate: a second one is left to the caller (``trailing tokens``)
_REL = 8

#: infix operator -> (left, right) binding power, loosest first:
#: ``.eqv.``/``.neqv.``, ``.or.``, ``.and.``, (prefix ``.not.``),
#: relational, ``//``, additive, multiplicative, (a sign after an
#: operator), ``**``.  A left-associative operator binds its right
#: operand one tighter; ``**`` (right-associative) at its own power
_INFIX: dict[str, tuple[int, int]] = {
    ".eqv.": (1, 2), ".neqv.": (1, 2),
    ".or.": (3, 4),
    ".and.": (5, 6),
    **{op: (_REL, _REL + 1) for op in _RELATIONAL},
    "//": (9, 10),
    "+": (_ADD, 11), "-": (_ADD, 11),
    "*": (11, 12), "/": (11, 12),
    "**": (_POW, _POW),
}


#: literal token kind -> the node its spelling makes
_LITERALS = {
    TokenKind.INT: lambda v: F.IntLit(int(v)),
    TokenKind.REAL: lambda v: F.RealLit(float(v)),
    TokenKind.DOUBLE: lambda v: F.RealLit(float(v.replace("d", "e")),
                                          double=True),
    TokenKind.LOGICAL: lambda v: F.LogicalLit(v == ".true."),
    TokenKind.STRING: F.StrLit,
}


class ExprParser:
    """Parses Fortran expressions from a :class:`_StmtTokens` cursor."""

    def __init__(self, ts: _StmtTokens):
        self.ts = ts

    def parse(self, min_bp: int = 0) -> F.Expr:
        """The longest expression whose operators bind at ``min_bp`` or
        tighter.  ``level`` is the binding power of the operator at the
        top of ``left``; a relational operator takes only a left operand
        that binds tighter than it."""
        ts = self.ts
        t = ts.peek()
        if t.kind is TokenKind.OP and t.value in ("+", "-"):
            ts.next()
            level = _ADD if min_bp <= _ADD else _POW
            left: F.Expr = F.UnOp(t.value, self.parse(
                _ADD + 1 if level == _ADD else _POW))
        elif t.kind is TokenKind.OP and t.value == ".not." \
                and min_bp <= _NOT:
            ts.next()
            level = _NOT
            left = F.UnOp(".not.", self.parse(_NOT))
        else:
            level = _POW + 1
            left = self._primary()
        while True:
            t = ts.peek()
            if t.kind is not TokenKind.OP or t.value not in _INFIX:
                return left
            lbp, rbp = _INFIX[t.value]
            if lbp < min_bp or (lbp == _REL and level <= _REL):
                return left
            ts.next()
            left = F.BinOp(t.value, left, self.parse(rbp))
            level = lbp

    def _primary(self) -> F.Expr:
        ts = self.ts
        t = ts.next()
        if t.kind is TokenKind.IDENT:
            if ts.peek().kind is TokenKind.LPAREN:
                ts.next()
                args = self._arg_list()
                ts.expect(TokenKind.RPAREN)
                return F.Apply(t.value, args)
            return F.Var(t.value)
        literal = _LITERALS.get(t.kind)
        if literal is not None:
            return literal(t.value)
        if t.kind is TokenKind.LPAREN:
            e = self.parse()
            ts.expect(TokenKind.RPAREN)
            return e
        _fail("F101", f"unexpected token {t.value!r} in expression",
              t.line, t.col)

    def _arg_list(self) -> list[F.Expr]:
        """Comma-separated args; each may be an expr or a section lo:hi[:st]."""
        args: list[F.Expr] = []
        if self.ts.peek().kind is TokenKind.RPAREN:
            return args
        while True:
            args.append(self._arg())
            if not self.ts.accept(TokenKind.COMMA):
                return args

    def _arg(self) -> F.Expr:
        lo: Optional[F.Expr] = None
        if self.ts.peek().kind not in (TokenKind.COLON,):
            lo = self.parse()
        if self.ts.accept(TokenKind.COLON):
            hi: Optional[F.Expr] = None
            if self.ts.peek().kind not in (TokenKind.COLON, TokenKind.COMMA,
                                           TokenKind.RPAREN):
                hi = self.parse()
            stride: Optional[F.Expr] = None
            if self.ts.accept(TokenKind.COLON):
                stride = self.parse()
            return F.RangeExpr(lo, hi, stride)
        assert lo is not None
        return lo


# ---------------------------------------------------------------------------
# statement & unit parsing
# ---------------------------------------------------------------------------

class _Frame:
    """Open block during statement-stream reconstruction."""

    __slots__ = ("kind", "node", "body", "arms", "do_label")

    def __init__(self, kind: str, node=None):
        self.kind = kind          # 'unit' | 'do' | 'if'
        self.node = node
        self.body: list[F.Stmt] = []
        self.arms: list[tuple[Optional[F.Expr], list[F.Stmt]]] = []
        self.do_label: Optional[int] = None


class Parser:
    """Parses a whole source file into a :class:`SourceFile`.

    ``sink`` switches the error contract: ``None`` keeps the historical
    fail-fast behavior (first error raises), a caller-supplied
    :class:`DiagnosticSink` enables panic-mode recovery at statement
    boundaries with every error recorded as a :class:`Diagnostic`.
    """

    def __init__(self, source: str, sink: Optional[DiagnosticSink] = None):
        self._recover = sink is not None
        self._sink = sink if sink is not None else _RaisingSink(source)
        self._stmts = self._split_statements(
            lex_source(source, self._sink))

    @staticmethod
    def _split_statements(tokens: list[Token]) -> list[tuple[Optional[int], _StmtTokens]]:
        out: list[tuple[Optional[int], _StmtTokens]] = []
        cur: list[Token] = []
        label: Optional[Token] = None
        for t in tokens:
            if t.kind is TokenKind.EOF:
                break
            if t.kind is TokenKind.LABEL:
                label = t
                continue
            if t.kind is TokenKind.NEWLINE:
                if cur or label is not None:
                    out.append((label and int(label.value),
                                _StmtTokens(cur, label)))
                cur = []
                label = None
                continue
            cur.append(t)
        if cur or label is not None:
            out.append((label and int(label.value), _StmtTokens(cur, label)))
        return out

    # -- error reporting ------------------------------------------------

    def _error(self, code: str, message: str, line: int | None,
               col: int | None) -> None:
        """Report a structure-level error and, in recovery mode, continue.

        Fail-fast mode raises; recovery mode records the diagnostic and
        returns so the caller can apply a local repair (force-close a
        block, skip a marker) instead of abandoning the statement.
        """
        if not self._recover:
            _fail(code, message, line, col)
        self._sink.error(code, message, max(line or 1, 1), max(col or 1, 1))

    # ------------------------------------------------------------------

    def parse(self) -> F.SourceFile:
        units: list[F.ProgramUnit] = []
        stack: list[_Frame] = []
        unit: Optional[F.ProgramUnit] = None
        in_specs = True
        last_line = 1

        def append(stmt: F.Stmt, label: Optional[int]) -> bool:
            nonlocal in_specs
            stmt.label = label
            if unit is None:
                self._error("F102", "statement outside any program unit",
                            stmt.line, 7)
                return False
            is_spec = isinstance(stmt, (
                F.TypeDecl, F.DimensionStmt, F.CommonStmt, F.ParameterStmt,
                F.DataStmt, F.EquivalenceStmt, F.ImplicitStmt, F.ExternalStmt,
                F.IntrinsicStmt, F.SaveStmt, F.FormatStmt))
            if in_specs and is_spec and len(stack) == 1:
                unit.specs.append(stmt)
                return True
            in_specs = False
            stack[-1].body.append(stmt)
            # close labeled DO loops terminated by this statement
            while (label is not None and stack and stack[-1].kind == "do"
                   and stack[-1].do_label == label):
                fr = stack.pop()
                loop: F.DoLoop = fr.node
                loop.body = fr.body
                stack[-1].body.append(loop)
            return True

        def force_close(line: int) -> None:
            """Repair an unclosed DO/IF stack down to the unit frame."""
            while len(stack) > 1:
                fr = stack.pop()
                if fr.kind == "do":
                    loop = fr.node
                    loop.body = fr.body
                    stack[-1].body.append(loop)
                else:  # 'if'
                    fr.arms.append((fr.node, fr.body))
                    stack[-1].body.append(F.IfBlock(arms=fr.arms, line=line))

        def close_unit() -> None:
            nonlocal unit
            unit.body = stack[0].body
            units.append(unit)
            unit = None

        for label, ts in self._stmts:
            first = ts.peek()
            if first.line:
                last_line = first.line
            try:
                if first.kind is TokenKind.NEWLINE and label is not None:
                    append(F.ContinueStmt(line=first.line), label)
                    continue
                if first.kind is not TokenKind.IDENT:
                    _fail("F105",
                          f"statement cannot start with {first.value!r}",
                          first.line, first.col)
                kw = first.value
                line = first.line

                # ---- unit boundaries ----
                if unit is None:
                    try:
                        unit = self._parse_unit_header(ts)
                    except ParseError:
                        if not self._recover:
                            raise
                        # Recovery: treat the file as an implicit main
                        # program so the remaining statements still parse
                        # (once, quietly — the header error is reported).
                        self._error(
                            "F102",
                            f"expected a program-unit header, found "
                            f"{first.value!r} — treating as an implicit "
                            f"PROGRAM", first.line, first.col)
                        unit = F.MainProgram(name="main")
                        stack = [_Frame("unit", unit)]
                        in_specs = True
                        ts.pos = 0
                    else:
                        stack = [_Frame("unit", unit)]
                        in_specs = True
                        continue

                if kw == "end" and len(ts.toks) == 1:
                    if len(stack) != 1:
                        self._error("F104",
                                    "END with unclosed DO or IF block",
                                    line, first.col)
                        force_close(line)
                    close_unit()
                    continue

                stmt_or_marker = self._parse_statement(ts, line)
                if isinstance(stmt_or_marker, str):
                    marker = stmt_or_marker
                    if marker == "enddo":
                        if not stack or stack[-1].kind != "do":
                            self._error("F104", "END DO without matching DO",
                                        line, first.col)
                            continue
                        fr = stack.pop()
                        loop = fr.node
                        loop.body = fr.body
                        stack[-1].body.append(loop)
                    elif marker in ("else", "endif") or marker.startswith("elseif"):
                        if not stack or stack[-1].kind != "if":
                            self._error("F104",
                                        f"{marker} without matching IF",
                                        line, first.col)
                            continue
                        fr = stack[-1]
                        fr.arms.append((fr.node, fr.body))
                        if marker == "endif":
                            stack.pop()
                            ifblock = F.IfBlock(arms=fr.arms, line=line)
                            stack[-1].body.append(ifblock)
                        else:
                            fr.body = []
                            fr.node = self._pending_cond if marker != "else" else None
                    continue

                stmt = stmt_or_marker
                if isinstance(stmt, F.DoLoop):
                    if unit is None:
                        self._error("F102",
                                    "statement outside any program unit",
                                    line, 7)
                        continue
                    in_specs = False
                    stmt.label = label
                    fr = _Frame("do", stmt)
                    fr.do_label = stmt.do_label
                    stack.append(fr)
                    continue
                if isinstance(stmt, F.IfBlock) and not stmt.arms:
                    # opening "if (c) then": condition stashed on _pending_cond
                    if unit is None:
                        self._error("F102",
                                    "statement outside any program unit",
                                    line, 7)
                        continue
                    in_specs = False
                    fr = _Frame("if")
                    fr.node = self._pending_cond
                    stack.append(fr)
                    continue
                append(stmt, label)
            except ParseError as exc:
                if not self._recover:
                    raise
                self._sink.error(
                    getattr(exc, "code", None) or "F101",
                    getattr(exc, "raw_message", str(exc)),
                    exc.line if exc.line else (first.line or 1),
                    exc.col if exc.col else (first.col or 1))
                continue

        if unit is not None:
            self._error("F103", f"missing END for unit {unit.name!r}",
                        last_line, 7)
            force_close(last_line)
            close_unit()
        return F.SourceFile(units)

    # ------------------------------------------------------------------

    def _parse_unit_header(self, ts: _StmtTokens) -> F.ProgramUnit:
        t = ts.peek()
        kw = t.value
        if kw == "program":
            ts.next()
            name = ts.expect(TokenKind.IDENT).value
            ts.require_end()
            return F.MainProgram(name=name)
        if kw == "subroutine":
            ts.next()
            name = ts.expect(TokenKind.IDENT).value
            args = self._parse_dummy_args(ts)
            ts.require_end()
            return F.Subroutine(name=name, args=args)
        # [type] function name(args)
        rettype = None
        save = ts.pos
        if kw in _TYPE_KEYWORDS or kw == "double":
            rettype = self._parse_type_spec(ts)
            if ts.peek().is_ident("function"):
                kw = "function"
            else:
                ts.pos = save
                rettype = None
        if ts.peek().is_ident("function"):
            ts.next()
            name = ts.expect(TokenKind.IDENT).value
            args = self._parse_dummy_args(ts)
            ts.require_end()
            return F.Function(name=name, args=args, result_type=rettype)
        _fail("F101",
              f"expected a program-unit header, found {t.value!r}",
              t.line, t.col)

    @staticmethod
    def _parse_dummy_args(ts: _StmtTokens) -> list[str]:
        args: list[str] = []
        if ts.accept(TokenKind.LPAREN):
            if not ts.accept(TokenKind.RPAREN):
                while True:
                    args.append(ts.expect(TokenKind.IDENT).value)
                    if ts.accept(TokenKind.RPAREN):
                        break
                    ts.expect(TokenKind.COMMA)
        return args

    # ------------------------------------------------------------------

    def _parse_statement(self, ts: _StmtTokens, line: int):
        """Parse the statement at the cursor (its keyword is the current
        token); returns a Stmt, or a control marker string.  The first
        ``_STATEMENTS`` entry for the keyword whose guard holds parses
        it; with none, it is an assignment."""
        for guard, handler in _STATEMENTS.get(ts.peek().value, ()):
            if guard is None or guard(ts):
                return handler(self, ts, line)
        return self._parse_assignment(ts, line)

    # -- small statements ------------------------------------------------

    def _parse_dimension(self, ts: _StmtTokens, line: int):
        ts.next()
        return F.DimensionStmt(entities=self._parse_entity_list(ts),
                               line=line)

    def _parse_implicit(self, ts: _StmtTokens, line: int):
        ts.next()
        ts.expect_ident("none")
        ts.require_end()
        return F.ImplicitStmt(none=True, line=line)

    def _parse_names(self, ts: _StmtTokens, line: int):
        """``EXTERNAL`` / ``INTRINSIC`` name list."""
        cls = {"external": F.ExternalStmt,
               "intrinsic": F.IntrinsicStmt}[ts.next().value]
        names = [ts.expect(TokenKind.IDENT).value]
        while ts.accept(TokenKind.COMMA):
            names.append(ts.expect(TokenKind.IDENT).value)
        ts.require_end()
        return cls(names=names, line=line)

    def _parse_entry(self, ts: _StmtTokens, line: int):
        ts.next()
        name = ts.expect(TokenKind.IDENT).value
        args = self._parse_dummy_args(ts)
        ts.require_end()
        return F.EntryStmt(name=name, args=args, line=line)

    def _parse_format(self, ts: _StmtTokens, line: int):
        ts.next()
        spec = ts.next().value
        ts.require_end()
        return F.FormatStmt(spec=spec, line=line)

    def _parse_elseif(self, ts: _StmtTokens, line: int):
        ts.next()
        if ts.peek().is_ident("if"):
            ts.next()
        ts.expect(TokenKind.LPAREN)
        cond = ExprParser(ts).parse()
        ts.expect(TokenKind.RPAREN)
        ts.expect_ident("then")
        ts.require_end()
        self._pending_cond = cond
        return "elseif"

    def _parse_else(self, ts: _StmtTokens, line: int):
        ts.next()
        ts.require_end()
        return "else"

    def _parse_assign_label(self, ts: _StmtTokens, line: int):
        ts.next()
        target = int(ts.expect(TokenKind.INT).value)
        ts.expect_ident("to")
        var = ts.expect(TokenKind.IDENT).value
        ts.require_end()
        return F.AssignLabelStmt(target=target, var=var, line=line)

    def _parse_continue(self, ts: _StmtTokens, line: int):
        ts.next()
        ts.require_end()
        return F.ContinueStmt(line=line)

    def _parse_call(self, ts: _StmtTokens, line: int):
        ts.next()
        name = ts.expect(TokenKind.IDENT).value
        args: list[F.Expr] = []
        if ts.accept(TokenKind.LPAREN):
            if not ts.accept(TokenKind.RPAREN):
                args = ExprParser(ts)._arg_list()
                ts.expect(TokenKind.RPAREN)
        ts.require_end()
        return F.CallStmt(name=name, args=args, line=line)

    def _parse_return(self, ts: _StmtTokens, line: int):
        ts.next()
        return F.ReturnStmt(line=line)

    def _parse_stop(self, ts: _StmtTokens, line: int):
        ts.next()
        msg = None
        t = ts.peek()
        if t.kind in (TokenKind.STRING, TokenKind.INT):
            ts.next()
            msg = t.value
        ts.require_end()
        return F.StopStmt(message=msg, line=line)

    def _parse_io_control_stmt(self, ts: _StmtTokens, line: int):
        """``OPEN`` / ``CLOSE`` / ``INQUIRE`` (control list)."""
        kw = ts.next().value
        controls = self._parse_io_controls(ts)
        ts.require_end()
        return F.IoStmt(kind=kw, controls=controls, line=line)

    def _parse_io_position(self, ts: _StmtTokens, line: int):
        """``REWIND`` / ``BACKSPACE`` / ``ENDFILE`` (control list or a
        bare unit expression)."""
        kw = ts.next().value
        if ts.peek().kind is TokenKind.LPAREN:
            controls = self._parse_io_controls(ts)
        else:
            controls = [F.IoControl(None, ExprParser(ts).parse())]
        ts.require_end()
        return F.IoStmt(kind=kw, controls=controls, line=line)

    @staticmethod
    def _looks_like_assignment(ts: _StmtTokens) -> bool:
        """True for ``name(...) = expr`` — an array-element assignment to
        a variable that happens to share an I/O keyword's name."""
        if ts.peek(1).kind is not TokenKind.LPAREN:
            return ts.peek(1).kind is TokenKind.EQUALS
        depth = 0
        for i in range(1, len(ts.toks) - ts.pos):
            t = ts.peek(i)
            if t.kind is TokenKind.LPAREN:
                depth += 1
            elif t.kind is TokenKind.RPAREN:
                depth -= 1
                if depth == 0:
                    return ts.peek(i + 1).kind is TokenKind.EQUALS
        return False

    # -- declarations --------------------------------------------------

    def _parse_type_spec(self, ts: _StmtTokens) -> F.TypeSpec:
        t = ts.next()
        base = t.value
        if base == "double":
            ts.expect_ident("precision")
            base = "doubleprecision"
        char_len: Optional[F.Expr] = None
        if base == "character" and ts.accept(TokenKind.OP, "*"):
            if ts.accept(TokenKind.LPAREN):
                if ts.accept(TokenKind.OP, "*"):
                    char_len = None
                else:
                    char_len = ExprParser(ts).parse()
                ts.expect(TokenKind.RPAREN)
            else:
                char_len = F.IntLit(int(ts.expect(TokenKind.INT).value))
        return F.TypeSpec(base, char_len)

    def _parse_type_decl(self, ts: _StmtTokens, line: int) -> F.TypeDecl:
        spec = self._parse_type_spec(ts)
        entities = self._parse_entity_list(ts)
        return F.TypeDecl(type=spec, entities=entities, line=line)

    def _parse_entity_list(self, ts: _StmtTokens) -> list[F.EntityDecl]:
        entities = [self._parse_entity(ts)]
        while ts.accept(TokenKind.COMMA):
            entities.append(self._parse_entity(ts))
        ts.require_end()
        return entities

    def _parse_entity(self, ts: _StmtTokens) -> F.EntityDecl:
        name = ts.expect(TokenKind.IDENT).value
        dims: list[F.DimSpec] = []
        if ts.accept(TokenKind.LPAREN):
            while True:
                dims.append(self._parse_dim(ts))
                if ts.accept(TokenKind.RPAREN):
                    break
                ts.expect(TokenKind.COMMA)
        return F.EntityDecl(name=name, dims=dims)

    def _parse_dim(self, ts: _StmtTokens) -> F.DimSpec:
        if ts.accept(TokenKind.OP, "*"):
            return F.DimSpec(None, None)
        first = ExprParser(ts).parse()
        if ts.accept(TokenKind.COLON):
            if ts.accept(TokenKind.OP, "*"):
                return F.DimSpec(first, None)
            return F.DimSpec(first, ExprParser(ts).parse())
        return F.DimSpec(None, first)

    def _parse_common(self, ts: _StmtTokens, line: int) -> F.CommonStmt:
        ts.next()
        block = ""
        if ts.accept(TokenKind.OP, "/"):
            block = ts.expect(TokenKind.IDENT).value
            ts.expect(TokenKind.OP, "/")
        entities = [self._parse_entity(ts)]
        while ts.accept(TokenKind.COMMA):
            entities.append(self._parse_entity(ts))
        ts.require_end()
        return F.CommonStmt(block=block, entities=entities, line=line)

    def _parse_parameter(self, ts: _StmtTokens, line: int) -> F.ParameterStmt:
        ts.next()
        ts.expect(TokenKind.LPAREN)
        defs: list[tuple[str, F.Expr]] = []
        while True:
            name = ts.expect(TokenKind.IDENT).value
            ts.expect(TokenKind.EQUALS)
            defs.append((name, ExprParser(ts).parse()))
            if ts.accept(TokenKind.RPAREN):
                break
            ts.expect(TokenKind.COMMA)
        ts.require_end()
        return F.ParameterStmt(defs=defs, line=line)

    def _parse_save(self, ts: _StmtTokens, line: int) -> F.SaveStmt:
        """``SAVE``, ``SAVE a, b``, ``SAVE /block/, c``."""
        ts.next()
        names: list[str] = []
        if not ts.at_end():
            while True:
                if ts.accept(TokenKind.OP, "/"):
                    nm = ts.expect(TokenKind.IDENT).value
                    ts.expect(TokenKind.OP, "/")
                    names.append(f"/{nm}/")
                else:
                    names.append(ts.expect(TokenKind.IDENT).value)
                if not ts.accept(TokenKind.COMMA):
                    break
        ts.require_end()
        return F.SaveStmt(names=names, line=line)

    def _parse_data(self, ts: _StmtTokens, line: int) -> F.DataStmt:
        # Names are variables/array elements (primaries); values are signed
        # constants with optional repeat counts (``3*0.0``).  Full
        # expression parsing would eat the '/' delimiters as division.
        # Several groups (``data a /1/, b /2/``) merge into one flat
        # name/value pair — semantically identical in F77.
        ts.next()
        names: list[F.Expr] = []
        values: list[F.Expr] = []

        def signed_constant() -> F.Expr:
            t = ts.peek()
            if t.kind is TokenKind.OP and t.value in ("+", "-"):
                ts.next()
                return F.UnOp(t.value, ExprParser(ts)._primary())
            return ExprParser(ts)._primary()

        def value_item() -> F.Expr:
            v = signed_constant()
            if isinstance(v, F.IntLit) and ts.accept(TokenKind.OP, "*"):
                # repeat count: 3*0.0 — kept as a BinOp, unparses as 3 * 0.0
                return F.BinOp("*", v, signed_constant())
            return v

        while True:
            names.append(ExprParser(ts)._primary())
            while ts.accept(TokenKind.COMMA):
                names.append(ExprParser(ts)._primary())
            ts.expect(TokenKind.OP, "/")
            values.append(value_item())
            while ts.accept(TokenKind.COMMA):
                values.append(value_item())
            ts.expect(TokenKind.OP, "/")
            if ts.at_end():
                break
            ts.accept(TokenKind.COMMA)  # optional separator between groups
        ts.require_end()
        return F.DataStmt(names=names, values=values, line=line)

    def _parse_equivalence(self, ts: _StmtTokens, line: int) -> F.EquivalenceStmt:
        ts.next()
        groups: list[list[F.Expr]] = []
        while True:
            ts.expect(TokenKind.LPAREN)
            group = [ExprParser(ts).parse()]
            while ts.accept(TokenKind.COMMA):
                group.append(ExprParser(ts).parse())
            ts.expect(TokenKind.RPAREN)
            groups.append(group)
            if not ts.accept(TokenKind.COMMA):
                break
        ts.require_end()
        return F.EquivalenceStmt(groups=groups, line=line)

    # -- control -------------------------------------------------------

    def _parse_do(self, ts: _StmtTokens, line: int) -> F.DoLoop:
        ts.next()
        do_label: Optional[int] = None
        t = ts.peek()
        if t.kind is TokenKind.INT:
            ts.next()
            do_label = int(t.value)
        var = ts.expect(TokenKind.IDENT).value
        ts.expect(TokenKind.EQUALS)
        start = ExprParser(ts).parse()
        ts.expect(TokenKind.COMMA)
        end = ExprParser(ts).parse()
        step: Optional[F.Expr] = None
        if ts.accept(TokenKind.COMMA):
            step = ExprParser(ts).parse()
        ts.require_end()
        return F.DoLoop(var=var, start=start, end=end, step=step,
                        do_label=do_label, line=line)

    def _parse_goto(self, ts: _StmtTokens, line: int):
        """Plain, computed, and assigned GOTO."""
        ts.next()
        if ts.peek().is_ident("to"):
            ts.next()
        t = ts.peek()
        if t.kind is TokenKind.LPAREN:
            ts.next()
            targets = [int(ts.expect(TokenKind.INT).value)]
            while ts.accept(TokenKind.COMMA):
                targets.append(int(ts.expect(TokenKind.INT).value))
            ts.expect(TokenKind.RPAREN)
            ts.accept(TokenKind.COMMA)
            idx = ExprParser(ts).parse()
            ts.require_end()
            return F.ComputedGoto(targets=targets, index=idx, line=line)
        if t.kind is TokenKind.IDENT:
            # assigned GOTO: goto var [, (labels)]
            ts.next()
            targets: list[int] = []
            ts.accept(TokenKind.COMMA)
            if ts.accept(TokenKind.LPAREN):
                targets.append(int(ts.expect(TokenKind.INT).value))
                while ts.accept(TokenKind.COMMA):
                    targets.append(int(ts.expect(TokenKind.INT).value))
                ts.expect(TokenKind.RPAREN)
            ts.require_end()
            return F.AssignedGoto(var=t.value, targets=targets, line=line)
        target = int(ts.expect(TokenKind.INT).value)
        ts.require_end()
        return F.Goto(target=target, line=line)

    _pending_cond: Optional[F.Expr] = None

    def _parse_if(self, ts: _StmtTokens, line: int):
        ts.next()
        ts.expect(TokenKind.LPAREN)
        cond = ExprParser(ts).parse()
        ts.expect(TokenKind.RPAREN)
        if ts.peek().is_ident("then") and ts.pos == len(ts.toks) - 1:
            ts.next()
            self._pending_cond = cond
            return F.IfBlock(arms=[], line=line)  # marker: opening of block IF
        # logical IF: one trailing statement
        inner_tok = ts.peek()
        inner = self._parse_statement(ts, line)
        if isinstance(inner, str) or isinstance(inner, (F.DoLoop, F.IfBlock)):
            _fail("F105", "invalid statement in logical IF",
                  line, inner_tok.col)
        return F.LogicalIf(cond=cond, stmt=inner, line=line)

    # -- I/O -----------------------------------------------------------

    def _parse_io_controls(self, ts: _StmtTokens) -> list[F.IoControl]:
        """A parenthesized I/O control list: positional or KEYWORD=value
        entries; ``*`` becomes :class:`Star`."""
        ts.expect(TokenKind.LPAREN)
        controls: list[F.IoControl] = []
        if ts.accept(TokenKind.RPAREN):
            return controls
        while True:
            keyword: Optional[str] = None
            if ts.peek().kind is TokenKind.IDENT \
                    and ts.peek(1).kind is TokenKind.EQUALS:
                keyword = ts.next().value
                ts.next()
            if ts.peek().kind is TokenKind.OP and ts.peek().value == "*":
                ts.next()
                value: F.Expr = F.Star()
            else:
                value = ExprParser(ts).parse()
            controls.append(F.IoControl(keyword, value))
            if ts.accept(TokenKind.RPAREN):
                break
            ts.expect(TokenKind.COMMA)
        return controls

    def _parse_io_items(self, ts: _StmtTokens) -> list[F.Expr]:
        items: list[F.Expr] = []
        if not ts.at_end():
            items.append(ExprParser(ts).parse())
            while ts.accept(TokenKind.COMMA):
                items.append(ExprParser(ts).parse())
        ts.require_end()
        return items

    @staticmethod
    def _is_star_star(controls: list[F.IoControl]) -> bool:
        return (len(controls) == 2
                and all(c.keyword is None and isinstance(c.value, F.Star)
                        for c in controls))

    def _parse_read_write(self, ts: _StmtTokens, line: int):
        kind = ts.next().value
        if kind == "read" and ts.peek().kind is not TokenKind.LPAREN:
            # read *, items   |   read 100, items
            if ts.accept(TokenKind.OP, "*"):
                items = []
                while ts.accept(TokenKind.COMMA):
                    items.append(ExprParser(ts).parse())
                ts.require_end()
                return F.ReadStmt(items=items, line=line)
            fmt = ExprParser(ts).parse()
            controls = [F.IoControl(None, fmt)]
            items = []
            while ts.accept(TokenKind.COMMA):
                items.append(ExprParser(ts).parse())
            ts.require_end()
            return F.IoStmt(kind="read", controls=controls, items=items,
                            line=line)
        controls = self._parse_io_controls(ts)
        items = self._parse_io_items(ts)
        if self._is_star_star(controls):
            # write(*,*) / read(*,*): the legacy list-directed nodes the
            # interpreter executes
            if kind == "write":
                return F.PrintStmt(items=items, line=line)
            return F.ReadStmt(items=items, line=line)
        return F.IoStmt(kind=kind, controls=controls, items=items, line=line)

    def _parse_print(self, ts: _StmtTokens, line: int):
        ts.next()
        if ts.accept(TokenKind.OP, "*"):
            items: list[F.Expr] = []
            while ts.accept(TokenKind.COMMA):
                items.append(ExprParser(ts).parse())
            ts.require_end()
            return F.PrintStmt(items=items, line=line)
        fmt = ExprParser(ts).parse()
        controls = [F.IoControl(None, fmt)]
        items = []
        while ts.accept(TokenKind.COMMA):
            items.append(ExprParser(ts).parse())
        ts.require_end()
        return F.IoStmt(kind="print", controls=controls, items=items,
                        line=line)

    # -- assignment ----------------------------------------------------

    def _parse_assignment(self, ts: _StmtTokens, line: int) -> F.Assign:
        first = ts.peek()
        target = ExprParser(ts)._primary()
        if not isinstance(target, (F.Var, F.Apply)):
            _fail("F105", "invalid assignment target", line, first.col)
        ts.expect(TokenKind.EQUALS)
        value = ExprParser(ts).parse()
        ts.require_end()
        return F.Assign(target=target, value=value, line=line)


def _next(*kinds: TokenKind):
    """Guard: the token after the keyword is of one of ``kinds``."""
    return lambda ts: ts.peek(1).kind in kinds


def _next_ident(name: str):
    """Guard: the token after the keyword is the identifier ``name``."""
    return lambda ts: ts.peek(1).is_ident(name)


def _io_statement(ts: _StmtTokens) -> bool:
    """Guard of READ and REWIND/…: not ``name [(...)] = ...``."""
    return ts.peek(1).kind is not TokenKind.EQUALS \
        and not Parser._looks_like_assignment(ts)


def _io_control_list(ts: _StmtTokens) -> bool:
    """Guard of WRITE and OPEN/…: ``(`` but not ``name(...) = ...``."""
    return ts.peek(1).kind is TokenKind.LPAREN \
        and not Parser._looks_like_assignment(ts)


def _marker(name: str):
    return lambda parser, ts, line: name


#: The statement inventory: keyword(s), guard (``None``: always), and
#: handler ``(parser, ts, line)``.  Fortran has no reserved words, so a
#: guard tells a statement from an assignment to a variable of the same
#: name; a keyword's entries are tried in this order.
_STATEMENT_TABLE = (
    (_TYPE_KEYWORDS, None, Parser._parse_type_decl),
    ("double", _next_ident("precision"), Parser._parse_type_decl),
    ("dimension", None, Parser._parse_dimension),
    ("common", None, Parser._parse_common),
    ("parameter", _next(TokenKind.LPAREN), Parser._parse_parameter),
    ("data", _next(TokenKind.IDENT), Parser._parse_data),
    ("equivalence", _next(TokenKind.LPAREN), Parser._parse_equivalence),
    ("implicit", None, Parser._parse_implicit),
    ("save", lambda ts: ts.peek(1).kind in (TokenKind.NEWLINE,
                                            TokenKind.IDENT)
     or (ts.peek(1).kind is TokenKind.OP and ts.peek(1).value == "/"),
     Parser._parse_save),
    (("external", "intrinsic"), _next(TokenKind.IDENT), Parser._parse_names),
    ("entry", _next(TokenKind.IDENT), Parser._parse_entry),
    ("format", _next(TokenKind.RAW), Parser._parse_format),
    ("do", _next(TokenKind.INT, TokenKind.IDENT), Parser._parse_do),
    ("enddo", None, _marker("enddo")),
    ("end", _next_ident("do"), _marker("enddo")),
    ("endif", None, _marker("endif")),
    ("end", _next_ident("if"), _marker("endif")),
    ("elseif", None, Parser._parse_elseif),
    ("else", _next_ident("if"), Parser._parse_elseif),
    ("else", None, Parser._parse_else),
    ("if", _next(TokenKind.LPAREN), Parser._parse_if),
    ("goto", None, Parser._parse_goto),
    ("go", _next_ident("to"), Parser._parse_goto),
    ("assign", _next(TokenKind.INT), Parser._parse_assign_label),
    ("continue", None, Parser._parse_continue),
    ("call", None, Parser._parse_call),
    ("return", _next(TokenKind.NEWLINE), Parser._parse_return),
    ("stop", _next(TokenKind.STRING, TokenKind.INT, TokenKind.NEWLINE),
     Parser._parse_stop),
    ("print", lambda ts: ts.peek(1).kind is not TokenKind.EQUALS,
     Parser._parse_print),
    ("write", _io_control_list, Parser._parse_read_write),
    ("read", _io_statement, Parser._parse_read_write),
    (_IO_CONTROL_KEYWORDS, _io_control_list, Parser._parse_io_control_stmt),
    (_IO_POSITION_KEYWORDS, _io_statement, Parser._parse_io_position),
)

#: keyword -> its (guard, handler) entries, in table order
_STATEMENTS: dict[str, list] = {}
for _kws, _guard, _handler in _STATEMENT_TABLE:
    for _kw in ((_kws,) if isinstance(_kws, str) else sorted(_kws)):
        _STATEMENTS.setdefault(_kw, []).append((_guard, _handler))


def parse_program(source: str,
                  sink: Optional[DiagnosticSink] = None) -> F.SourceFile:
    """Parse Fortran 77 source text into a :class:`SourceFile` AST.

    With a ``sink``, errors are collected as diagnostics and parsing
    recovers at statement boundaries (the returned AST covers whatever
    parsed); without one, the first error raises :class:`ParseError`.
    """
    return Parser(source, sink).parse()
