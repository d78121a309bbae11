"""Symbol tables and Apply-resolution for parsed program units.

:func:`build_symbol_table` walks a program unit's specification statements,
records every declared entity (type, array bounds, COMMON membership,
PARAMETER constants), applies Fortran's implicit typing rules to the rest,
and rewrites every unresolved :class:`Apply` expression into either an
:class:`ArrayRef` (name declared as an array) or a :class:`FuncCall`
(intrinsic or external).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import SemanticError
from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import is_intrinsic


@dataclass
class ArrayBounds:
    """Declared bounds of one array dimension (exprs; lower defaults 1)."""
    lower: F.Expr
    upper: Optional[F.Expr]  # None = assumed-size '*'


@dataclass
class Symbol:
    """One name in a program unit's scope."""

    name: str
    type: str = "real"               # integer|real|doubleprecision|logical|character
    dims: list[ArrayBounds] = field(default_factory=list)
    is_parameter: bool = False
    param_value: Optional[F.Expr] = None
    is_dummy: bool = False           # dummy argument of the unit
    common_block: Optional[str] = None
    is_external: bool = False
    is_function: bool = False
    char_len: Optional[F.Expr] = None
    saved: bool = False
    # Cedar placement annotation filled in by the globalization pass:
    placement: Optional[str] = None  # 'global' | 'cluster' | None (=default)

    @property
    def is_array(self) -> bool:
        return bool(self.dims)

    @property
    def rank(self) -> int:
        return len(self.dims)


def type_of(symtab: Optional["SymbolTable"], name: str) -> str:
    """The type of ``name``: as ``symtab`` declares it, else by Fortran's
    implicit rule — INTEGER for a name starting with I to N, REAL for
    any other — also when there is no table.  Inserts nothing."""
    sym = symtab.symbols.get(name) if symtab is not None else None
    if sym is not None:
        return sym.type
    return "integer" if name[0] in "ijklmn" else "real"


class SymbolTable:
    """Scope of one program unit."""

    def __init__(self, unit: F.ProgramUnit):
        self.unit = unit
        self.symbols: dict[str, Symbol] = {}
        self.implicit_none = False
        self.equivalences: list[list[F.Expr]] = []
        self.common_blocks: dict[str, list[str]] = {}

    # -- access ---------------------------------------------------------

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name)

    def get(self, name: str) -> Symbol:
        sym = self.symbols.get(name)
        if sym is None:
            if self.implicit_none:
                raise SemanticError(f"undeclared name {name!r} under IMPLICIT NONE")
            sym = Symbol(name=name, type=type_of(None, name))
            self.symbols[name] = sym
        return sym

    def is_array(self, name: str) -> bool:
        sym = self.symbols.get(name)
        return sym is not None and sym.is_array

    def arrays(self) -> list[Symbol]:
        return [s for s in self.symbols.values() if s.is_array]

    def declare(self, name: str) -> Symbol:
        if name not in self.symbols:
            self.symbols[name] = Symbol(name=name, type=type_of(None, name))
        return self.symbols[name]

    # -- construction -----------------------------------------------------

    def _record_entity(self, ent: F.EntityDecl, type_: str | None,
                       char_len: Optional[F.Expr] = None) -> None:
        sym = self.declare(ent.name)
        if type_ is not None:
            sym.type = type_
            sym.char_len = char_len
        if ent.dims:
            if sym.dims:
                raise SemanticError(f"array {ent.name!r} dimensioned twice")
            sym.dims = [
                ArrayBounds(d.lower if d.lower is not None else F.IntLit(1), d.upper)
                for d in ent.dims
            ]


def build_symbol_table(unit: F.ProgramUnit) -> SymbolTable:
    """Build the scope for ``unit`` and resolve its Apply nodes in place."""
    st = SymbolTable(unit)
    for a in unit.args:
        sym = st.declare(a)
        sym.is_dummy = True
    if isinstance(unit, F.Function):
        fsym = st.declare(unit.name)
        fsym.is_function = True
        if unit.result_type is not None:
            fsym.type = unit.result_type.base

    for spec in unit.specs:
        if isinstance(spec, F.ImplicitStmt):
            st.implicit_none = spec.none
        elif isinstance(spec, F.TypeDecl):
            for ent in spec.entities:
                st._record_entity(ent, spec.type.base, spec.type.char_len)
        elif isinstance(spec, F.DimensionStmt):
            for ent in spec.entities:
                st._record_entity(ent, None)
        elif isinstance(spec, F.CommonStmt):
            names = st.common_blocks.setdefault(spec.block, [])
            for ent in spec.entities:
                st._record_entity(ent, None)
                st.symbols[ent.name].common_block = spec.block
                names.append(ent.name)
        elif isinstance(spec, F.ParameterStmt):
            for name, value in spec.defs:
                sym = st.declare(name)
                sym.is_parameter = True
                sym.param_value = value
        elif isinstance(spec, F.ExternalStmt):
            for name in spec.names:
                sym = st.declare(name)
                sym.is_external = True
                sym.is_function = True
        elif isinstance(spec, F.SaveStmt):
            for name in spec.names:
                st.declare(name).saved = True
        elif isinstance(spec, F.EquivalenceStmt):
            st.equivalences.extend(spec.groups)

    _ApplyResolver(st).resolve_unit(unit)
    return st


class _ApplyResolver(F.Transformer):
    """Rewrites Apply nodes into ArrayRef or FuncCall using the scope."""

    def __init__(self, st: SymbolTable):
        self.st = st

    def resolve_unit(self, unit: F.ProgramUnit) -> None:
        for group in (unit.specs, unit.body):
            for i, stmt in enumerate(group):
                new = self.visit(stmt)
                if isinstance(new, list):
                    raise SemanticError("resolver cannot splice statements")
                group[i] = new

    def visit_Apply(self, node: F.Apply):
        args = []
        for a in node.args:
            new = self.visit(a)
            assert isinstance(new, F.Expr)
            args.append(new)
        sym = self.st.lookup(node.name)
        if sym is not None and sym.is_array:
            return F.ArrayRef(node.name, args)
        # statement functions are not modelled; anything non-array is a call
        if is_intrinsic(node.name) and not (sym is not None and sym.is_external):
            return F.FuncCall(node.name, args, intrinsic=True)
        fsym = self.st.declare(node.name)
        fsym.is_function = True
        return F.FuncCall(node.name, args, intrinsic=False)


def resolve_source_file(sf: F.SourceFile) -> dict[str, SymbolTable]:
    """Build and return symbol tables for every unit of a source file."""
    return {u.name: build_symbol_table(u) for u in sf.units}


def shared_symbol_tables(sf: F.SourceFile) -> dict[str, SymbolTable]:
    """The symbol tables of a tree nobody transforms any more (a
    compilation-cache artifact, a finished restructuring), built on the
    first request and kept on the tree itself, so they live exactly as
    long as it does.  Read-only consumers share them; do not call this
    on a tree that is still going to be rewritten."""
    tables = sf.__dict__.get("_symbol_tables")
    if tables is None:
        tables = sf.__dict__["_symbol_tables"] = resolve_source_file(sf)
    return tables
