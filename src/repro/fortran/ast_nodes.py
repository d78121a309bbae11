"""AST node definitions for the Fortran 77 front end.

Nodes are plain dataclasses.  Child traversal is generic: any field whose
value is a ``Node`` or a (nested) list/tuple of ``Node`` is a child.
Which fields *can* hold children is decided once per node class from its
field annotations (:func:`node_slots`), so traversal, cloning, rebuilding
and comparison read a precomputed tuple of field names instead of
introspecting the dataclass on every visit.  Two traversal helpers are
provided: :class:`Visitor` (read-only, dispatches on class name) and
:class:`Transformer` (rebuilds, a method may return a replacement node, a
list of nodes for statement positions, or ``None`` to keep recursing).

Expression nodes produced by the *parser* use :class:`Apply` for any
``name(...)`` form; :func:`repro.fortran.symtab.build_symbol_table` resolves
these into :class:`ArrayRef` or :class:`FuncCall` once declarations are known.
"""

from __future__ import annotations

import ast as _pyast
import dataclasses
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple, Optional


# ---------------------------------------------------------------------------
# base machinery
# ---------------------------------------------------------------------------

class NodeSlots(NamedTuple):
    """Field names of one node class, by what a traversal needs."""
    fields: tuple[str, ...]    # every dataclass field, declaration order
    child: tuple[str, ...]     # fields that can hold Nodes
    compared: tuple[str, ...]  # fields structural equality looks at


#: fields that are layout artifacts, not program structure
_EQUAL_IGNORED = frozenset({"line"})

_SCALAR_TYPES = frozenset({"str", "int", "float", "bool", "None"})
_CONTAINER_TYPES = frozenset({"list", "tuple", "Optional", "Union"})


def _annotation_is_leaf(tree: _pyast.expr) -> bool:
    """True when the annotation names only scalars and fully
    parameterised containers of scalars (``Optional[int]``,
    ``list[str]``) — such a field can never hold a Node."""
    if isinstance(tree, _pyast.Constant):
        return tree.value is None
    if isinstance(tree, _pyast.Name):
        return tree.id in _SCALAR_TYPES
    if isinstance(tree, _pyast.Subscript):
        return (isinstance(tree.value, _pyast.Name)
                and tree.value.id in _CONTAINER_TYPES
                and _annotation_is_leaf(tree.slice))
    if isinstance(tree, _pyast.Tuple):
        return all(_annotation_is_leaf(e) for e in tree.elts)
    if isinstance(tree, _pyast.BinOp) and isinstance(tree.op, _pyast.BitOr):
        return _annotation_is_leaf(tree.left) and _annotation_is_leaf(tree.right)
    return False


def _can_hold_nodes(annotation: Any) -> bool:
    """Conservative: anything not provably scalar counts as child-bearing
    (its value is then inspected at run time, as every field once was)."""
    if not isinstance(annotation, str):
        annotation = getattr(annotation, "__name__", None) or repr(annotation)
    try:
        return not _annotation_is_leaf(
            _pyast.parse(annotation, mode="eval").body)
    except SyntaxError:
        return True


_SLOTS: dict[type, NodeSlots] = {}


def node_slots(cls: type) -> NodeSlots:
    """The :class:`NodeSlots` of a node class, computed on first use (the
    ``@dataclass`` decorator has not run yet when ``__init_subclass__``
    fires, so the table cannot be filled at class creation)."""
    slots = _SLOTS.get(cls)
    if slots is None:
        fs = dataclasses.fields(cls)
        slots = _SLOTS[cls] = NodeSlots(
            tuple(f.name for f in fs),
            tuple(f.name for f in fs if _can_hold_nodes(f.type)),
            tuple(f.name for f in fs if f.name not in _EQUAL_IGNORED))
    return slots


def _collect_nodes(seq: Any, out: list["Node"]) -> None:
    """Append the Nodes inside arbitrarily nested lists/tuples, in order."""
    for item in seq:
        if isinstance(item, Node):
            out.append(item)
        elif isinstance(item, (list, tuple)):
            _collect_nodes(item, out)


def _child_list(node: "Node") -> list["Node"]:
    out: list[Node] = []
    cls = node.__class__
    for name in (_SLOTS.get(cls) or node_slots(cls)).child:
        v = getattr(node, name)
        if isinstance(v, Node):
            out.append(v)
        elif isinstance(v, (list, tuple)):
            _collect_nodes(v, out)
    return out


def _walk(stack: list["Node"]) -> Iterator["Node"]:
    """Pre-order walk of the nodes on ``stack`` (top of stack first).  A
    node's children are read when the walk resumes after yielding it."""
    pop = stack.pop
    while stack:
        node = pop()
        yield node
        kids = _child_list(node)
        if kids:
            kids.reverse()
            stack.extend(kids)


_ATOMS = frozenset({str, int, float, bool, type(None)})


def _clone_value(value: Any) -> Any:
    """Deep-copy Nodes inside arbitrarily nested lists/tuples."""
    cls = value.__class__
    if cls in _ATOMS:
        return value
    if isinstance(value, Node):
        return value.clone()
    if cls is list:
        return [_clone_value(v) for v in value]
    if cls is tuple:
        return tuple(_clone_value(v) for v in value)
    return value


@dataclass
class Node:
    """Base class of all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield direct child nodes (descending into nested lists/tuples,
        e.g. IfBlock's (condition, body) arms)."""
        return iter(_child_list(self))

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants, pre-order."""
        return _walk([self])

    def clone(self) -> "Node":
        """Deep copy of the subtree (including nested list/tuple fields)."""
        return self.__class__(**{
            name: _clone_value(getattr(self, name))
            for name in node_slots(self.__class__).fields})


class _Dispatcher:
    """``visit_<ClassName>`` lookup, done once per (visitor class, node
    class): each visitor class owns a table of its unbound methods."""

    _dispatch: dict[type, Any] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._dispatch = {}

    def _method_for(self, node: Node):
        cls = node.__class__
        try:
            return self._dispatch[cls]
        except KeyError:
            method = self._dispatch[cls] = getattr(
                type(self), "visit_" + cls.__name__, None)
            return method


class Visitor(_Dispatcher):
    """Read-only traversal with per-class dispatch (``visit_<ClassName>``)."""

    def visit(self, node: Node) -> Any:
        method = self._method_for(node)
        if method is not None:
            return method(self, node)
        return self.generic_visit(node)

    def generic_visit(self, node: Node) -> Any:
        for c in _child_list(node):
            self.visit(c)
        return None


class Transformer(_Dispatcher):
    """Rebuilding traversal.

    ``visit_<ClassName>`` may return:

    - a Node — replaces the original;
    - a list of Nodes — splices in statement-list positions;
    - ``None`` — keep the node and transform its children.
    """

    def visit(self, node: Node) -> Node | list[Node]:
        method = self._method_for(node)
        if method is not None:
            result = method(self, node)
            if result is not None:
                return result
        return self.generic_transform(node)

    def generic_transform(self, node: Node) -> Node:
        for name in node_slots(node.__class__).child:
            v = getattr(node, name)
            if v is not None:
                setattr(node, name, self._transform_value(v, name))
        return node

    def _transform_value(self, v: Any, field_name: str) -> Any:
        if isinstance(v, Node):
            new = self.visit(v)
            if isinstance(new, list):
                raise TypeError(
                    f"cannot splice a statement list into field {field_name!r}")
            return new
        if isinstance(v, list):
            out: list[Any] = []
            for item in v:
                if isinstance(item, Node):
                    new = self.visit(item)
                    if isinstance(new, list):
                        out.extend(new)
                    else:
                        out.append(new)
                elif isinstance(item, (list, tuple)):
                    out.append(self._transform_value(item, field_name))
                else:
                    out.append(item)
            return out
        if isinstance(v, tuple):
            return tuple(self._transform_value(item, field_name)
                         if isinstance(item, (Node, list, tuple)) else item
                         for item in v)
        return v


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------

@dataclass
class Expr(Node):
    """Base class of expression nodes."""


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class RealLit(Expr):
    value: float
    double: bool = False

    def text(self) -> str:
        s = repr(self.value)
        if self.double:
            s = s.replace("e", "d")
            if "d" not in s:
                s += "d0"
        return s


@dataclass
class LogicalLit(Expr):
    value: bool


@dataclass
class StrLit(Expr):
    value: str


@dataclass
class Var(Expr):
    """A scalar variable reference (or whole-array reference in calls)."""
    name: str


@dataclass
class Star(Expr):
    """The ``*`` placeholder in I/O control lists (list-directed format,
    default unit) — e.g. both stars of ``write(*, *)``."""


@dataclass
class RangeExpr(Expr):
    """An array-section subscript ``lo:hi[:stride]`` (Fortran 90 subset).

    ``lo``/``hi`` of ``None`` mean the array's declared bound.
    """
    lo: Optional[Expr]
    hi: Optional[Expr]
    stride: Optional[Expr] = None


@dataclass
class Apply(Expr):
    """Unresolved ``name(args)`` — array reference or function call."""
    name: str
    args: list[Expr] = field(default_factory=list)


@dataclass
class ArrayRef(Expr):
    """A subscripted array reference; subscripts may be RangeExpr sections."""
    name: str
    subscripts: list[Expr] = field(default_factory=list)

    def is_section(self) -> bool:
        return any(isinstance(s, RangeExpr) for s in self.subscripts)


@dataclass
class FuncCall(Expr):
    name: str
    args: list[Expr] = field(default_factory=list)
    intrinsic: bool = False


@dataclass
class BinOp(Expr):
    op: str  # '+', '-', '*', '/', '**', '//', '.and.', '.or.', relationals
    left: Expr
    right: Expr


@dataclass
class UnOp(Expr):
    op: str  # '-', '+', '.not.'
    operand: Expr


# ---------------------------------------------------------------------------
# type specifications
# ---------------------------------------------------------------------------

@dataclass
class TypeSpec(Node):
    """A Fortran type: integer, real, doubleprecision, logical, character."""
    base: str
    char_len: Optional[Expr] = None  # for character*N

    def __str__(self) -> str:
        if self.base == "character" and self.char_len is not None:
            return f"character*{unparse_len(self.char_len)}"
        return self.base


def unparse_len(e: Expr) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    return "(*)"


@dataclass
class DimSpec(Node):
    """One array dimension: ``lower:upper`` (lower defaults to 1).

    ``upper`` of ``None`` encodes an assumed-size ``*`` bound.
    """
    lower: Optional[Expr]
    upper: Optional[Expr]


@dataclass
class EntityDecl(Node):
    """One declared entity within a type/DIMENSION statement."""
    name: str
    dims: list[DimSpec] = field(default_factory=list)


# ---------------------------------------------------------------------------
# specification statements
# ---------------------------------------------------------------------------

@dataclass
class Stmt(Node):
    """Base class of statements; ``label`` is the numeric statement label."""
    label: Optional[int] = field(default=None, kw_only=True)
    line: Optional[int] = field(default=None, kw_only=True)


@dataclass
class TypeDecl(Stmt):
    type: TypeSpec = None  # type: ignore[assignment]
    entities: list[EntityDecl] = field(default_factory=list)


@dataclass
class DimensionStmt(Stmt):
    entities: list[EntityDecl] = field(default_factory=list)


@dataclass
class CommonStmt(Stmt):
    """``COMMON /name/ a, b(10), ...`` — blank common has name ''. """
    block: str = ""
    entities: list[EntityDecl] = field(default_factory=list)


@dataclass
class ParameterStmt(Stmt):
    """``PARAMETER (name = const-expr, ...)``."""
    defs: list[tuple[str, Expr]] = field(default_factory=list)


@dataclass
class DataStmt(Stmt):
    """``DATA var-list / value-list /`` (flat subset)."""
    names: list[Expr] = field(default_factory=list)
    values: list[Expr] = field(default_factory=list)


@dataclass
class EquivalenceStmt(Stmt):
    groups: list[list[Expr]] = field(default_factory=list)


@dataclass
class ImplicitStmt(Stmt):
    """Only ``IMPLICIT NONE`` is modelled; default implicit rules otherwise."""
    none: bool = True


@dataclass
class ExternalStmt(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass
class IntrinsicStmt(Stmt):
    names: list[str] = field(default_factory=list)


@dataclass
class SaveStmt(Stmt):
    """``SAVE [list]`` — entries may be names or ``/block/`` common names;
    an empty list is the bare ``SAVE`` (save everything)."""
    names: list[str] = field(default_factory=list)


@dataclass
class EntryStmt(Stmt):
    """``ENTRY name [(dummy-args)]`` — an alternate entry point.

    Parsed into a typed node that unparses faithfully; the restructurer
    treats units containing ENTRY as opaque (no entry-point splitting).
    """
    name: str = ""
    args: list[str] = field(default_factory=list)


@dataclass
class FormatStmt(Stmt):
    """``FORMAT (spec)`` — the spec is kept as raw text (including the
    outer parentheses) with whitespace outside quotes removed, because
    edit descriptors do not tokenize under expression rules."""
    spec: str = "()"


# ---------------------------------------------------------------------------
# executable statements
# ---------------------------------------------------------------------------

@dataclass
class Assign(Stmt):
    target: Expr = None  # type: ignore[assignment]  # Var | ArrayRef
    value: Expr = None  # type: ignore[assignment]


@dataclass
class DoLoop(Stmt):
    """A sequential DO loop (``do_label`` is the terminal label, if labeled)."""
    var: str = ""
    start: Expr = None  # type: ignore[assignment]
    end: Expr = None  # type: ignore[assignment]
    step: Optional[Expr] = None
    body: list[Stmt] = field(default_factory=list)
    do_label: Optional[int] = None


@dataclass
class IfBlock(Stmt):
    """Block IF: ``if (c) then ... [else if ...] [else ...] end if``.

    ``arms`` is a list of (condition, body); the final arm's condition is
    ``None`` for ELSE.
    """
    arms: list[tuple[Optional[Expr], list[Stmt]]] = field(default_factory=list)


@dataclass
class LogicalIf(Stmt):
    """One-statement logical IF: ``if (c) stmt``."""
    cond: Expr = None  # type: ignore[assignment]
    stmt: Stmt = None  # type: ignore[assignment]


@dataclass
class Goto(Stmt):
    target: int = 0


@dataclass
class ComputedGoto(Stmt):
    targets: list[int] = field(default_factory=list)
    index: Expr = None  # type: ignore[assignment]


@dataclass
class ContinueStmt(Stmt):
    pass


@dataclass
class CallStmt(Stmt):
    name: str = ""
    args: list[Expr] = field(default_factory=list)


@dataclass
class ReturnStmt(Stmt):
    pass


@dataclass
class StopStmt(Stmt):
    message: Optional[str] = None


@dataclass
class PrintStmt(Stmt):
    """``print *, items`` / ``write(*,*) items`` — modelled as list output."""
    items: list[Expr] = field(default_factory=list)


@dataclass
class ReadStmt(Stmt):
    """``read *, items`` — consumes from the interpreter's input queue."""
    items: list[Expr] = field(default_factory=list)


@dataclass
class IoControl(Node):
    """One entry of an I/O control list: ``keyword=value`` or positional.

    Label-valued controls (``ERR=``, ``END=``, ``FMT=100``) carry an
    :class:`IntLit`; ``*`` carries :class:`Star`.
    """
    keyword: Optional[str]
    value: Expr = None  # type: ignore[assignment]


@dataclass
class IoStmt(Stmt):
    """A general I/O statement, parsed faithfully but executed nowhere.

    ``kind`` is one of open/close/read/write/print/rewind/backspace/
    endfile/inquire.  The simple list-directed forms keep their legacy
    nodes (``read *,`` → :class:`ReadStmt`, ``print *,``/``write(*,*)``
    → :class:`PrintStmt`) so the interpreter's surface is unchanged;
    everything else — unit numbers, format labels, ERR=/END=/IOSTAT=
    branches — lands here as a typed node that unparses back exactly.
    """
    kind: str = "read"
    controls: list[IoControl] = field(default_factory=list)
    items: list[Expr] = field(default_factory=list)


@dataclass
class AssignLabelStmt(Stmt):
    """``ASSIGN label TO var`` (F77 assigned-GOTO machinery)."""
    target: int = 0
    var: str = ""


@dataclass
class AssignedGoto(Stmt):
    """``GOTO var [, (labels)]`` — jump through an ASSIGNed variable."""
    var: str = ""
    targets: list[int] = field(default_factory=list)


# ---------------------------------------------------------------------------
# program units
# ---------------------------------------------------------------------------

@dataclass
class ProgramUnit(Node):
    name: str = ""
    args: list[str] = field(default_factory=list)
    specs: list[Stmt] = field(default_factory=list)
    body: list[Stmt] = field(default_factory=list)

    @property
    def kind(self) -> str:
        raise NotImplementedError


@dataclass
class MainProgram(ProgramUnit):
    @property
    def kind(self) -> str:
        return "program"


@dataclass
class Subroutine(ProgramUnit):
    @property
    def kind(self) -> str:
        return "subroutine"


@dataclass
class Function(ProgramUnit):
    result_type: Optional[TypeSpec] = None

    @property
    def kind(self) -> str:
        return "function"


@dataclass
class SourceFile(Node):
    """A whole source file: one or more program units."""
    units: list[ProgramUnit] = field(default_factory=list)

    def unit(self, name: str) -> ProgramUnit:
        for u in self.units:
            if u.name == name:
                return u
        raise KeyError(name)


# ---------------------------------------------------------------------------
# small helpers used across the package
# ---------------------------------------------------------------------------

def one() -> IntLit:
    return IntLit(1)


def var(name: str) -> Var:
    return Var(name)


def is_const_int(e: Expr, value: int | None = None) -> bool:
    """True if ``e`` is an integer literal (optionally equal to ``value``)."""
    if not isinstance(e, IntLit):
        return False
    return value is None or e.value == value


def stmts_walk(stmts: list[Stmt]) -> Iterator[Node]:
    """Walk every node under a statement list."""
    return _walk(list(reversed(stmts)))


def ast_equal(a: Any, b: Any) -> bool:
    """Structural equality of two ASTs, ignoring source-line stamps.

    Statement labels *are* compared (they are program structure: GOTO
    targets, FORMAT references); the ``line`` field is not, since
    unparsing renumbers every line.  This is the round-trip oracle's
    comparison: ``ast_equal(parse(src), parse(unparse(parse(src))))``.
    """
    if isinstance(a, Node) or isinstance(b, Node):
        if type(a) is not type(b):
            return False
        for name in node_slots(a.__class__).compared:
            if not ast_equal(getattr(a, name), getattr(b, name)):
                return False
        return True
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        if isinstance(a, (list, tuple)) != isinstance(b, (list, tuple)):
            return False
        if len(a) != len(b):
            return False
        return all(ast_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)  # NaN-tolerant
    return a == b


def ast_diff(a: Any, b: Any, path: str = "$") -> Optional[str]:
    """First structural difference between two ASTs, as a path string.

    Returns ``None`` when :func:`ast_equal` would return True; otherwise
    a human-readable pointer like ``$.units[0].body[2].value.op`` — the
    fuzzer's round-trip oracle reports this on failure.
    """
    if isinstance(a, Node) or isinstance(b, Node):
        if type(a) is not type(b):
            return (f"{path}: {type(a).__name__} != {type(b).__name__}")
        for name in node_slots(a.__class__).compared:
            d = ast_diff(getattr(a, name), getattr(b, name),
                         f"{path}.{name}")
            if d is not None:
                return d
        return None
    if isinstance(a, (list, tuple)) or isinstance(b, (list, tuple)):
        if isinstance(a, (list, tuple)) != isinstance(b, (list, tuple)):
            return f"{path}: {type(a).__name__} != {type(b).__name__}"
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            d = ast_diff(x, y, f"{path}[{i}]")
            if d is not None:
                return d
        return None
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (a != a and b != b):
            return None
        return f"{path}: {a!r} != {b!r}"
    if a != b:
        return f"{path}: {a!r} != {b!r}"
    return None
