"""AST node definitions for the Fortran 77 front end.

Nodes are plain dataclasses.  Child traversal is generic: any field whose
value is a ``Node`` or a (nested) list/tuple of ``Node`` is a child.
Which fields *can* hold children, and in what shape (one node or None,
a flat list of nodes, anything nested), is decided once per node class
from its field annotations (:func:`node_slots`).  From that plan each
class gets two functions, generated on first use: one listing a node's
children and one copying it without running ``__init__`` (fields
assigned in declaration order, so copies keep the instance layout the
constructor gives).  Two traversal helpers are
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

#: child shapes of a field, read off its annotation
ONE = 0      # a single Node or None (``Expr``, ``Optional[Stmt]``)
MANY = 1     # a flat list of Nodes (``list[Stmt]``)
NESTED = 2   # anything else that may hold Nodes (``list[tuple[...]]``)


class NodeSlots(NamedTuple):
    """Field names of one node class, by what a traversal needs."""
    fields: tuple[str, ...]    # every dataclass field, declaration order
    child: tuple[str, ...]     # fields that can hold Nodes
    compared: tuple[str, ...]  # fields structural equality looks at
    plan: tuple[tuple[str, int], ...]  # (child field, its shape)


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
        return (_type_name(tree.value) in _CONTAINER_TYPES
                and _annotation_is_leaf(tree.slice))
    if isinstance(tree, _pyast.Tuple):
        return all(_annotation_is_leaf(e) for e in tree.elts)
    if isinstance(tree, _pyast.BinOp) and isinstance(tree.op, _pyast.BitOr):
        return _annotation_is_leaf(tree.left) and _annotation_is_leaf(tree.right)
    return False


def _type_name(tree: _pyast.expr) -> Optional[str]:
    """``Expr``, ``F.Expr`` and ``typing.Optional`` by their last name."""
    if isinstance(tree, _pyast.Name):
        return tree.id
    if isinstance(tree, _pyast.Attribute):
        return tree.attr
    return None


def _is_none(tree: _pyast.expr) -> bool:
    return isinstance(tree, _pyast.Constant) and tree.value is None \
        or _type_name(tree) == "None"


def _node_class_names() -> set[str]:
    names: set[str] = set()
    todo = [Node]
    while todo:
        cls = todo.pop()
        names.add(cls.__name__)
        todo.extend(cls.__subclasses__())
    return names


def _shape(tree: _pyast.expr, nodes: set[str]) -> int:
    """The child shape an annotation promises: a node class name, alone
    or with ``None``, is ONE; ``list`` of one is MANY; anything else
    (``Any``, bare ``tuple``, lists of tuples) is NESTED."""
    if _type_name(tree) in nodes:
        return ONE
    if isinstance(tree, _pyast.BinOp) and isinstance(tree.op, _pyast.BitOr):
        parts = [tree.left, tree.right]
    elif isinstance(tree, _pyast.Subscript):
        head, arg = _type_name(tree.value), tree.slice
        if head == "list" and _type_name(arg) in nodes:
            return MANY
        if head == "Optional":
            parts = [arg, _pyast.Constant(None)]
        elif head == "Union" and isinstance(arg, _pyast.Tuple):
            parts = arg.elts
        else:
            return NESTED
    else:
        return NESTED
    named = [p for p in parts if not _is_none(p)]
    if len(named) == 1 and _type_name(named[0]) in nodes:
        return ONE
    return NESTED


def _annotation_tree(annotation: Any) -> Optional[_pyast.expr]:
    if not isinstance(annotation, str):
        annotation = getattr(annotation, "__name__", None) or repr(annotation)
    try:
        return _pyast.parse(annotation, mode="eval").body
    except SyntaxError:
        return None


_SLOTS: dict[type, NodeSlots] = {}


def node_slots(cls: type) -> NodeSlots:
    """The :class:`NodeSlots` of a node class, computed on first use (the
    ``@dataclass`` decorator has not run yet when ``__init_subclass__``
    fires, so the table cannot be filled at class creation).  A field is
    a child unless its annotation is provably scalar; one whose
    annotation cannot be read counts as NESTED."""
    slots = _SLOTS.get(cls)
    if slots is None:
        fs = dataclasses.fields(cls)
        nodes = _node_class_names()
        plan = []
        for f in fs:
            tree = _annotation_tree(f.type)
            if tree is None:
                plan.append((f.name, NESTED))
            elif not _annotation_is_leaf(tree):
                plan.append((f.name, _shape(tree, nodes)))
        slots = _SLOTS[cls] = NodeSlots(
            tuple(f.name for f in fs),
            tuple(name for name, _ in plan),
            tuple(f.name for f in fs if f.name not in _EQUAL_IGNORED),
            tuple(plan))
    return slots


def _collect_nodes(seq: Any, out: list["Node"]) -> None:
    """Append the Nodes inside arbitrarily nested lists/tuples, in order."""
    for item in seq:
        if isinstance(item, Node):
            out.append(item)
        elif isinstance(item, (list, tuple)):
            _collect_nodes(item, out)


def _nested_nodes(value: Any, out: list["Node"]) -> None:
    if isinstance(value, Node):
        out.append(value)
    elif isinstance(value, (list, tuple)):
        _collect_nodes(value, out)


def _compile(name: str, lines: list[str], scope: dict):
    """Define function ``name`` from source ``lines`` in ``scope``."""
    exec("\n".join(lines), scope)
    return scope[name]


_LISTERS: dict[type, Any] = {}


def _lister(cls: type):
    """The function listing one ``cls`` node's children, in field order,
    generated once from the class's plan: a ONE field is appended unless
    None, a MANY list is appended whole, anything else is searched."""
    lines = ["def children(node):", "    out = []"]
    for name, shape in node_slots(cls).plan:
        if shape == ONE:
            lines += [f"    if node.{name} is not None:",
                      f"        out.append(node.{name})"]
        elif shape == MANY:
            lines.append(f"    out += node.{name}")
        else:
            lines.append(f"    _nested_nodes(node.{name}, out)")
    lines.append("    return out")
    lister = _LISTERS[cls] = _compile(
        "children", lines, {"_nested_nodes": _nested_nodes})
    return lister


def _child_list(node: "Node") -> list["Node"]:
    cls = node.__class__
    return (_LISTERS.get(cls) or _lister(cls))(node)


def _walk(stack: list["Node"]) -> Iterator["Node"]:
    """Pre-order walk of the nodes on ``stack`` (top of stack first).  A
    node's children are read when the walk resumes after yielding it."""
    pop = stack.pop
    listers = _LISTERS
    while stack:
        node = pop()
        yield node
        cls = node.__class__
        kids = (listers.get(cls) or _lister(cls))(node)
        if kids:
            kids.reverse()
            stack += kids


_ATOMS = frozenset({str, int, float, bool, type(None)})


def _clone_value(value: Any) -> Any:
    """Deep-copy Nodes inside arbitrarily nested lists/tuples."""
    cls = value.__class__
    if cls in _ATOMS:
        return value
    if isinstance(value, Node):
        return _clone(value)
    if cls is list:
        return [_clone_value(v) for v in value]
    if cls is tuple:
        return tuple(_clone_value(v) for v in value)
    return value


_COPIERS: dict[type, Any] = {}


def _holds_container(tree: Optional[_pyast.expr]) -> bool:
    """True unless the annotation names no list or tuple (an unreadable
    one might)."""
    return tree is None or any(
        _type_name(n) in ("list", "tuple") for n in _pyast.walk(tree))


def _copier(cls: type):
    """A function copying one ``cls`` node: a new instance whose fields
    are assigned in declaration order, as the dataclass ``__init__``
    assigns them (so instances keep sharing one key table), with
    neither ``__init__`` nor ``__post_init__`` run — a copy of a valid
    node is valid.  Child fields are copied by shape; other fields that
    may hold a list or tuple are copied too; scalars are shared."""
    shapes = dict(node_slots(cls).plan)
    lines = ["def copy(node):", "    new = _new(_cls)"]
    for f in dataclasses.fields(cls):
        name, shape = f.name, shapes.get(f.name)
        if shape == ONE:
            value = f"None if node.{name} is None else _clone(node.{name})"
        elif shape == MANY:
            value = f"[_clone(x) for x in node.{name}]"
        elif shape is not None or _holds_container(_annotation_tree(f.type)):
            value = f"_clone_value(node.{name})"
        else:
            value = f"node.{name}"
        lines.append(f"    new.{name} = {value}")
    lines.append("    return new")
    copy = _COPIERS[cls] = _compile(
        "copy", lines, {"_new": object.__new__, "_cls": cls,
                        "_clone": _clone, "_clone_value": _clone_value})
    return copy


def _clone(node: "Node") -> "Node":
    copy = _COPIERS.get(node.__class__) or _copier(node.__class__)
    return copy(node)


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
        return _clone(self)


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
