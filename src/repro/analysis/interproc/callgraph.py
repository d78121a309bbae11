"""Call graph construction over a source file."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fortran import ast_nodes as F
from repro.fortran.intrinsics import is_intrinsic


@dataclass
class CallGraph:
    """Direct-call graph: unit name → callee names (defined or external)."""

    callees: dict[str, set[str]] = field(default_factory=dict)
    defined: set[str] = field(default_factory=set)

    def external_calls(self, name: str) -> set[str]:
        """Callees of ``name`` with no definition in the file."""
        return {c for c in self.callees.get(name, set())
                if c not in self.defined}

    def topological(self) -> list[str]:
        """Callees-first order; members of call cycles keep file order."""
        order: list[str] = []
        temp: set[str] = set()
        done: set[str] = set()

        def visit(u: str) -> None:
            if u in done or u in temp or u not in self.defined:
                return
            temp.add(u)
            for c in sorted(self.callees.get(u, ())):
                visit(c)
            temp.discard(u)
            done.add(u)
            order.append(u)

        for u in self.callees:
            visit(u)
        return order

    def is_recursive(self, name: str) -> bool:
        """True if ``name`` can reach itself through calls."""
        seen: set[str] = set()
        stack = [c for c in self.callees.get(name, ())]
        while stack:
            c = stack.pop()
            if c == name:
                return True
            if c in seen:
                continue
            seen.add(c)
            stack.extend(self.callees.get(c, ()))
        return False


def _called_names(unit: F.ProgramUnit, arrays: set[str]) -> set[str]:
    """Names ``unit`` calls: CALL statements, non-intrinsic function
    references and unresolved applications of non-arrays — from one
    walk of its body."""
    out: set[str] = set()
    for n in F.stmts_walk(unit.body):
        if isinstance(n, F.CallStmt) or isinstance(n, F.FuncCall) \
                and not n.intrinsic:
            out.add(n.name)
        elif isinstance(n, F.Apply) and n.name not in arrays \
                and not is_intrinsic(n.name):
            out.add(n.name)
    return out


def build_call_graph(sf: F.SourceFile) -> CallGraph:
    """Build the call graph of ``sf`` (symbol tables are built as needed)."""
    from repro.fortran.symtab import build_symbol_table

    g = CallGraph()
    g.defined = {u.name for u in sf.units}
    for u in sf.units:
        st = build_symbol_table(u)  # resolves Apply nodes in place
        arrays = {sym.name for sym in st.arrays()}
        g.callees[u.name] = _called_names(u, arrays)
    return g
