"""Fresh-name generation for compiler-introduced variables."""

from __future__ import annotations

from repro.fortran import ast_nodes as F


class NamePool:
    """Generates names not colliding with anything in a program unit."""

    def __init__(self, unit: F.ProgramUnit):
        self.used: set[str] = set(unit.args)
        for node in F.stmts_walk(unit.specs + unit.body):
            if isinstance(node, (F.Var, F.ArrayRef, F.Apply, F.FuncCall,
                                 F.EntityDecl)):
                self.used.add(node.name)
            elif isinstance(node, F.DoLoop):
                self.used.add(node.var)

    def fresh(self, base: str) -> str:
        """A new name derived from ``base`` (f77 style: ≤ 6 significant chars
        is not enforced — Cedar Fortran tools accepted longer names)."""
        if base not in self.used:
            self.used.add(base)
            return base
        for i in range(1, 10_000):
            cand = f"{base}{i}"
            if cand not in self.used:
                self.used.add(cand)
                return cand
        raise RuntimeError("name pool exhausted")  # pragma: no cover
