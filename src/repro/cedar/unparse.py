"""Cedar Fortran unparser.

Extends the Fortran 77 unparser with the parallel-loop syntax of paper
Figure 3 and the data declarations of Figure 5::

    xdoall i = 1, n, strip
       integer i3
       real t(strip)
    loop
       ...body...
    endloop
    end xdoall
"""

from __future__ import annotations

from repro.cedar import nodes as C
from repro.fortran import ast_nodes as F
from repro.fortran.unparse import UnparserBase


class CedarUnparser(UnparserBase):
    """Pretty printer accepting both f77 and Cedar Fortran nodes."""

    def s_ParallelDo(self, s: C.ParallelDo, d: int) -> None:
        header = f"{s.keyword} {s.var} = {self.e(s.start)}, {self.e(s.end)}"
        if s.step is not None:
            header += f", {self.e(s.step)}"
        self.emit(header, s.label, d)
        self.block(s.locals_, d + 1)
        if s.preamble:
            self.block(s.preamble, d + 1)
        if s.preamble or s.postamble:
            self.emit("loop", None, d)
        self.block(s.body, d + 1)
        if s.preamble or s.postamble:
            self.emit("endloop", None, d)
        if s.postamble:
            self.block(s.postamble, d + 1)
        self.emit(f"end {s.keyword}", None, d)

    def s_GlobalDecl(self, s: C.GlobalDecl, d: int) -> None:
        self.emit("global " + ", ".join(s.names), s.label, d)

    def s_ClusterDecl(self, s: C.ClusterDecl, d: int) -> None:
        self.emit("cluster " + ", ".join(s.names), s.label, d)

    def s_ProcessCommonStmt(self, s: C.ProcessCommonStmt, d: int) -> None:
        ents = ", ".join(self._entity(e) for e in s.entities)
        self.emit(f"process common /{s.block}/ {ents}", s.label, d)

    def s_WhereStmt(self, s: C.WhereStmt, d: int) -> None:
        self.emit(f"where ({self.e(s.mask)})", s.label, d)
        self.block(s.body, d + 1)
        if s.elsewhere:
            self.emit("elsewhere", None, d)
            self.block(s.elsewhere, d + 1)
        self.emit("end where", None, d)

    def s_AwaitStmt(self, s: C.AwaitStmt, d: int) -> None:
        self.emit(f"call await({s.point}, {s.distance})", s.label, d)

    def s_AdvanceStmt(self, s: C.AdvanceStmt, d: int) -> None:
        self.emit(f"call advance({s.point})", s.label, d)

    def s_LockStmt(self, s: C.LockStmt, d: int) -> None:
        self.emit(f"call lock({s.name})", s.label, d)

    def s_UnlockStmt(self, s: C.UnlockStmt, d: int) -> None:
        self.emit(f"call unlock({s.name})", s.label, d)


def unparse_cedar(node: F.Node) -> str:
    """Render an AST possibly containing Cedar nodes to Cedar Fortran text."""
    u = CedarUnparser()
    if isinstance(node, F.SourceFile):
        u.source_file(node)
    elif isinstance(node, F.ProgramUnit):
        u.unit(node)
    elif isinstance(node, F.Stmt):
        u.stmt(node, 0)
    else:
        raise TypeError(f"cannot unparse {type(node).__name__}")
    return u.result()
