"""Top-level convenience API.

These helpers tie the front end, restructurer, and unparsers together for
the common "parallelize this Fortran 77 text" use case.  Heavier workflows
(choosing machine models, running experiments) use the subpackages directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program
from repro.fortran.unparse import unparse as _unparse_f77

if TYPE_CHECKING:  # pragma: no cover
    from repro.restructurer.options import RestructurerOptions
    from repro.restructurer.pipeline import RestructureReport


def parse_source(source: str) -> F.SourceFile:
    """Parse Fortran 77 source text into an AST."""
    return parse_program(source)


def unparse_f77(node: F.Node) -> str:
    """Render an AST back to fixed-form Fortran 77 text."""
    return _unparse_f77(node)


def unparse_cedar(node: F.Node) -> str:
    """Render an AST (possibly containing Cedar nodes) to Cedar Fortran."""
    from repro.cedar.unparse import unparse_cedar as _uc

    return _uc(node)


def restructure(sf: F.SourceFile, options: "RestructurerOptions | None" = None,
                ) -> tuple[F.SourceFile, "RestructureReport"]:
    """Run the Cedar restructurer on a parsed source file.

    Returns the transformed AST (containing Cedar Fortran nodes) and a
    report describing what each pass did; every planner/pass decision is
    on ``report.events`` (``report.rejections()`` filters the refusals).
    """
    from repro.restructurer.pipeline import Restructurer

    return Restructurer(options).run(sf)


def restructure_source(source: str,
                       options: "RestructurerOptions | None" = None,
                       ) -> tuple[str, Any]:
    """Parse, restructure, and unparse: fortran77 text → Cedar Fortran text."""
    sf = parse_source(source)
    cedar_ast, report = restructure(sf, options)
    return unparse_cedar(cedar_ast), report
