"""Unit tests for the Fortran 77 parser."""

import pytest

from repro.errors import ParseError
from repro.fortran import ast_nodes as F
from repro.fortran.parser import parse_program


def sub_body(body_lines, specs=""):
    """Wrap statements into a minimal subroutine and parse it."""
    text = "      subroutine s\n"
    for line in specs.splitlines():
        if line.strip():
            text += "      " + line.strip() + "\n"
    for line in body_lines.splitlines():
        if line.strip():
            stripped = line.strip()
            if stripped[0].isdigit():
                lbl, rest = stripped.split(None, 1)
                text += f"{lbl:>5} {rest}\n"
            else:
                text += "      " + stripped + "\n"
    text += "      end\n"
    sf = parse_program(text)
    return sf.units[0]


def test_program_unit_kinds():
    sf = parse_program(
        "      program main\n      end\n"
        "      subroutine foo(a, b)\n      end\n"
        "      real function bar(x)\n      end\n"
        "      function baz()\n      end\n"
    )
    kinds = [(u.kind, u.name, u.args) for u in sf.units]
    assert kinds == [
        ("program", "main", []),
        ("subroutine", "foo", ["a", "b"]),
        ("function", "bar", ["x"]),
        ("function", "baz", []),
    ]
    assert sf.units[2].result_type.base == "real"


def test_missing_end():
    with pytest.raises(ParseError):
        parse_program("      program main\n      x = 1\n")


def test_assignment_and_expression_tree():
    u = sub_body("x = a + b * c ** 2")
    (stmt,) = u.body
    assert isinstance(stmt, F.Assign)
    add = stmt.value
    assert isinstance(add, F.BinOp) and add.op == "+"
    mul = add.right
    assert isinstance(mul, F.BinOp) and mul.op == "*"
    pw = mul.right
    assert isinstance(pw, F.BinOp) and pw.op == "**"


def test_power_right_associative():
    u = sub_body("x = a ** b ** c")
    pw = u.body[0].value
    assert pw.op == "**"
    assert isinstance(pw.right, F.BinOp) and pw.right.op == "**"


def test_unary_minus():
    u = sub_body("x = -a + b")
    add = u.body[0].value
    assert isinstance(add.left, F.UnOp) and add.left.op == "-"


def test_relational_and_logical():
    u = sub_body("l = a .lt. b .and. .not. c")
    land = u.body[0].value
    assert land.op == ".and."
    assert land.left.op == ".lt."
    assert isinstance(land.right, F.UnOp) and land.right.op == ".not."


def test_apply_is_unresolved():
    u = sub_body("x = f(1, 2) + a(i)")
    add = u.body[0].value
    assert isinstance(add.left, F.Apply) and add.left.name == "f"
    assert isinstance(add.right, F.Apply) and add.right.name == "a"


def test_labeled_do_with_continue():
    u = sub_body("""
        do 10 i = 1, n
        x = x + 1
10      continue
    """)
    (loop,) = u.body
    assert isinstance(loop, F.DoLoop)
    assert loop.var == "i" and loop.do_label == 10
    assert isinstance(loop.body[0], F.Assign)
    assert isinstance(loop.body[1], F.ContinueStmt)
    assert loop.body[1].label == 10


def test_labelled_empty_card_keeps_its_own_line():
    """A card holding only a label is a CONTINUE on that card's line,
    not on line 1."""
    sf = parse_program("      program p\n      x = 1\n   10\n      end\n")
    stmt = sf.units[0].body[-1]
    assert isinstance(stmt, F.ContinueStmt)
    assert (stmt.label, stmt.line) == (10, 3)


def test_shared_do_termination():
    u = sub_body("""
        do 100 i = 1, n
        do 100 j = 1, m
        x = x + 1
100     continue
    """)
    (outer,) = u.body
    assert isinstance(outer, F.DoLoop) and outer.var == "i"
    inner = outer.body[0]
    assert isinstance(inner, F.DoLoop) and inner.var == "j"
    assert isinstance(inner.body[0], F.Assign)


def test_enddo_form():
    u = sub_body("""
        do i = 1, n, 2
          x = x + i
        end do
    """)
    (loop,) = u.body
    assert isinstance(loop, F.DoLoop)
    assert loop.step is not None and loop.step.value == 2


def test_nested_enddo():
    u = sub_body("""
        do i = 1, n
          do j = 1, m
            a = a + 1
          enddo
        end do
    """)
    outer = u.body[0]
    inner = outer.body[0]
    assert isinstance(inner, F.DoLoop) and inner.var == "j"


def test_block_if_with_arms():
    u = sub_body("""
        if (a .gt. 0) then
          x = 1
        else if (a .lt. 0) then
          x = -1
        else
          x = 0
        end if
    """)
    (blk,) = u.body
    assert isinstance(blk, F.IfBlock)
    assert len(blk.arms) == 3
    assert blk.arms[0][0] is not None
    assert blk.arms[1][0] is not None
    assert blk.arms[2][0] is None


def test_logical_if():
    u = sub_body("if (a .gt. b) a = b")
    (stmt,) = u.body
    assert isinstance(stmt, F.LogicalIf)
    assert isinstance(stmt.stmt, F.Assign)


def test_logical_if_goto():
    u = sub_body("if (x .eq. 0) goto 99\n99 continue")
    assert isinstance(u.body[0], F.LogicalIf)
    assert isinstance(u.body[0].stmt, F.Goto)
    assert u.body[0].stmt.target == 99


def test_goto_and_computed_goto():
    u = sub_body("""
        goto 10
10      continue
        goto (10, 20, 30), k
20      continue
30      continue
    """)
    assert isinstance(u.body[0], F.Goto)
    cg = u.body[2]
    assert isinstance(cg, F.ComputedGoto)
    assert cg.targets == [10, 20, 30]


def test_call_statement():
    u = sub_body("call work(a, b(i), 3)")
    (c,) = u.body
    assert isinstance(c, F.CallStmt) and c.name == "work"
    assert len(c.args) == 3


def test_call_no_args():
    u = sub_body("call init")
    assert isinstance(u.body[0], F.CallStmt)
    assert u.body[0].args == []


def test_return_stop_print():
    u = sub_body("""
        print *, x, y
        stop
        return
    """)
    assert isinstance(u.body[0], F.PrintStmt)
    assert len(u.body[0].items) == 2
    assert isinstance(u.body[1], F.StopStmt)
    assert isinstance(u.body[2], F.ReturnStmt)


def test_declarations():
    u = sub_body("x = 1", specs="""
        implicit none
        integer n, m
        real a(10), b(n, m)
        double precision d
        dimension c(5)
        common /blk/ p, q(4)
        parameter (k = 3)
        save a
    """)
    specs = {type(s).__name__ for s in u.specs}
    assert specs >= {"ImplicitStmt", "TypeDecl", "DimensionStmt",
                     "CommonStmt", "ParameterStmt", "SaveStmt"}
    decl = [s for s in u.specs if isinstance(s, F.TypeDecl)
            and s.type.base == "real"][0]
    assert decl.entities[0].name == "a"
    assert len(decl.entities[0].dims) == 1
    assert decl.entities[1].name == "b"
    assert len(decl.entities[1].dims) == 2


def test_dimension_with_bounds():
    u = sub_body("x = 1", specs="real a(0:10, -1:5)")
    decl = u.specs[0]
    dims = decl.entities[0].dims
    assert dims[0].lower.value == 0
    assert dims[1].lower is not None


def test_array_section_args():
    u = sub_body("a(1:n) = b(1:n) + c(i, 1:n:2)")
    stmt = u.body[0]
    sec = stmt.target.args[0]
    assert isinstance(sec, F.RangeExpr)
    c = stmt.value.right
    assert isinstance(c.args[1], F.RangeExpr)
    assert c.args[1].stride is not None


def test_data_statement():
    u = sub_body("x = 1", specs="data a, b /1.0, 2.0/")
    data = [s for s in u.specs if isinstance(s, F.DataStmt)][0]
    assert len(data.names) == 2 and len(data.values) == 2


def test_equivalence_statement():
    u = sub_body("x = 1", specs="equivalence (a, b), (c(1), d)")
    eq = [s for s in u.specs if isinstance(s, F.EquivalenceStmt)][0]
    assert len(eq.groups) == 2


def test_clone_is_deep():
    u = sub_body("do i = 1, n\n a(i) = 0\n end do")
    loop = u.body[0]
    copy = loop.clone()
    copy.body[0].target.name = "zz"
    assert loop.body[0].target.name == "a"


def test_walk_visits_all():
    u = sub_body("a(i) = b(i) + 1")
    names = [n.name for n in u.body[0].walk() if isinstance(n, F.Apply)]
    assert set(names) == {"a", "b"}


# -- expanded statement surface --------------------------------------------


def test_common_statement():
    u = sub_body("x = 1", specs="common /blk/ a, b(10)\ncommon c")
    commons = [s for s in u.specs if isinstance(s, F.CommonStmt)]
    assert len(commons) == 2
    assert commons[0].block == "blk"
    assert commons[1].block == ""  # blank common
    assert commons[0].entities[1].dims[0].upper.value == 10


def test_save_statement_forms():
    u = sub_body("x = 1", specs="save a, /blk/\nsave")
    saves = [s for s in u.specs if isinstance(s, F.SaveStmt)]
    assert saves[0].names == ["a", "/blk/"]
    assert saves[1].names == []


def test_external_intrinsic():
    u = sub_body("x = f(1)", specs="external f, g\nintrinsic sqrt")
    ext = [s for s in u.specs if isinstance(s, F.ExternalStmt)][0]
    intr = [s for s in u.specs if isinstance(s, F.IntrinsicStmt)][0]
    assert ext.names == ["f", "g"]
    assert intr.names == ["sqrt"]


def test_entry_statement():
    u = sub_body("x = 1\nentry other(a, b)\nx = 2")
    entries = [s for s in u.body if isinstance(s, F.EntryStmt)]
    assert entries[0].name == "other"
    assert entries[0].args == ["a", "b"]


def test_data_repeat_counts():
    u = sub_body("x = 1", specs="data a /3*0.0/, i /2/")
    d = [s for s in u.specs if isinstance(s, F.DataStmt)][0]
    assert [v.name for v in d.names] == ["a", "i"]
    rep = d.values[0]  # 3*0.0 repeat count
    assert isinstance(rep, F.BinOp) and rep.op == "*"
    assert rep.left.value == 3
    assert d.values[1].value == 2


def test_format_statement_raw_spec():
    u = sub_body("write (*, 10) x\n10 format (i6, 2x, f8.3)")
    fmts = [s for s in u.body if isinstance(s, F.FormatStmt)]
    assert len(fmts) == 1
    assert fmts[0].label == 10
    assert "i6" in fmts[0].spec


def test_assigned_goto():
    u = sub_body("assign 10 to lbl\ngoto lbl, (10, 20)\n"
                 "10 continue\n20 continue")
    asg = [s for s in u.body if isinstance(s, F.AssignLabelStmt)][0]
    agt = [s for s in u.body if isinstance(s, F.AssignedGoto)][0]
    assert (asg.target, asg.var) == (10, "lbl")
    assert (agt.var, agt.targets) == ("lbl", [10, 20])


def test_io_statements_full_set():
    u = sub_body(
        "open (unit=7, file='x.dat', err=90)\n"
        "read (7, 10, end=90) a, b\n"
        "write (7, fmt=10) a\n"
        "rewind 7\n"
        "backspace (7)\n"
        "inquire (file='x.dat', exist=ok)\n"
        "close (7)\n"
        "10 format (2f8.2)\n"
        "90 continue")
    kinds = [s.kind for s in u.body if isinstance(s, F.IoStmt)]
    assert kinds == ["open", "read", "write", "rewind", "backspace",
                     "inquire", "close"]
    rd = [s for s in u.body if isinstance(s, F.IoStmt)][1]
    assert [c.keyword for c in rd.controls] == [None, None, "end"]
    assert [v.name for v in rd.items] == ["a", "b"]


def test_print_and_write_star_stay_legacy():
    u = sub_body("print *, x\nwrite (*, *) y\nread *, z")
    assert isinstance(u.body[0], F.PrintStmt)
    assert isinstance(u.body[1], F.PrintStmt)
    assert isinstance(u.body[2], F.ReadStmt)


def test_print_with_format_label_is_iostmt():
    u = sub_body("print 10, x\n10 format (i6)")
    io = [s for s in u.body if isinstance(s, F.IoStmt)][0]
    assert io.kind == "print"
    assert io.controls[0].value.value == 10


def test_write_vs_assignment_disambiguation():
    # write(i) = ... is an assignment to an array named write
    u = sub_body("write(i) = 1.0", specs="real write(10)")
    assert isinstance(u.body[0], F.Assign)


# -- recovery with a sink ---------------------------------------------------


def test_recovery_continues_after_bad_statement():
    from repro.fortran.diagnostics import DiagnosticSink
    src = ("      subroutine s\n"
           "      x = ((1\n"
           "      y = 2\n"
           "      end\n")
    sink = DiagnosticSink(src)
    sf = parse_program(src, sink)
    assert sink.error_count == 1
    # the statement after the bad one still parsed
    assert any(isinstance(s, F.Assign) and s.target.name == "y"
               for s in sf.units[0].body)


def test_recovery_missing_end_f103():
    from repro.fortran.diagnostics import DiagnosticSink
    src = "      program p\n      x = 1\n"
    sink = DiagnosticSink(src)
    sf = parse_program(src, sink)
    assert [d.code for d in sink.errors] == ["F103"]
    assert sink.errors[0].line >= 1
    assert len(sf.units) == 1


def test_recovery_unbalanced_block_f104():
    from repro.fortran.diagnostics import DiagnosticSink
    src = ("      program p\n"
           "      do i = 1, 5\n"
           "      x = i\n"
           "      end\n")
    sink = DiagnosticSink(src)
    sf = parse_program(src, sink)
    assert "F104" in [d.code for d in sink.errors]
    # the loop body was still attached
    assert isinstance(sf.units[0].body[0], F.DoLoop)
