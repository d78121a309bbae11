"""Seeded random-F77 generator and its two oracles.

``generate(seed)`` produces a deterministic fixed-form Fortran 77
program from an explicit seed — no wall-clock entropy anywhere, so a
failing seed is a permanent reproducer.  Two modes:

- **surface** — exercises the whole statement surface the parser
  accepts (declarations, COMMON/EQUIVALENCE/DATA/SAVE/EXTERNAL, labeled
  and END DO loops, block/logical IF, plain/computed/assigned GOTO, the
  full I/O set, FORMAT, ENTRY) with every referenced label defined, so
  generated programs are parse-clean by construction;
- **executable** — a restructurer-friendly subroutine over ``(n, a, b,
  c)`` real arrays: affine in-bounds subscripts, recurrences,
  reductions, and guarded branches, with no I/O — suitable for
  differential execution through :func:`repro.validate.validate_workload`.

Oracles:

- :func:`round_trip_check` — parse → unparse → re-parse AST identity
  (:func:`repro.fortran.ast_nodes.ast_equal`, reported via ``ast_diff``);
- :func:`differential_check` — run an executable program through the
  restructuring pipeline and compare against the sequential baseline.

CLI: ``python -m repro.fortran.fuzz --seed 1 --count 200 --check``
(exit 1 on any oracle failure; ``--out DIR`` writes the programs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.fortran.ast_nodes import ast_diff
from repro.fortran.parser import parse_program
from repro.fortran.unparse import unparse

#: FORMAT edit-descriptor specs the surface generator draws from
_FORMAT_SPECS = (
    "(i5)", "(2x,i5)", "(f8.3,1x,e12.4)", "('x = ',f10.4)",
    "(3(i4,1x))", "(a,i3)", "(1x,2f9.2)",
)

_INT_SCALARS = ("i", "j", "k", "m")
_REAL_SCALARS = ("x", "y", "z", "w")
_REAL_ARRAYS = ("u", "v")
_COEFFS = ("0.25", "0.5", "1.5", "2.0", "0.125", "3.0")


@dataclass(frozen=True)
class FuzzProgram:
    """One generated program and how it was produced."""

    name: str
    seed: int
    mode: str          # "surface" | "executable"
    source: str
    entry: str = ""    # executable mode: the subroutine to call


class _CardWriter:
    """Emits fixed-form cards, splitting long statements onto
    continuation cards at spaces outside quoted text."""

    def __init__(self):
        self.lines: list[str] = []

    def comment(self, text: str = "") -> None:
        self.lines.append(("c " + text).rstrip())

    def blank(self) -> None:
        self.lines.append("")

    def card(self, text: str, label: Optional[int] = None,
             depth: int = 0) -> None:
        head = f"{label:>5} " if label is not None else "      "
        body = "   " * depth + text
        while len(body) > 66:
            cut = self._safe_cut(body)
            # keep the boundary space on the continuation card so the
            # fixed-form join cannot glue adjacent tokens together
            self.lines.append((head + body[:cut]).rstrip())
            body = body[cut:]
            head = "     &"
        self.lines.append((head + body).rstrip())

    @staticmethod
    def _safe_cut(body: str) -> int:
        inq = False
        best = 40  # fall back to a mid-card hard cut (never happens for
        for i, ch in enumerate(body[:66]):  # the short literals we emit)
            if ch == "'":
                inq = not inq
            elif ch == " " and not inq and i >= 8:
                best = i
        return best

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


class _SurfaceGen:
    """Generates one parse-clean program covering the statement surface."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.seed = seed
        self.w = _CardWriter()
        self.next_label = 100
        #: labels that will be defined on trailing CONTINUE cards
        self.tail_labels: list[int] = []
        self.format_labels: list[int] = []

    def label(self) -> int:
        lbl = self.next_label
        self.next_label += 10
        return lbl

    def tail_label(self) -> int:
        if self.tail_labels and self.rng.random() < 0.6:
            return self.rng.choice(self.tail_labels)
        lbl = self.label()
        self.tail_labels.append(lbl)
        return lbl

    # -- expressions ---------------------------------------------------

    def int_expr(self, depth: int = 0) -> str:
        r = self.rng
        if depth >= 2 or r.random() < 0.5:
            return r.choice((str(r.randint(1, 9)),
                             r.choice(_INT_SCALARS)))
        op = r.choice(("+", "-", "*"))
        return f"{self.int_expr(depth + 1)} {op} {self.int_expr(depth + 1)}"

    def subscript(self) -> str:
        r = self.rng
        base = r.choice(_INT_SCALARS)
        if r.random() < 0.5:
            return base
        return f"{base} + {r.randint(1, 3)}"

    def real_term(self) -> str:
        r = self.rng
        pick = r.random()
        if pick < 0.35:
            return r.choice(_COEFFS)
        if pick < 0.7:
            return r.choice(_REAL_SCALARS)
        return f"{r.choice(_REAL_ARRAYS)}({self.subscript()})"

    def real_expr(self, depth: int = 0) -> str:
        r = self.rng
        if depth >= 2 or r.random() < 0.4:
            return self.real_term()
        if r.random() < 0.12:
            return f"-{self.real_term()}"
        op = r.choice(("+", "-", "*", "+", "*"))
        lhs = self.real_expr(depth + 1)
        rhs = self.real_expr(depth + 1)
        if r.random() < 0.15:
            return f"({lhs} {op} {rhs})"
        return f"{lhs} {op} {rhs}"

    def cond(self) -> str:
        r = self.rng
        rel = r.choice((".lt.", ".le.", ".gt.", ".ge.", ".eq.", ".ne."))
        base = f"{self.real_term()} {rel} {self.real_term()}"
        if r.random() < 0.25:
            rel2 = r.choice((".lt.", ".gt."))
            join = r.choice((".and.", ".or."))
            base += f" {join} {self.real_term()} {rel2} {self.real_term()}"
        if r.random() < 0.1:
            return f".not. ({base})"
        return base

    # -- statements ----------------------------------------------------

    def assignment(self) -> str:
        r = self.rng
        if r.random() < 0.4:
            target = f"{r.choice(_REAL_ARRAYS)}({self.subscript()})"
        elif r.random() < 0.6:
            target = r.choice(_REAL_SCALARS)
        else:
            return f"{r.choice(_INT_SCALARS)} = {self.int_expr()}"
        return f"{target} = {self.real_expr()}"

    def io_stmt(self) -> str:
        r = self.rng
        fmt = r.choice(self.format_labels)
        items = ", ".join(self.real_term() for _ in range(r.randint(1, 3)))
        return r.choice((
            f"write (6, {fmt}) {items}",
            f"write (6, fmt = {fmt}) {items}",
            f"read (5, {fmt}) {r.choice(_REAL_SCALARS)}",
            f"print {fmt}, {items}",
            f"print *, {items}",
            f"open (unit = 9, file = 'scratch.dat', status = 'unknown')",
            "close (9)",
            "rewind 9",
            "backspace 9",
            "endfile 9",
            f"inquire (unit = 9, opened = {r.choice(_INT_SCALARS)})",
        ))

    def emit_simple(self, depth: int) -> None:
        r = self.rng
        pick = r.random()
        if pick < 0.45:
            self.w.card(self.assignment(), depth=depth)
        elif pick < 0.65:
            self.w.card(self.io_stmt(), depth=depth)
        elif pick < 0.75:
            self.w.card(f"goto {self.tail_label()}", depth=depth)
        elif pick < 0.82:
            l1, l2 = self.tail_label(), self.tail_label()
            idx = r.choice(_INT_SCALARS)
            self.w.card(f"goto ({l1}, {l2}), {idx}", depth=depth)
        elif pick < 0.89:
            var = r.choice(_INT_SCALARS)
            lbl = self.tail_label()
            self.w.card(f"assign {lbl} to {var}", depth=depth)
            self.w.card(f"goto {var} ({lbl})", depth=depth)
        elif pick < 0.95:
            inner = r.choice((f"goto {self.tail_label()}",
                              self.assignment(), "continue"))
            self.w.card(f"if ({self.cond()}) {inner}", depth=depth)
        else:
            self.w.card(f"call extsub({self.real_term()}, "
                        f"{self.real_term()})", depth=depth)

    def emit_block(self, depth: int, budget: int) -> None:
        r = self.rng
        while budget > 0:
            budget -= 1
            pick = r.random()
            if depth < 3 and pick < 0.18:
                var = r.choice(_INT_SCALARS)
                lo, hi = r.randint(1, 3), r.randint(4, 12)
                if r.random() < 0.5:
                    self.w.card(f"do {var} = {lo}, {hi}", depth=depth)
                    self.emit_block(depth + 1, r.randint(1, 3))
                    self.w.card("end do", depth=depth)
                else:
                    lbl = self.label()
                    self.w.card(f"do {lbl} {var} = {lo}, {hi}",
                                depth=depth)
                    self.emit_block(depth + 1, r.randint(1, 2))
                    self.w.card("continue", label=lbl, depth=depth)
            elif depth < 3 and pick < 0.32:
                self.w.card(f"if ({self.cond()}) then", depth=depth)
                self.emit_block(depth + 1, r.randint(1, 2))
                if r.random() < 0.4:
                    self.w.card(f"else if ({self.cond()}) then",
                                depth=depth)
                    self.emit_block(depth + 1, r.randint(1, 2))
                if r.random() < 0.5:
                    self.w.card("else", depth=depth)
                    self.emit_block(depth + 1, r.randint(1, 2))
                self.w.card("end if", depth=depth)
            else:
                self.emit_simple(depth)
            if r.random() < 0.08:
                self.w.comment(f"marker {r.randint(0, 999)}")

    # -- whole program -------------------------------------------------

    def generate(self) -> FuzzProgram:
        r = self.rng
        name = f"fz{self.seed:04d}"
        kind = r.choice(("program", "subroutine", "function"))
        self.w.comment(f"seeded fuzz program (surface mode, seed "
                       f"{self.seed})")
        if kind == "program":
            self.w.card(f"program {name}")
        elif kind == "subroutine":
            self.w.card(f"subroutine {name}(x, y)")
        else:
            self.w.card(f"real function {name}(x, y)")
        # -- specifications
        self.w.card("integer " + ", ".join(_INT_SCALARS))
        self.w.card("real " + ", ".join(_REAL_SCALARS))
        self.w.card(f"dimension u({r.randint(20, 60)})")
        self.w.card(f"real v({r.randint(20, 60)})")
        if r.random() < 0.6:
            self.w.card("common /blk/ t(50)")
        if r.random() < 0.5:
            self.w.card(f"parameter (c1 = {r.randint(2, 9)})")
        if r.random() < 0.4:
            self.w.card("save x, y")
        elif r.random() < 0.3:
            self.w.card("save")
        self.w.card("external extsub")
        if r.random() < 0.3:
            self.w.card("intrinsic sqrt")
        if r.random() < 0.4:
            self.w.card("equivalence (x, w), (u(1), v(1))")
        if r.random() < 0.6:
            self.w.card(f"data i, x /{r.randint(0, 9)}, "
                        f"{r.choice(_COEFFS)}/")
        if r.random() < 0.3:
            self.w.card(f"data u /{r.randint(2, 5)}*0.0/")
        for _ in range(r.randint(1, 3)):
            lbl = self.label()
            self.format_labels.append(lbl)
            self.w.card(f"format {r.choice(_FORMAT_SPECS)}", label=lbl)
        # -- executable body
        self.emit_block(1, r.randint(6, 14))
        if kind == "subroutine" and r.random() < 0.4:
            self.w.card(f"entry {name}b(x)")
            self.emit_block(1, 2)
        if kind == "function":
            self.w.card(f"{name} = x + y")
        # define every pending GOTO target
        for lbl in self.tail_labels:
            self.w.card("continue", label=lbl)
        if kind == "program" and r.random() < 0.5:
            self.w.card(f"stop {r.randint(0, 7)}" if r.random() < 0.5
                        else "stop")
        else:
            self.w.card("return" if kind != "program" else "continue")
        self.w.card("end")
        return FuzzProgram(name=name, seed=self.seed, mode="surface",
                           source=self.w.text())


class _ExecGen:
    """Generates one executable, restructurer-friendly subroutine."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed ^ 0x5EED)
        self.seed = seed
        self.w = _CardWriter()

    def _loop(self, idx: str, arrays: tuple[str, ...]) -> None:
        r = self.rng
        target = r.choice(arrays)
        shape = r.random()
        if shape < 0.3:
            # first-order recurrence: stays serial or needs the
            # recurrence solver — a restructurer stress case
            self.w.card(f"do {idx} = 2, n", depth=1)
            src = r.choice([a for a in arrays if a != target])
            self.w.card(
                f"{target}({idx}) = {target}({idx} - 1) * "
                f"{r.choice(('0.25', '0.5'))} + {src}({idx})", depth=2)
            self.w.card("end do", depth=1)
        elif shape < 0.55:
            # independent elementwise update, possibly guarded
            self.w.card(f"do {idx} = 1, n", depth=1)
            others = [a for a in arrays if a != target]
            rhs = (f"{others[0]}({idx}) * {r.choice(_COEFFS)} + "
                   f"{others[1]}({idx})")
            if r.random() < 0.4:
                self.w.card(f"if ({others[0]}({idx}) .gt. 0.0) then",
                            depth=2)
                self.w.card(f"{target}({idx}) = {rhs}", depth=3)
                self.w.card("else", depth=2)
                self.w.card(f"{target}({idx}) = {others[1]}({idx}) - "
                            f"{r.choice(_COEFFS)}", depth=3)
                self.w.card("end if", depth=2)
            else:
                self.w.card(f"{target}({idx}) = {rhs}", depth=2)
            self.w.card("end do", depth=1)
        elif shape < 0.75:
            # reduction into a scalar
            self.w.card(f"do {idx} = 1, n", depth=1)
            self.w.card(f"s = s + {target}({idx}) * "
                        f"{r.choice(_COEFFS)}", depth=2)
            self.w.card("end do", depth=1)
        else:
            # shifted read (forward dependence-free): i+1 with bound n-1
            self.w.card(f"do {idx} = 1, n - 1", depth=1)
            src = r.choice([a for a in arrays if a != target])
            self.w.card(f"{target}({idx}) = {src}({idx} + 1) * "
                        f"{r.choice(('0.5', '0.25'))} + "
                        f"{src}({idx})", depth=2)
            self.w.card("end do", depth=1)

    def generate(self) -> FuzzProgram:
        r = self.rng
        name = f"fzx{self.seed:04d}"
        self.w.comment(f"seeded fuzz program (executable mode, seed "
                       f"{self.seed})")
        self.w.card(f"subroutine {name}(n, a, b, c)")
        self.w.card("integer n")
        self.w.card("real a(n), b(n), c(n)")
        self.w.card("real s")
        self.w.card("integer i")
        self.w.card("s = 0.0")
        arrays = ("a", "b", "c")
        for _ in range(r.randint(2, 4)):
            self._loop("i", arrays)
        self.w.card("b(1) = b(1) + s")
        self.w.card("end")
        return FuzzProgram(name=name, seed=self.seed, mode="executable",
                           source=self.w.text(), entry=name)


def generate(seed: int, mode: str = "surface") -> FuzzProgram:
    """Deterministically generate one program from an explicit seed."""
    if mode == "surface":
        return _SurfaceGen(seed).generate()
    if mode == "executable":
        return _ExecGen(seed).generate()
    raise ValueError(f"unknown fuzz mode {mode!r}")


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def round_trip_check(source: str) -> Optional[str]:
    """Parse → unparse → re-parse AST-identity oracle.

    Returns ``None`` on success, else a description of the first
    difference (an :func:`ast_diff` path, or the exception text when a
    stage failed outright).
    """
    try:
        a1 = parse_program(source)
    except Exception as exc:
        return f"initial parse failed: {exc}"
    try:
        text = unparse(a1)
    except Exception as exc:
        return f"unparse failed: {exc}"
    try:
        a2 = parse_program(text)
    except Exception as exc:
        return f"re-parse failed: {exc}"
    return ast_diff(a1, a2)


def make_case(prog: FuzzProgram, n: int = 24):
    """Wrap an executable fuzz program as a ValidationCase."""
    import numpy as np
    from repro.workloads import ValidationCase

    if prog.mode != "executable":
        raise ValueError("only executable fuzz programs are runnable")

    def make_args(n, rng):
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        c = rng.standard_normal(n)
        return (n, a.copy(), b.copy(), c.copy()), None

    return ValidationCase(
        name=prog.name, suite="linalg", source=prog.source,
        entry=prog.entry, make_args=make_args, n=n)


def differential_check(prog: FuzzProgram, n: int = 24,
                       processors: tuple[int, ...] = (2,),
                       seeds: tuple[int, ...] = (3,),
                       ) -> Optional[str]:
    """Differential-execution oracle for executable fuzz programs.

    Restructures the program under the ``automatic`` pipeline and
    compares parallel interpretation under the race detector against
    the sequential baseline, both on the compiled engine — so generated
    programs exercise the engine's lowering and recording paths, not
    just the committed workloads.  Returns ``None`` when the
    configuration validates, else a description of the first failure.
    """
    from repro.validate.configs import PIPELINE_CONFIGS
    from repro.validate.differential import validate_workload

    result = validate_workload(
        make_case(prog, n=n), {"automatic": PIPELINE_CONFIGS["automatic"]},
        seeds=seeds, processors=processors, bisect=False)
    for cfg in result.configs:
        if not cfg.ok:
            return f"config {cfg.config}: {cfg.error or cfg.status}"
    return None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    import argparse
    import os
    import sys

    ap = argparse.ArgumentParser(
        prog="python -m repro.fortran.fuzz",
        description="Seeded F77 fuzzer with round-trip and differential "
                    "oracles")
    ap.add_argument("--seed", type=int, default=1,
                    help="base seed (program k uses seed+k)")
    ap.add_argument("--count", type=int, default=20,
                    help="number of programs to generate")
    ap.add_argument("--mode", choices=("surface", "executable", "mixed"),
                    default="mixed",
                    help="statement-surface programs, executable "
                         "programs, or 4:1 mixed (default)")
    ap.add_argument("--check", action="store_true",
                    help="run the round-trip oracle on every program "
                         "(and the differential oracle on executable "
                         "ones when --differential)")
    ap.add_argument("--differential", action="store_true",
                    help="also differentially execute executable "
                         "programs (slower)")
    ap.add_argument("--out", metavar="DIR", default=None,
                    help="write the generated programs into DIR")
    ns = ap.parse_args(argv)
    if ns.count < 1:    # an oracle run that checks nothing must not pass
        ap.error(f"argument --count: not a positive integer: {ns.count}")

    failures = 0
    for k in range(ns.count):
        seed = ns.seed + k
        if ns.mode == "mixed":
            mode = "executable" if k % 5 == 4 else "surface"
        else:
            mode = ns.mode
        prog = generate(seed, mode)
        if ns.out:
            os.makedirs(ns.out, exist_ok=True)
            path = os.path.join(ns.out, f"{prog.name}.f")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(prog.source)
        if ns.check:
            diff = round_trip_check(prog.source)
            if diff is not None:
                failures += 1
                print(f"FAIL {prog.name} (seed {seed}, {mode}): "
                      f"round-trip: {diff}", file=sys.stderr)
                continue
            if ns.differential and mode == "executable":
                err = differential_check(prog)
                if err is not None:
                    failures += 1
                    print(f"FAIL {prog.name} (seed {seed}): "
                          f"differential: {err}", file=sys.stderr)
    total = ns.count
    if ns.check:
        print(f"{total - failures}/{total} programs passed "
              f"({'round-trip + differential' if ns.differential else 'round-trip'} oracle)")
    else:
        print(f"generated {total} program(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys
    sys.exit(main())
