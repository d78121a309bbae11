"""Top-level API tests (the quickstart surface)."""

import numpy as np

import repro
from repro import (
    parse_source,
    restructure,
    restructure_source,
    unparse_cedar,
    unparse_f77,
)

SRC = """
      subroutine saxpy(n, a, x, y)
      integer n
      real a, x(n), y(n)
      integer i
      do i = 1, n
         y(i) = y(i) + a * x(i)
      end do
      end
"""


def test_version():
    assert repro.__version__


def test_parse_and_unparse_roundtrip():
    sf = parse_source(SRC)
    text = unparse_f77(sf)
    sf2 = parse_source(text)
    assert sf2.units[0].name == "saxpy"


def test_restructure_source_produces_cedar_text():
    text, report = restructure_source(SRC)
    assert "xdoall" in text
    assert "global" in text
    assert report.units["saxpy"].parallelized_loops == 1


def test_restructure_ast_then_unparse():
    cedar, report = restructure(parse_source(SRC))
    text = unparse_cedar(cedar)
    assert "end xdoall" in text


def test_docstring_example_runs():
    """The module docstring's quickstart must actually work."""
    cedar_source, report = restructure_source("""
      subroutine saxpy(n, a, x, y)
      integer n
      real a, x(n), y(n)
      do 10 i = 1, n
         y(i) = y(i) + a * x(i)
   10 continue
      end
""")
    assert "xdoall" in cedar_source


def test_end_to_end_pipeline_with_interpreter():
    from repro.execmodel.interp import Interpreter

    cedar, _ = restructure(parse_source(SRC))
    x = np.arange(1.0, 33.0)
    y = np.ones(32)
    Interpreter(cedar, processors=4).call("saxpy", 32, 3.0, x, y)
    assert np.allclose(y, 1.0 + 3.0 * np.arange(1.0, 33.0))


def test_library_reads_no_environment():
    """Flags are the only spellings (``--engine``, ``--telemetry``,
    ``--log-level``, ``--cache-dir``): nothing under ``src/repro`` may
    read or write the process environment, so no behaviour exists that
    the benchmark — which strips every ``REPRO_*`` variable — cannot
    see."""
    import re
    from pathlib import Path

    pattern = re.compile(r"\bos\.(environ|getenv|putenv|unsetenv)\b"
                         r"|\bfrom os import [^\n]*\b(environ|getenv)\b")
    root = Path(repro.__file__).resolve().parent
    offenders = [
        f"{path.relative_to(root)}:{n}: {line.strip()}"
        for path in sorted(root.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)]
    assert offenders == []
