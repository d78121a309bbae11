#!/usr/bin/env python3
"""Census of what each entry point imports before it does any work.

For each entry point behind a ``process.import_s.*`` row of
``BENCHMARK.json``: the median wall time of a fresh interpreter
importing it, how many ``repro`` / third-party / standard-library
modules that leaves in ``sys.modules``, whether NumPy and
``multiprocessing`` are among them (the compile path — experiments,
server, lint, faults' CLI — should say no to NumPy; DESIGN.md, "Import
layering"), and the largest ``-X importtime`` self times.

Usage (repo root): ``PYTHONPATH=src python scripts/import_census.py``
— Markdown on stdout.  Informational: nothing here is gated
(``tests/test_import_layering.py`` is the gate).
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

#: row → the import a fresh process pays before the command's first
#: useful statement.  The server's ``main()`` imports its stack itself,
#: so its row lists what that call loads before it listens.
ENTRY_POINTS = {
    "experiments": "import repro.experiments.__main__",
    "validate": "import repro.validate.__main__",
    "faults": "import repro.faults.__main__",
    "server": "import repro.server.__main__, repro.server.http, "
              "repro.server.service, repro.experiments.common",
    "lint": "import repro.lint.__main__",
}

RUNS = 5    # fresh imports timed per entry point
TOP = 10    # ``-X importtime`` self times listed per entry point


def fresh_import_ms(statement: str) -> float:
    samples = []
    for _ in range(RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", statement], check=True)
        samples.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(samples)


def loaded_modules(statement: str) -> tuple[list[str], list[tuple[float, str]]]:
    """Module names one import leaves loaded, and ``(self ms, module)``
    per ``-X importtime`` line."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         f"{statement}; import json, sys; "
         "print(json.dumps(sorted(sys.modules)))"],
        check=True, capture_output=True, text=True)
    self_ms = []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            own, _, name = line[len("import time:"):].split("|")
            self_ms.append((int(own) / 1e3, name.strip()))
    return json.loads(proc.stdout), self_ms


def kind_of(module: str) -> str:
    top = module.partition(".")[0]
    if top == "repro":
        return "repro"
    # the probe's own ``__main__`` counts with the interpreter
    return ("stdlib" if top in sys.stdlib_module_names or top == "__main__"
            else "third-party")


def main() -> int:
    print(f"| entry point | fresh import ms (median of {RUNS}) | repro "
          "| third-party | stdlib | NumPy | multiprocessing |")
    print("|---|---:|---:|---:|---:|---|---|")
    tops = {}
    for name, statement in ENTRY_POINTS.items():
        modules, self_ms = loaded_modules(statement)
        counts = {k: sum(kind_of(m) == k for m in modules)
                  for k in ("repro", "third-party", "stdlib")}
        tops[name] = sorted(self_ms, reverse=True)[:TOP]
        print(f"| {name} | {fresh_import_ms(statement):.0f} "
              f"| {counts['repro']} | {counts['third-party']} "
              f"| {counts['stdlib']} "
              f"| {'yes' if 'numpy' in modules else 'no'} "
              f"| {'yes' if 'multiprocessing' in modules else 'no'} |")
    print()
    print(f"| entry point | largest self times, ms (-X importtime, top "
          f"{TOP}) |")
    print("|---|---|")
    for name, top in tops.items():
        print(f"| {name} | "
              + ", ".join(f"`{mod}` {ms:.1f}" for ms, mod in top) + " |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
