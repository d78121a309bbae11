"""The import layering, as a checked property (DESIGN.md, "Import
layering").

The compile path — parse → restructure → estimate, which is all that
``repro.experiments``, ``repro.lint`` and the server's request cell do —
never executes a program, so it must run to completion without NumPy,
without the interpreter and without what only a flag asks for
(``--jobs`` → ``multiprocessing``, ``--profile`` → profile sessions and
exports, ``--telemetry`` → the shard merger).  Each check here *runs* a
user command in a fresh interpreter and then reads ``sys.modules``; the
same commands under a blocked NumPy (``sys.modules["numpy"] = None``:
any stray import raises) must print the same bytes.  The converse — the
execute path and the three flags still work from a cold process, where
nothing was imported by an earlier test — is checked the same way.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SAMPLE = REPO / "examples" / "sample.f"

#: runs one command in this (fresh) interpreter with stdout captured,
#: then reports stdout, the exit code and every module that got loaded
PROBE = r"""
import contextlib, io, json, runpy, sys
spec = json.loads(sys.argv[1])
if spec["block_numpy"]:
    sys.modules["numpy"] = None
out, code = io.StringIO(), 0
with contextlib.redirect_stdout(out):
    if "cell" in spec:
        from repro.server.worker import run_request_cell
        print(json.dumps(run_request_cell(spec["cell"]), sort_keys=True))
    else:
        sys.argv = spec["argv"]
        try:
            runpy.run_module(spec["argv"][0], run_name="__main__",
                             alter_sys=True)
        except SystemExit as exc:
            code = exc.code or 0
json.dump({"stdout": out.getvalue(), "code": code,
           "loaded": sorted(m for m, v in sys.modules.items()
                            if v is not None)}, sys.stdout)
"""

#: never on the compile path
EXECUTE_PATH = ("numpy", "repro.cedar.kernels", "repro.execmodel.interp",
                "repro.execmodel.values", "repro.execmodel.shadow",
                "repro.execmodel.source_jit", "repro.execmodel.compiled",
                "repro.validate", "repro.faults.sweep")
#: loaded by a flag, and only by it
JOBS = ("multiprocessing", "concurrent.futures")
PROFILE = ("repro.trace.profile",)
TELEMETRY = ("repro.telemetry.export", "repro.telemetry.report")
#: what a compile-path command given none of those flags leaves unloaded
UNASKED = EXECUTE_PATH + JOBS + PROFILE + TELEMETRY
#: a command that runs no sweep leaves the sweep executor alone, and one
#: that does not go through ``experiments/__main__`` (which names the
#: experiments in its ``--help``) the seven drivers and 22 workloads too
SWEEP = ("repro.engine.parallel",)
DRIVERS = ("repro.experiments.__main__", "repro.experiments.worker",
           "repro.experiments.table1", "repro.workloads")


@functools.lru_cache(maxsize=None)
def _probe(spec_json: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
               PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", PROBE, spec_json],
                          env=env, cwd=str(REPO), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


def run_cold(spec: dict, block_numpy: bool = False) -> dict:
    """``spec`` (``argv`` or ``cell``) in a fresh interpreter; one
    process per distinct spec however many tests read it."""
    return _probe(json.dumps({**spec, "block_numpy": block_numpy},
                             sort_keys=True))


def loaded_of(result: dict, names) -> list[str]:
    return [m for m in result["loaded"]
            if any(m == n or m.startswith(n + ".") for n in names)]


def _cell(**fields) -> dict:
    return {"cell": {"source": SAMPLE.read_text(), "path": "sample.f",
                     **fields}}


#: user command → what it must not have loaded once it has run
COMPILE_PATH = {
    "experiments": (
        {"argv": ["repro.experiments", "table1", "fig9", "--quick",
                  "--json"]},
        UNASKED),
    "source": (
        {"argv": ["repro.experiments", "--source", str(SAMPLE), "--json"]},
        UNASKED + SWEEP),
    "lint": (
        {"argv": ["repro.lint", str(SAMPLE)]},
        UNASKED + SWEEP + DRIVERS
        + ("repro.restructurer", "repro.machine", "repro.execmodel")),
    "cell-restructure": (
        _cell(endpoint="restructure", quick=True),
        UNASKED + SWEEP + DRIVERS),
    "cell-lint": (
        _cell(endpoint="lint"),
        UNASKED + SWEEP + DRIVERS),
    "cell-fault-scenario": (
        _cell(endpoint="restructure", quick=True,
              fault_scenario="dead-ce"),
        UNASKED + SWEEP + DRIVERS),
}


@pytest.mark.parametrize("command", sorted(COMPILE_PATH))
def test_compile_path_loads_no_execute_path_module(command):
    spec, forbidden = COMPILE_PATH[command]
    result = run_cold(spec)
    assert result["code"] == 0 and result["stdout"]
    assert loaded_of(result, forbidden) == []
    # the probe does see modules: the command's own package is there
    assert loaded_of(result, ("repro",))


@pytest.mark.parametrize("command", sorted(COMPILE_PATH))
def test_output_is_byte_identical_under_a_blocked_numpy(command):
    spec, _ = COMPILE_PATH[command]
    blocked = run_cold(spec, block_numpy=True)
    assert blocked["code"] == 0
    assert blocked["stdout"] == run_cold(spec)["stdout"]
    assert "numpy" not in blocked["loaded"]


def test_flags_load_their_modules_from_a_cold_process(tmp_path):
    """``--jobs 2 --profile DIR --telemetry DIR`` on the compile path:
    the lazily imported modules load when asked for — the fan-out and
    the shard merger in the parent, the profile session in its forked
    workers, which leave the files — the payload is the serial run's,
    and the parent still never loads NumPy."""
    serial_spec, _ = COMPILE_PATH["experiments"]
    prof, telem = tmp_path / "prof", tmp_path / "telem"
    result = run_cold({"argv": serial_spec["argv"] + [
        "--jobs", "2", "--profile", str(prof), "--telemetry", str(telem)]})
    assert result["code"] == 0
    assert result["stdout"] == run_cold(serial_spec)["stdout"]
    assert {"multiprocessing", "repro.telemetry.export"} \
        <= set(result["loaded"])
    assert loaded_of(result, EXECUTE_PATH) == []
    assert sorted(p.name for p in prof.iterdir()) == [
        "fig9.profile.json", "fig9.trace.json",
        "table1.profile.json", "table1.trace.json"]
    assert (telem / "metrics.json").is_file()


def test_execute_path_entry_points_run_from_a_cold_process(tmp_path):
    out = tmp_path / "validate.json"
    validate = run_cold({"argv": [
        "repro.validate", "tridag", "lubksb", "--no-bisect", "--jobs", "2",
        "--telemetry", str(tmp_path / "telem"), "-o", str(out)]})
    assert validate["code"] == 0
    assert json.loads(out.read_text())["summary"]["ok"] == 4
    assert (tmp_path / "telem" / "metrics.json").is_file()
    assert {"numpy", "repro.execmodel.interp"} <= set(validate["loaded"])

    faults = run_cold({"argv": [
        "repro.faults", "sweep", "--quick", "--workloads", "tridag",
        "--scenarios", "healthy", "dead-ce", "--json"]})
    assert faults["code"] == 0
    assert json.loads(faults["stdout"])["summary"]["ok"] == 2
    assert {"numpy", "repro.cedar.library"} <= set(faults["loaded"])


def test_only_the_execute_path_imports_numpy_at_module_level():
    """The source-level form of the rule: a module that imports NumPy
    when *it* is imported is an execute-path module.  Everything else
    that touches arrays (the workloads' ``make_args``/``verify``, the
    fuzzer's case builder, the intrinsic table's array forms) imports
    it in the function that runs."""
    import ast

    import repro

    root = Path(repro.__file__).resolve().parent
    eager = set()
    for path in root.rglob("*.py"):
        for node in ast.parse(path.read_text()).body:
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module or ""]
                     if isinstance(node, ast.ImportFrom) else [])
            if any(n.partition(".")[0] == "numpy" for n in names):
                eager.add(str(path.relative_to(root)))
    assert eager == {
        "cedar/kernels.py", "execmodel/interp.py", "execmodel/shadow.py",
        "execmodel/source_jit.py", "execmodel/values.py",
        "faults/sweep.py", "validate/differential.py"}


# ---------------------------------------------------------------------------
# the module-level ``__getattr__``s behave like the import lines they
# replaced

LAZY_PACKAGES = ("repro", "repro.engine", "repro.execmodel",
                 "repro.experiments")


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_public_name_resolves_and_unknown_ones_do_not(package):
    import importlib

    mod = importlib.import_module(package)
    for name in mod.__all__:
        assert getattr(mod, name) is not None
        assert name in dir(mod)
    assert not hasattr(mod, "no_such_name")
    with pytest.raises(AttributeError, match="no_such_name"):
        mod.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_name")


# ---------------------------------------------------------------------------
# no module is orphaned: each one is reached from another ``repro`` module

#: modules nothing under ``src/repro`` reaches, and why each may exist.
#: A ``__main__`` is exempt by rule (``python -m`` runs it); a workload
#: needs no entry, since its suite's registry imports it by name.
ENTRY_MODULES = {
    "repro.fortran.fuzz": "a `python -m` entry point (CI's fuzz oracle); "
                          "the fuzz tests import it",
}


def _from_base(node, package: str) -> str:
    """The absolute module a ``from … import`` statement reads from."""
    base = node.module or ""
    if node.level:
        parts = package.split(".")
        anchor = ".".join(parts[:len(parts) - node.level + 1])
        base = f"{anchor}.{base}".rstrip(".")
    return base


def _imported_modules(path: Path, name: str, modules: set[str]) -> set[str]:
    """Every ``repro`` module the source of module ``name`` imports:
    module-level or inside a function, ``from pkg import submodule``
    included, and the module strings of a ``lazy_exports`` table."""
    import ast

    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, package)
            found.add(base)
            found.update(f"{base}.{a.name}" for a in node.names)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"):
            table = node.args[1]
            found.update(k.value for k in table.keys
                         if isinstance(k, ast.Constant))
    # importing a submodule imports every package above it
    return {prefix for m in found for prefix in _prefixes(m)} & modules


def _reexported_names(path: Path, package: str, module: str,
                      modules: set[str]) -> set[str]:
    """The names package ``__init__`` (at ``path``) re-exports from
    ``module``: ``from module import X`` where ``X`` is no submodule,
    and the names of ``module``'s ``lazy_exports`` entry.  A registry
    that imports modules whole re-exports none."""
    import ast

    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.ImportFrom)
                and _from_base(node, package) == module):
            names.update(a.name for a in node.names
                         if f"{module}.{a.name}" not in modules)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "lazy_exports"):
            table = node.args[1]
            for k, v in zip(table.keys, table.values):
                if isinstance(k, ast.Constant) and k.value == module:
                    names.update(e.value for e in v.elts)
    return names


def _mentioned_names(path: Path) -> set[str]:
    """Every identifier a module's source mentions: names, attributes
    and imported names (a superset of the names it uses)."""
    import ast

    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rpartition(".")[2])
    return found


def _prefixes(module: str) -> list[str]:
    parts = module.split(".")
    return [".".join(parts[:k]) for k in range(1, len(parts) + 1)]


def test_every_module_is_imported_by_another_module():
    """A module is reached when another ``repro`` module imports it.  An
    import by its own package's ``__init__`` alone counts only while some
    other module uses a name that ``__init__`` re-exports from it: a
    re-export nothing reads keeps dead code looking imported."""
    import repro

    root = Path(repro.__file__).resolve().parent
    paths = {}
    for path in root.rglob("*.py"):
        rel = path.relative_to(root.parent).with_suffix("")
        parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
        paths[".".join(parts)] = path
    modules = set(paths)
    importers: dict[str, set[str]] = {m: set() for m in modules}
    for name, path in paths.items():
        for m in _imported_modules(path, name, modules) - {name}:
            importers[m].add(name)
    stale = set(ENTRY_MODULES) - modules
    assert not stale, f"ENTRY_MODULES names no module: {sorted(stale)}"
    orphans = {m for m, by in importers.items()
               if not by and m.rpartition(".")[2] != "__main__"}
    for m, by in importers.items():
        package = m.rpartition(".")[0]
        if by != {package}:
            continue
        names = _reexported_names(paths[package], package, m, modules)
        if names and not any(names & _mentioned_names(paths[o])
                             for o in modules - {m, package}):
            orphans.add(m)
    assert orphans == set(ENTRY_MODULES)
