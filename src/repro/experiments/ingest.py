"""Real-world ingestion: ``python -m repro.experiments --source FILE.f``.

The front door for Fortran sources that are not one of the paper's
canned workloads.  The file is first lint-gated through
:mod:`repro.lint` — the same recovered diagnostic stream as
``python -m repro.lint`` — and rejected (exit 1, diagnostics on stderr)
if the linter finds errors.  A clean file is then run through the
restructurer, and every program unit is estimated serial vs Cedar the
same way the paper's tables are, with the unit's dummy arguments bound
to a common problem size (loop bounds the estimator cannot resolve fall
back to its usual 100-trip default).

The result is an ordinary :class:`repro.experiments.report.Table`, so
``--json`` output is ``repro-experiment/1``-shaped and validates with
``scripts/validate_experiment_json.py`` like any sweep payload.  The
full lint report (``repro-lint/1`` file record) rides along in
``meta["lint"]``.
"""

from __future__ import annotations

import json
import sys

from repro.experiments.report import JSON_SCHEMA, Table

#: dummy-argument binding used for every unit (``--quick`` shrinks it)
DEFAULT_SIZE = 100
QUICK_SIZE = 24


def ingest_source(text: str, path: str, quick: bool = False,
                  faults=None):
    """Lint-gate then estimate ``text``; returns ``(table, report)``.

    ``table`` is ``None`` when the linter found errors — the caller
    decides how to render the failure (CLI prints the diagnostic
    stream and exits 1).  ``faults`` optionally degrades the simulated
    machine with a :class:`repro.faults.FaultPlan` (timing only; the
    restructuring itself is untouched).
    """
    from repro.engine.cache import get_cache
    from repro.experiments.common import (SpeedupResult,
                                          restructured_estimate,
                                          serial_estimate)
    from repro.lint.engine import lint_source
    from repro.machine.config import cedar_config1
    from repro.restructurer.options import RestructurerOptions

    report = lint_source(text, path=path)
    if report.error_count or report.ast is None:
        return None, report
    # the lint above already parsed a clean source: hand its tree to
    # the estimators below instead of parsing the text a second time
    get_cache().seed_parse(text, report.ast)

    size = QUICK_SIZE if quick else DEFAULT_SIZE
    machine = cedar_config1()
    options = RestructurerOptions.automatic()
    t = Table(
        title=f"Ingested source {path} (Cedar Configuration 1, "
              f"args bound to {size})",
        columns=["unit", "kind", "serial cycles", "cedar cycles",
                 "speedup"],
    )
    t.meta["source"] = path
    t.meta["size"] = size
    t.meta["lint"] = report.to_dict()
    t.meta["trace"] = {}
    if faults is not None and faults.active:
        t.meta["fault_scenario"] = faults.name
        t.notes.append(f"fault scenario {faults.name!r} active: "
                       "cedar cycles reflect the degraded machine")
    if report.warning_count:
        t.notes.append(f"lint: {report.warning_count} warning(s) — "
                       f"run python -m repro.lint {path} for details")
    else:
        t.notes.append("lint: clean")
    for unit in report.ast.units:
        bindings = {a: float(size) for a in unit.args}
        try:
            ser = serial_estimate(text, unit.name, bindings, machine)
            par, _, rep = restructured_estimate(
                text, unit.name, bindings, machine, options,
                faults=faults)
        except Exception as exc:  # estimator limits, not user errors
            t.notes.append(f"unit {unit.name!r}: not estimable "
                           f"({type(exc).__name__}: {exc})")
            continue
        res = SpeedupResult(serial=ser, parallel=par, report=rep)
        t.add(unit.name, unit.kind, ser.total, par.total, res.speedup)
        t.meta["trace"][unit.name] = res.trace_entry()
    return t, report


def source_payload(table: Table, quick: bool) -> dict:
    """The ``repro-experiment/1`` JSON payload for one ingested source.

    Factored out so the ``--source --json`` CLI and the
    ``repro.server`` ``/restructure`` endpoint build the *same* object
    — their serialized outputs are byte-identical by construction.
    """
    return {
        "schema": JSON_SCHEMA,
        "quick": quick,
        "experiments": {"source": table.to_dict()},
    }


def run_source(args) -> int:
    """CLI half of ``--source``; shares the 0/1/2/3 exit map with
    ``repro.lint`` (1 = lint findings, 2 = usage, 3 = internal fault)."""
    try:
        with open(args.source, "r", encoding="utf-8",
                  errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {args.source}: {exc}", file=sys.stderr)
        return 2
    try:
        table, report = ingest_source(text, args.source,
                                      quick=args.quick)
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal fault ingesting {args.source}: "
              f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if table is None:
        print(report.render(), file=sys.stderr)
        print(f"{args.source}: {report.error_count} error(s) — "
              f"not ingested", file=sys.stderr)
        return 1
    if args.as_json:
        json.dump(source_payload(table, args.quick), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(table.render())
        if report.warning_count:
            print()
            print(report.render())
    return 0
