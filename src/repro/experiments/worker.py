"""Picklable per-experiment cell for the parallel experiments driver.

One cell = one experiment (table/figure), optionally profiled, run
under the ``--timeout`` watchdog (the executor isolates it), returning
everything the parent needs to merge output deterministically: the JSON
table dict, the pre-rendered text table, and the optional trace
rendering — worker processes must not print.
"""

from __future__ import annotations

import json
import os

from repro.experiments import (
    fig6_prefetch,
    fig7_privatization,
    fig8_partitioning,
    fig9_fusion,
    qcd_ablation,
    table1,
    table2,
)

#: name → driver; ``repro.experiments`` re-exports it on first use
ALL_EXPERIMENTS = {
    "table1": table1.run,
    "table2": table2.run,
    "fig6": fig6_prefetch.run,
    "fig7": fig7_privatization.run,
    "fig8": fig8_partitioning.run,
    "fig9": fig9_fusion.run,
    "qcd": qcd_ablation.run,
}


def run_experiment_cell(job: dict) -> dict:
    """Run one experiment; returns a JSON-shaped merge record.

    ``job`` keys: name, quick, trace (bool), profile (dir or None),
    timeout.  Returns ``{"name", "table_dict", "text"}``; a crash or
    timeout raises, and :func:`repro.engine.parallel.parallel_map`
    reports it as the cell's fault.
    """
    name = job["name"]
    quick = job["quick"]

    def run_one():
        if not job["profile"]:
            return ALL_EXPERIMENTS[name](quick=quick)
        from repro.experiments.common import profiled
        from repro.trace.profile import chrome_trace

        with profiled(name) as session:
            table = ALL_EXPERIMENTS[name](quick=quick)
        for kind, doc, indent in (
                ("trace", chrome_trace(session), 1),
                ("profile", session.to_profile_doc(quick=quick), 2)):
            with open(os.path.join(job["profile"], f"{name}.{kind}.json"),
                      "w") as fh:
                json.dump(doc, fh, indent=indent)
                fh.write("\n")
        return table

    from repro.faults.harness import watchdog

    # a raise (the watchdog's timeout included) is isolated by the
    # executor, which reports it in this cell's slot
    with watchdog(job["timeout"], f"experiment {name}"):
        table = run_one()

    text = table.render()
    if job["trace"] and table.meta.get("trace"):
        from repro.trace.report import TraceReport

        text += "\n\n" + TraceReport(table.title,
                                     table.meta["trace"]).render()
    return {"name": name, "table_dict": table.to_dict(), "text": text}
