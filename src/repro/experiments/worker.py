"""Picklable per-experiment cell for the parallel experiments driver.

One cell = one experiment (table/figure), optionally profiled and
crash-isolated, returning everything the parent needs to merge output
deterministically: the JSON table dict, the pre-rendered text table, and
the optional trace rendering — worker processes must not print.
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
    timeout, isolate (bool).  Returns ``{"name", "table_dict", "text",
    "fault"}`` — ``fault`` set (and the others None) when the isolated
    run crashed or timed out.
    """
    name = job["name"]
    quick = job["quick"]

    def run_one():
        if not job["profile"]:
            return ALL_EXPERIMENTS[name](quick=quick)
        from repro.experiments.common import profiled
        from repro.prof.export import write_chrome_trace

        with profiled(name) as session:
            table = ALL_EXPERIMENTS[name](quick=quick)
        write_chrome_trace(
            session, os.path.join(job["profile"], f"{name}.trace.json"))
        with open(os.path.join(job["profile"],
                               f"{name}.profile.json"), "w") as fh:
            json.dump(session.to_profile_doc(quick=quick), fh, indent=2)
            fh.write("\n")
        return table

    if job["isolate"]:
        from repro.faults.harness import run_isolated

        table, fault = run_isolated(run_one, label=f"experiment {name}",
                                    timeout=job["timeout"])
        if fault is not None:
            return {"name": name, "table_dict": None, "text": None,
                    "fault": fault.to_dict()}
    else:
        table = run_one()

    text = table.render()
    if job["trace"] and table.meta.get("trace"):
        from repro.trace.report import TraceReport

        text += "\n\n" + TraceReport(table.title,
                                     table.meta["trace"]).render()
    return {"name": name, "table_dict": table.to_dict(), "text": text,
            "fault": None}
