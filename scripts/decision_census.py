#!/usr/bin/env python3
"""Census of the restructurer's decisions: how often each technique is
accepted, rejected, applied, declined, failed or noted.

Every decision the planner and the passes make is a ``DecisionEvent``
on ``RestructureReport.events``; this counts them by ``(technique,
action)`` over two corpora, each under both presets (``automatic``,
``manual``):

- **proxies**: the 22 validation cases;
- **fuzz**: the 40 generated programs the restructurer's golden digests
  pin, ``fuzz.generate(2 + i, "executable")`` for i < 40.

It prints one Markdown table of the counts, the distinct pairs each
corpus reaches and the proxy pairs the fuzz programs never reach, then
the ``cdoacross`` decisions of each corpus by action and reason.

Usage (repo root): ``PYTHONPATH=src python scripts/decision_census.py``.
Informational: nothing here is gated.
"""

from __future__ import annotations

from collections import Counter

from repro.api import restructure
from repro.fortran import fuzz
from repro.fortran.parser import parse_program
from repro.validate.configs import PIPELINE_CONFIGS
from repro.workloads import validation_cases

FUZZ_SEED, FUZZ_COUNT = 2, 40


def corpora() -> dict[str, list[str]]:
    cases = validation_cases()
    return {
        "proxies": [cases[name].source for name in sorted(cases)],
        "fuzz": [fuzz.generate(FUZZ_SEED + i, "executable").source
                 for i in range(FUZZ_COUNT)],
    }


def census(sources: list[str]) -> tuple[Counter, Counter]:
    """``(pairs, cdoacross)``: the count of each ``(technique, action)``
    and of each ``(action, reason)`` of the ``cdoacross`` decisions."""
    pairs, doacross = Counter(), Counter()
    for source in sources:
        for config in sorted(PIPELINE_CONFIGS):
            _, report = restructure(parse_program(source),
                                    PIPELINE_CONFIGS[config]())
            for e in report.events:
                pairs[e.technique, e.action] += 1
                if e.technique == "cdoacross":
                    reason = e.reason if e.action == "rejected" else ""
                    doacross[e.action, reason] += 1
    return pairs, doacross


def main() -> None:
    names = list(corpora())
    results = {name: census(sources)
               for name, sources in corpora().items()}
    keys = sorted(set().union(*(pairs for pairs, _ in results.values())))
    print("| technique | action | " + " | ".join(names) + " |")
    print("|---|---|" + "---:|" * len(names))
    for technique, action in keys:
        print(f"| {technique} | {action} | " + " | ".join(
            str(results[n][0][technique, action]) for n in names) + " |")
    print()
    for name in names:
        print(f"distinct pairs, {name}: {len(results[name][0])}")
    missed = sorted(set(results["proxies"][0]) - set(results["fuzz"][0]))
    print(f"proxy pairs fuzz never reaches: {len(missed)}")
    for technique, action in missed:
        print(f"  {technique} {action}")
    for name in names:
        doacross = results[name][1]
        by_action = Counter()
        for (action, _), n in doacross.items():
            by_action[action] += n
        print(f"\ncdoacross, {name}: " + ", ".join(
            f"{by_action[a]} {a}" for a in ("accepted", "rejected")))
        for (action, reason), n in sorted(doacross.items()):
            if reason:
                print(f"  {n} {action}: {reason}")


if __name__ == "__main__":
    main()
