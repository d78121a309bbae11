"""repro.faults — deterministic fault injection & graceful degradation.

The chaos layer: seeded, reproducible machine-degradation plans
(:class:`FaultPlan`) injected into the machine models through one
:class:`FaultInjector` per estimate, a hardened-harness toolkit
(watchdogs, crash isolation, checkpoint journals — :mod:`.harness`), and
a degradation oracle (``python -m repro.faults sweep``) asserting that a
faulted machine *degrades* — slower, attributed, bounded — but never
*diverges*: with the plan dealing the iterations over the surviving CEs
(:meth:`FaultPlan.deal`), results still validate.

Only the plan/injector layer is exported here; the harness and sweep are
imported by the CLIs on demand (they pull in the experiment stack).
"""

from repro.faults.inject import DEGRADED_PLACEMENTS, FaultInjector
from repro.faults.plan import (QUICK_SCENARIOS, SCENARIO_SPECS, FaultPlan,
                               all_scenarios, scenario)

__all__ = [
    "FaultPlan",
    "FaultInjector",
    "DEGRADED_PLACEMENTS",
    "SCENARIO_SPECS",
    "QUICK_SCENARIOS",
    "scenario",
    "all_scenarios",
]
