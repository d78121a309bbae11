"""Parametric performance model of the Cedar machine (and Alliant FX/80).

The model captures the architectural features the paper's experiments
exercise:

- the three-level memory hierarchy (cache / cluster memory / global
  memory) with per-level access latencies, and the 32-element vector
  prefetch unit global streams go through
  (:mod:`repro.machine.memory`, paper §2.2.3);
- global-memory bandwidth saturation across clusters (Figure 8);
- virtual-memory paging and thrashing (Table 1's mprove anomaly);
- self-scheduled (microtasked) DOALL loops with per-level startup and
  dispatch costs, priced in closed form (:mod:`repro.machine.scheduler`,
  §2.2.1, §4.2.4);
- DOACROSS await/advance signalling (charged by the scheduler), lock
  contention and reduction combines (:mod:`repro.machine.sync`).

Subroutine-level tasking (``ctskstart``/``mtskstart``, §2.2.2) is not
modelled; late helper tasks are a start-up delay of S/X loops in the
scheduler.

All times are in processor clock cycles.
"""

from repro.machine.config import (
    MachineConfig,
    alliant_fx80,
    cedar_config1,
    cedar_config2,
)
from repro.machine.memory import MemorySystem
from repro.machine.paging import PagingModel
from repro.machine.scheduler import LoopScheduler
from repro.machine.sync import SyncModel
from repro.machine.vector import VectorUnit

__all__ = [
    "MachineConfig",
    "cedar_config1",
    "cedar_config2",
    "alliant_fx80",
    "MemorySystem",
    "PagingModel",
    "LoopScheduler",
    "SyncModel",
    "VectorUnit",
]
