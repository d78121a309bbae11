"""Proxy kernels for the Perfect Benchmarks programs of Table 2.

The real suite is large proprietary applications; each proxy here is a
compact Fortran 77 kernel embedding the *parallelization obstacles* the
paper documents for that program (§4.1) — so the automatic configuration
of the restructurer fails on it in the same way the 1991 KAP did, and the
"manual" (aggressive) configuration unlocks it through the same
techniques.  Table 2's auto-vs-manual structure is therefore reproduced
by construction of the same compiler decisions, not by curve fitting.
"""

from __future__ import annotations

from repro.workloads.perfect import (
    adm,
    arc2d,
    bdna,
    dyfesm,
    flo52,
    mdg,
    mg3d,
    ocean,
    qcd,
    spec77,
    track,
    trfd,
)
from repro.workloads.record import Workload, declared

PERFECT_PROGRAMS: dict[str, Workload] = {
    m.NAME: declared(m, "perfect") for m in (
        arc2d, flo52, bdna, dyfesm, adm, mdg,
        mg3d, ocean, track, trfd, qcd, spec77,
    )
}
