"""Acceptance: profile an entire Table 1 run and reconcile everything.

For every Table 1 routine, serial and restructured:

- the hardware counters × configured latencies equal the ledger's
  memory-side cycle categories to 1e-6 relative;
- every recorded loop's busy span durations sum to its ``busy_time``;
- profiling does not perturb the estimate (totals equal the unprofiled
  run exactly).
"""

import pytest

from repro.experiments import table1
from repro.experiments.common import profiled
from repro.trace.ledger import reconcile


@pytest.fixture(scope="module")
def profiled_table1():
    with profiled("table1") as session:
        table = table1.run(quick=True)
    return table, session


class TestTable1Reconciliation:
    def test_all_routines_profiled(self, profiled_table1):
        _, session = profiled_table1
        workloads = {r.workload for r in session.runs}
        # entry-point names may differ slightly from the table's routine
        # labels (e.g. sparse → sparsecg), but every routine must appear
        assert len(workloads) == len(table1.PAPER)
        for routine in table1.PAPER:
            assert any(routine in w or w in routine for w in workloads), \
                routine
        roles = {(r.workload, r.role) for r in session.runs}
        assert len(roles) == 2 * len(workloads)

    def test_counters_reconcile_with_ledger(self, profiled_table1):
        _, session = profiled_table1
        for run in session.runs:
            report = reconcile(run.ledger, run.cfg)
            bad = {k: v for k, v in report.items() if not v["ok"]}
            assert not bad, (run.workload, run.role, bad)

    def test_busy_spans_sum_to_busy_time(self, profiled_table1):
        _, session = profiled_table1
        n_loops = 0
        for run in session.runs:
            for rec in run.timeline:
                n_loops += 1
                assert rec.busy_span_sum() == pytest.approx(
                    rec.busy, rel=1e-9, abs=1e-9), (run.workload, rec.label)
                per = rec.worker_busy()
                assert sum(per) == pytest.approx(rec.busy, rel=1e-9,
                                                 abs=1e-9)
        # the parallel runs must actually contain parallel loops
        assert n_loops > 0

    def test_serial_runs_have_no_parallel_loops(self, profiled_table1):
        _, session = profiled_table1
        for run in session.runs:
            if run.role == "serial":
                assert len(run.timeline) == 0

    def test_profiling_does_not_perturb_totals(self, profiled_table1):
        table, _ = profiled_table1
        plain = table1.run(quick=True)
        assert [r for r in plain.rows] == [r for r in table.rows]

    def test_parallel_runs_count_loop_startups(self, profiled_table1):
        _, session = profiled_table1
        for run in session.runs:
            if run.role == "parallel" and len(run.timeline):
                assert run.ledger.counts["loop_startups"] > 0
                assert run.ledger.counts["chunks_dispatched"] > 0
