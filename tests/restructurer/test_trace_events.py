"""Decision-trace tests: the restructurer must explain itself.

Every loop the planner leaves serial must carry at least one rejection
event with a human-readable reason (the paper's §4.1 "why didn't it
parallelize" methodology), pass-level transformations must log what they
did, and the report summary must disambiguate same-named loops by source
line.
"""

from repro.api import restructure_source
from repro.restructurer.options import RestructurerOptions

RECURRENCE = """      subroutine rec(a, b, n)
      integer n
      real a(100), b(100)
      do 10 i = 1, n
         a(i) = b(i) * 2.0
 10   continue
      do 20 i = 2, n
         b(i) = b(i-1) * 0.5 + a(i)
 20   continue
      return
      end
"""

PRIV = """      subroutine pv(a, b, n)
      integer n
      real a(100), b(100)
      real t
      do 10 i = 1, n
         t = b(i) * 2.0
         a(i) = t + 1.0
 10   continue
      return
      end
"""

REDUCTION = """      subroutine rd(a, n, s)
      integer n
      real a(100), s
      s = 0.0
      do 10 i = 1, n
         a(i) = a(i) * 1.5
         s = s + a(i)
 10   continue
      return
      end
"""

FUSABLE = """      subroutine fu(a, b, c, n)
      integer n
      real a(100), b(100), c(100)
      do 10 i = 1, n
         a(i) = b(i) + 1.0
 10   continue
      do 20 j = 1, n
         c(j) = a(j) * 2.0
 20   continue
      return
      end
"""

CALLS = """      subroutine outer(a, n)
      integer n
      real a(100)
      call work(a, n)
      return
      end
      subroutine work(x, m)
      integer m
      real x(100)
      do 10 i = 1, m
         x(i) = x(i) + 1.0
 10   continue
      return
      end
"""


def _events(source, options=None):
    _, report = restructure_source(source, options)
    return report


class TestPlannerEvents:
    def test_serial_loop_has_rejection_with_reason(self):
        report = _events(RECURRENCE)
        serial = [p for u in report.units.values() for p in u.plans
                  if p.chosen == "serial"]
        assert serial, "recurrence loop should stay serial"
        for p in serial:
            rej = [e for e in report.rejections()
                   if e.loop == f"do {p.original.var}" and e.line == p.line]
            assert rej, f"no rejection recorded for {p.loop_id}"
            assert any(e.reason for e in rej)

    def test_carried_dependence_is_named(self):
        report = _events(RECURRENCE)
        xdoall_rej = [e for e in report.events
                      if e.technique == "xdoall" and e.action == "rejected"]
        assert any("b" in e.reason for e in xdoall_rej)

    def test_winner_carries_predicted_cost(self):
        report = _events(RECURRENCE)
        acc = [e for e in report.events
               if e.action == "accepted" and e.kind == "plan"
               and e.predicted_cycles is not None]
        assert acc

    def test_losers_compare_against_winner(self):
        report = _events(PRIV)
        rej = [e for e in report.events
               if e.action == "rejected" and "cycles vs" in e.reason]
        assert rej


    def test_a_failed_version_is_not_also_rejected(self):
        """cg's loop at line 17: ``xdoall-vector`` fails to materialise
        and ``xdoall`` wins.  The failure is the failed version's one
        record — no "predicted N cycles vs M" rejection beside it."""
        from repro.validate.configs import PIPELINE_CONFIGS
        from repro.workloads import validation_cases

        report = _events(validation_cases()["cg"].source,
                         PIPELINE_CONFIGS["automatic"]())
        plans = [(e.technique, e.action) for e in report.events
                 if e.kind == "plan" and e.line == 17]
        assert ("xdoall-vector", "failed") in plans
        assert ("xdoall", "accepted") in plans
        assert ("xdoall-vector", "rejected") not in plans
        failed = {(e.unit, e.loop, e.line, e.technique)
                  for e in report.events if e.action == "failed"}
        assert not any((e.unit, e.loop, e.line, e.technique) in failed
                       for e in report.events if e.action == "rejected")


class TestPassEvents:
    def test_privatization_logged(self):
        report = _events(PRIV)
        priv = [e for e in report.events if e.technique == "privatize"]
        assert any(e.action == "applied" and "t:" in e.reason for e in priv)

    def test_reduction_logged(self):
        report = _events(REDUCTION)
        red = [e for e in report.events if e.technique == "reduction"]
        assert any(e.action == "applied" and "s:" in e.reason for e in red)

    def test_fusion_logged_with_both_loops(self):
        opts = RestructurerOptions.manual()
        report = _events(FUSABLE, opts)
        fus = [e for e in report.events if e.technique == "fusion"
               and e.action == "applied"]
        assert fus
        assert any("do j" in e.reason for e in fus)

    def test_inline_logged(self):
        opts = RestructurerOptions.manual()
        report = _events(CALLS, opts)
        inl = [e for e in report.events if e.technique == "inline"]
        assert any(e.action == "applied" and e.loop == "call work"
                   for e in inl)

    def test_globalize_logged_with_reason(self):
        report = _events(PRIV)
        glob = [e for e in report.events if e.technique == "globalize"]
        assert glob
        assert all(e.reason for e in glob)


class TestReportPlumbing:
    def test_summary_disambiguates_by_line(self):
        report = _events(RECURRENCE)
        text = report.summary()
        assert "do i @ line 4" in text
        assert "do i @ line 7" in text

    def test_events_for_unit_filter(self):
        report = _events(CALLS, RestructurerOptions.manual())
        assert report.events_for("outer")
        assert all(e.unit == "outer" for e in report.events_for("outer"))

    def test_to_dict_is_json_ready(self):
        import json

        report = _events(REDUCTION)
        d = report.to_dict()
        json.dumps(d)
        assert "decisions" in d and d["units"]["rd"]["plans"]

    def test_nestplan_to_dict_carries_line(self):
        report = _events(RECURRENCE)
        plans = report.units["rec"].plans
        assert all(p.to_dict()["line"] == p.line for p in plans)
        assert {p.line for p in plans} == {4, 7}
