"""One record per program: each workload module declares its facts once.

A linalg or perfect module defines exactly the upper-case constants its
:class:`~repro.workloads.record.Workload` reads, and Tables 1 and 2 take
their row order and paper columns off the records, not off a side table.
"""

import importlib
import pkgutil

import pytest

from repro.experiments import table1, table2
from repro.workloads import (LINALG_ROUTINES, PERFECT_PROGRAMS, Workload,
                             validation_cases)
from repro.workloads.record import MODULE_FACTS
from repro.workloads.synthetic import CASCADE_WORKLOAD

#: the constants every module of a suite defines
REQUIRED = {"NAME", "ENTRY", "SOURCE", "VALIDATE_N", "PAPER_N", "PAPER"}
SUITES = {"linalg": (LINALG_ROUTINES, REQUIRED),
          "perfect": (PERFECT_PROGRAMS, REQUIRED | {"TECHNIQUES"})}


def _modules(suite):
    package = importlib.import_module(f"repro.workloads.{suite}")
    return [importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)]


MODULES = [(suite, m) for suite in SUITES for m in _modules(suite)]


@pytest.mark.parametrize("suite, module", MODULES,
                         ids=[m.__name__ for _, m in MODULES])
def test_a_module_defines_exactly_what_its_record_reads(suite, module):
    records, required = SUITES[suite]
    constants = {name for name in vars(module)
                 if name.isupper() and not name.startswith("_")}
    assert constants <= set(MODULE_FACTS), \
        f"{module.__name__} declares facts no record reads: " \
        f"{sorted(constants - set(MODULE_FACTS))}"
    assert required <= constants, sorted(required - constants)
    record = records[module.NAME]
    assert record.suite == suite
    for const in constants:
        assert getattr(record, MODULE_FACTS[const]) == \
            getattr(module, const), const
    for fn in ("make_args", "bindings", "verify"):
        if hasattr(module, fn):
            assert getattr(record, fn) is getattr(module, fn), fn


def test_validation_cases_are_the_records_themselves():
    cases = validation_cases()
    assert list(cases) == list(LINALG_ROUTINES) + list(PERFECT_PROGRAMS)
    assert len(cases) == 22
    assert all(isinstance(c, Workload) for c in cases.values())
    assert all(cases[n] is r for n, r in
               {**LINALG_ROUTINES, **PERFECT_PROGRAMS}.items())
    assert CASCADE_WORKLOAD.name not in cases
    assert [n for n, c in cases.items() if c.permutation_ok] == ["TRACK"]


class _Pair:
    speedup = 1.0

    def trace_entry(self):
        return {}


@pytest.fixture
def no_estimates(monkeypatch):
    for table in (table1, table2):
        monkeypatch.setattr(table, "estimate_pair", lambda *a: _Pair())


def test_table1_reads_its_rows_and_paper_column_off_the_records(
        no_estimates):
    t = table1.run()
    assert t.column("routine") == list(LINALG_ROUTINES)
    assert t.column("size") == [r.paper_n for r in LINALG_ROUTINES.values()]
    assert t.column("paper speedup") == \
        [r.paper["cedar_auto"] for r in LINALG_ROUTINES.values()]


def test_table2_reads_its_rows_and_paper_columns_off_the_records(
        no_estimates):
    t = table2.run()
    assert t.column("program") == list(PERFECT_PROGRAMS)
    for key in ("fx80_auto", "cedar_auto", "fx80_manual", "cedar_manual"):
        assert t.column("paper " + key.replace("_", " ")) == \
            [p.paper[key] for p in PERFECT_PROGRAMS.values()], key
