"""User-settable restructurer options.

The defaults correspond to the paper's *automatic* configuration (the 1991
KAP-derived restructurer).  The ``manual()`` preset switches on every
technique the paper applied *by hand* (§4.1) — array privatization,
generalized induction variables, run-time dependence tests, array
reductions, critical sections, inline expansion — which is how the
"manually improved" columns of Table 2 are modelled.  The paper's
interprocedural analysis (§4.1.1) has no switch: inline expansion is what
opens the loops that call a routine.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RestructurerOptions:
    """Knobs controlling which passes run and how loops are mapped."""

    # --- capability switches (baseline ≈ 1991 KAP) ---
    scalar_privatization: bool = True
    basic_induction: bool = True
    simple_reductions: bool = True          # s = s + a(i), single statement
    recurrence_recognition: bool = True     # library replacement
    doacross: bool = True
    stripmining: bool = True

    # --- advanced techniques (paper §4.1, off by default = "automatic") ---
    array_privatization: bool = False       # §4.1.2
    generalized_induction: bool = False     # §4.1.4 (GIVs)
    array_reductions: bool = False          # §4.1.3 (a(j) = a(j)+..., multi-stmt)
    multi_stmt_reductions: bool = False     # §4.1.3
    runtime_dependence_test: bool = False   # §4.1.5
    critical_sections: bool = False         # §4.1.6
    inline_expansion: bool = False          # §3.2
    loop_fusion: bool = False               # §4.2.4
    # The 1991 system mapped a single parallel loop to XDOALL+strip (§3.2);
    # choosing a cheap single-cluster CDOALL for small loops was part of
    # the manual loop-level/hardware-level matching the paper was still
    # studying (§3.4, §4.2.4)
    cluster_mapping: bool = False

    @staticmethod
    def automatic() -> "RestructurerOptions":
        """The baseline automatic configuration."""
        return RestructurerOptions()

    @staticmethod
    def manual() -> "RestructurerOptions":
        """The paper's hand-applied technique set (Table 2 'manual')."""
        return RestructurerOptions(
            array_privatization=True,
            generalized_induction=True,
            array_reductions=True,
            multi_stmt_reductions=True,
            runtime_dependence_test=True,
            critical_sections=True,
            inline_expansion=True,
            loop_fusion=True,
            cluster_mapping=True,
        )
