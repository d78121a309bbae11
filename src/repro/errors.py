"""Exception hierarchy for the repro package.

Every error raised by repro code derives from :class:`ReproError` so callers
can catch the whole family with one clause.  Front-end errors carry source
coordinates (line, column) when available.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all repro errors."""


class SourceError(ReproError):
    """An error tied to a position in Fortran source text.

    ``raw_message`` keeps the location-free text (the diagnostics layer
    re-renders locations itself); ``code`` optionally carries the
    diagnostic code (e.g. ``F101``) the error maps to.
    """

    code: str | None = None

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        self.raw_message = message
        loc = ""
        if line is not None:
            loc = f" at line {line}"
            if col is not None:
                loc += f", column {col}"
        super().__init__(message + loc)


class LexError(SourceError):
    """Raised by the fixed-form lexer on malformed input."""


class ParseError(SourceError):
    """Raised by the parser on a statement it cannot parse."""


class SemanticError(SourceError):
    """Raised for semantically invalid programs (bad types, shapes, labels)."""


class TransformError(ReproError):
    """Raised when a restructuring pass is applied to an ineligible target."""


class InterpreterError(ReproError):
    """Raised by the functional interpreter on runtime errors."""


class MachineModelError(ReproError):
    """Raised for inconsistent machine configurations or timing queries."""


class FaultInjectionError(ReproError):
    """Raised for malformed or unsatisfiable fault-injection plans."""


class BudgetExceededError(ReproError):
    """A wall-clock or step budget ran out before the work completed.

    Raised by the harness watchdog (:func:`repro.faults.harness.watchdog`)
    and by the interpreter's step-budget guard, so runaway transformed
    loops fail fast instead of hanging a sweep.
    """


class InterpreterBudgetError(InterpreterError, BudgetExceededError):
    """The interpreter exhausted its statement budget (livelock guard).

    Carries the source line of the statement being executed when the
    budget ran out, which is normally inside the offending loop.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message += f" (executing statement at line {line})"
        super().__init__(message)
