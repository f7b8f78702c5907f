"""Exception hierarchy: one class per distinct handling. A class exists only
when some caller treats it differently from its base; every other failure
reuses the class whose handling it shares, and its message says what went
wrong. Every domain failure derives from DomainError so the CLI can map it
to exit code 1; programming errors stay ordinary exceptions."""

import time


class DomainError(Exception):
    """Base class for all input-domain failures raised by this package."""


class BadParameter(DomainError):
    """An input outside the domain of the function that received it.
    `run_scan` catches it around `fit_exponent` to skip a fit."""


class TooLarge(DomainError):
    """A size budget (bits, inputs or blocks) rules the input out."""


class CellBudgetExceeded(DomainError):
    """A per-cell wall-clock deadline was hit mid-computation. `run_scan`
    catches it to leave the cell empty with a warning, so no other size
    error may share it: that would turn a real failure into a false timeout."""


def check_deadline(deadline) -> None:
    """CellBudgetExceeded once time.monotonic() is past deadline (None: no
    deadline)."""
    if deadline is not None and time.monotonic() > deadline:
        raise CellBudgetExceeded("cell wall-clock budget exhausted")


class NonSensitiveBlock(DomainError):
    def __init__(self, index):
        super().__init__(f"block #{index} does not flip the function value")
        self.index = index


class ValueIsOne(DomainError):
    pass


class EvaluatorMismatch(RuntimeError):
    """The batch evaluator disagreed with scalar `value`, or a witness term
    failed its checks: a programming error in some `patterns()` or
    `_isolation_terms()`, hence not a DomainError."""
