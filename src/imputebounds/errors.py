"""Exception hierarchy shared by every module.

Two families matter to callers: :class:`DataError` (bad input files, rows,
or probability tables; CLI exit code 3) and :class:`GuardError` (a
precondition failed, so the requested quantity is undefined or infeasible;
CLI exit code 4).
"""


class ImputeBoundsError(Exception):
    """Base class for all errors raised by this package."""


class DataError(ImputeBoundsError):
    """Invalid input data or configuration."""


class GuardError(ImputeBoundsError):
    """A precondition guard failed; the requested quantity is undefined."""


# --- population / table validation -----------------------------------------

class NegativeMass(DataError):
    """A probability mass is negative."""


class NonFiniteMass(DataError):
    """A probability mass is NaN or infinite."""


class MassNotNormalized(DataError):
    """Cell masses do not sum to one within tolerance."""


class OutcomeOutOfDomain(DataError):
    """An outcome value lies outside the declared outcome domain."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class ProbabilityOutOfRange(GuardError):
    """A probability lies outside [0, 1] or violates a feasibility bound."""


# --- empty-cell / zero-mass guards ------------------------------------------

class EmptyCell(GuardError):
    """The selected cell contains no records."""


class ZeroCellMass(GuardError):
    """The selected cell carries zero probability mass."""


class ZeroDenominator(GuardError):
    """A bound denominator is zero; the ratio is undefined."""


# --- estimator guards ---------------------------------------------------------

class NonBinaryOutcome(GuardError):
    """The operation requires a binary {0, 1} outcome."""


class ImputedValueOutOfDomain(GuardError):
    """An imputation model's support leaves the outcome domain."""


class MeanOutOfDomain(GuardError):
    """An assumed mean lies outside the outcome domain."""


class ModelUndefinedOnCell(GuardError):
    """The imputation model does not define a distribution for this cell."""


class QUndefinedForStratum(GuardError):
    """The assumed covariate distribution is missing a required stratum."""


class UnfittableStratum(GuardError):
    """A stratum that needs imputation has no observed donors to fit from."""


class RegimeMismatch(GuardError):
    """The table's missingness regime does not match the requested operation."""


# --- CSV ingestion -------------------------------------------------------------

class MalformedRow(DataError):
    """A CSV row cannot be parsed under the active configuration."""

    def __init__(self, line, message):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownColumn(DataError):
    """A configured column is absent from (or duplicated in) the CSV header."""
