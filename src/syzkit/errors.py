"""Exception types shared across the toolkit.

Every error carries a stable machine-readable ``code`` that the CLI echoes
in its JSON error reports.
"""


class SyzkitError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "Error"


class EmptyInputError(SyzkitError):
    code = "EmptyInput"


class UnsupportedDimensionError(SyzkitError):
    code = "UnsupportedDimension"


class DimensionMismatchError(SyzkitError):
    code = "DimensionMismatch"


class SearchBudgetExceededError(SyzkitError):
    code = "SearchBudgetExceeded"


class OutputTooLargeError(SyzkitError):
    code = "OutputTooLarge"


class ZeroPolynomialError(SyzkitError):
    code = "ZeroPolynomial"


class SupportMismatchError(SyzkitError):
    code = "SupportMismatch"


class ShapeMismatchError(SyzkitError):
    code = "ShapeMismatch"


class InvalidBasisError(SyzkitError):
    code = "InvalidBasis"


class VerificationFailedError(SyzkitError):
    code = "VerificationFailed"
