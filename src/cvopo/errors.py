"""Exception types raised by the cvopo modules."""


class CvopoError(Exception):
    """Base class for all cvopo errors."""


class BadShapeError(CvopoError):
    """Covariance entries are not a 4x4 matrix."""


class NonSymmetricError(CvopoError):
    """Covariance entries are asymmetric beyond tolerance."""


class NonFiniteError(CvopoError):
    """Covariance entries contain NaN or an infinity."""


class InvalidTransformError(CvopoError):
    """A transform matrix does not preserve the symplectic form."""


class BadEfficiencyError(CvopoError):
    """A transmission efficiency lies outside [0, 1]."""


class OutOfRangeError(CvopoError):
    """A model or configuration parameter violates its allowed range."""


class UnphysicalBlockError(CvopoError):
    """A single-mode block violates the uncertainty bound."""


class BadCorrelationError(CvopoError):
    """Derived correlation coefficient falls outside [-1, 1]."""


class TooFewSamplesError(CvopoError):
    """Not enough selected samples for a variance estimate."""


class NonPositiveSeparabilityError(CvopoError):
    """Separability must be positive to evaluate the entanglement of formation."""


class DegenerateVarianceError(CvopoError):
    """A conditioning variance is not positive."""


class NumericalFailureError(CvopoError):
    """Inconsistent matrix encountered in a closed-form evaluation."""


class NonPositiveVarianceError(CvopoError):
    """dB conversion requires a strictly positive variance."""


class FormatError(CvopoError):
    """A document failed to parse or violates its schema."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
