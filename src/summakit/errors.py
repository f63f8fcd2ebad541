"""Exception hierarchy shared by every summakit module."""


class SummakitError(Exception):
    """Base class for all summakit errors."""


class ZeroDiagonalError(SummakitError):
    """A triangular matrix has a zero diagonal entry, so it is not normal."""

    def __init__(self, index: int):
        super().__init__(f"diagonal entry at row {index} is zero")
        self.index = index


class ShapeMismatchError(SummakitError):
    """Matrix rows do not form a consistent lower triangle."""


class LengthMismatchError(SummakitError):
    """A sequence is shorter than the operation requires."""


class SizeMismatchError(SummakitError):
    """Two matrices (or a matrix and a sequence) disagree on truncation order."""


class TailUnavailableError(SummakitError):
    """An infinite-tail sum was requested beyond what the inputs can supply."""


class BadExponentError(SummakitError):
    """The summability exponent k must satisfy k >= 1."""


class IndexOutOfRangeError(SummakitError):
    """A probe or identity index lies outside the truncated range."""


class DegenerateProbeError(SummakitError):
    """A probe produced a zero norm, so no bound ratio can be formed."""


class WeightOverflowError(SummakitError):
    """A float weight or cumulative weight sum is not finite; the message names the first such index."""


class PowerOverflowError(SummakitError):
    """A scalar float power is past float range; the message names the quantity and its index."""


class ConfigError(SummakitError):
    """An experiment configuration failed validation; message names the field."""
