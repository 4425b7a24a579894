"""Exception types raised by the library and mapped to CLI exit categories."""


class InvalidPeriodError(ValueError):
    """Period is outside the valid range for the series or not a valid integer."""


class SeriesTooShortError(ValueError):
    """Series has too few samples for the requested operation."""


class InvalidFilterError(ValueError):
    """Filter arguments violate their constraints (m even, k < 1, nu out of range)."""


class DegenerateSeparationError(InvalidPeriodError):
    """Duplicate periods leave no frequency separation to design filters around."""


class UndefinedCutoffError(ValueError):
    """The half-power cutoff is undefined (all-pass filter, m = 1)."""


class InsufficientResamplesError(ValueError):
    """Fewer resamples than the operation needs (quantile bands need at least 2)."""


class DegenerateBandError(ValueError):
    """A confidence band has zero width where a ratio against it is required."""


class UndefinedCorrelationError(ValueError):
    """Correlation is undefined because one of the inputs has zero variance."""


class CsvFormatError(ValueError):
    """Input CSV is malformed; message carries the offending line number."""


class ConfigError(ValueError):
    """A configuration file or flag combination is invalid."""
