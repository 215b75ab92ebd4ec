"""Exception types shared across the package."""


class MetabeamError(Exception):
    """Base class for package-specific failures."""


class SingularMatrixError(MetabeamError, ArithmeticError):
    """A linear system was numerically singular (pivot below threshold)."""


class NumericalError(MetabeamError, ArithmeticError):
    """A value that must be finite (a loss, a parameter) was NaN or inf."""


class DegenerateInputError(MetabeamError, ValueError):
    """An input was degenerate for the requested operation (e.g. all-zero)."""


class DataFormatError(MetabeamError, ValueError):
    """A binary file failed validation (bad magic, truncation, size mismatch)."""


class ConfigError(MetabeamError, ValueError):
    """A config file or config value was rejected."""


class CapabilityError(MetabeamError, ValueError):
    """The requested problem size is outside what this routine supports."""
