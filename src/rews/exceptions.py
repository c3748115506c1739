"""Exception types shared across the package."""


class CurveError(ValueError):
    """Raised when a power-coefficient table cannot form a valid curve."""


class EnvelopeError(ValueError):
    """Raised when a query leaves the validated operating envelope."""


class ConfigError(ValueError):
    """Raised for invalid estimator / scenario configuration."""


class GridCoverageError(RuntimeError):
    """Raised when a grid's end values cannot prove the locus off the disk past it."""
