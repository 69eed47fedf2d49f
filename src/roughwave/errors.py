"""Exception types shared across the package."""


class RoughwaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(RoughwaveError, ValueError):
    """Grid construction with non-positive step, bad bounds, or too many nodes."""


class ParameterError(RoughwaveError, ValueError):
    """A numeric parameter is outside its admissible range."""


class ShapeMismatchError(RoughwaveError, ValueError):
    """Tabulated data does not match the grid it is paired with."""


class ResolutionError(RoughwaveError, ValueError):
    """Tabulation step too coarse for the requested smoothing scale."""


class DomainError(RoughwaveError, ValueError):
    """Evaluation requested outside a field's safe domain."""


class DomainEscapeError(RoughwaveError, RuntimeError):
    """A characteristic left the coefficient domain before the target time."""


class EmptyDomainError(RoughwaveError, ValueError):
    """Requested domain of determinacy is empty (kappa <= c*T)."""


class IterationLimitError(RoughwaveError, RuntimeError):
    """A fixed-point iteration exhausted max_iter without reaching tolerance,
    or a solve's tables fail the residual audit of their own equations."""


class ConfigError(RoughwaveError, ValueError):
    """Run configuration is malformed; message names the offending key path."""
