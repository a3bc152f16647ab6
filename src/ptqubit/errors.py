"""Exception types shared across the package."""


class PtQubitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(PtQubitError, ValueError):
    """An argument is outside its documented domain (bad grid, dt <= 0, ...)."""


class NormalizationError(PtQubitError):
    """A state that must be normalized is not, beyond tolerance."""


class RegimeError(PtQubitError):
    """An operation defined only in one symmetry regime was called in another."""


class VanishingNormError(PtQubitError):
    """A propagated or post-selected state has norm below the renormalization floor."""


class NoStatisticsError(PtQubitError):
    """A sampling run ended with zero accepted shots; no estimate can be formed."""
