"""Exception types shared across the package."""


class SpinWehrlError(Exception):
    """Base class for all package errors."""


class NonPhysicalState(SpinWehrlError):
    """State violates density-matrix constraints (trace, Hermiticity, positivity, tau > 1)."""


class WrongDimension(SpinWehrlError):
    """Operation requires a specific spin quantum number (usually J = 1/2)."""


class DimensionMismatch(SpinWehrlError):
    """Matrix dimensions are incompatible."""


class InvalidFrequency(SpinWehrlError):
    """Level splitting must be positive for thermal-occupation formulas."""


class NonMarkovianRate(SpinWehrlError):
    """Time-dependent damping rate became negative during evolution."""


class StiffnessFailure(SpinWehrlError):
    """Propagated states lost trace beyond the drift bound."""


class UnsupportedParameters(SpinWehrlError):
    """Parameters outside the supported regime: hypergeometric parameters, or a
    generator that evolve has no exact propagator for."""


class PrecisionFailure(SpinWehrlError):
    """Series did not converge to the requested precision."""


class NothingToCompare(SpinWehrlError):
    """Scenario supports fewer than two independent computation methods."""


class NonMarkovianRegime(SpinWehrlError):
    """Pulse parameters yield a negative effective decay rate."""


class AmplitudeUnderflow(SpinWehrlError):
    """Excited-state amplitude too small to define effective rates."""


class ConfigError(SpinWehrlError):
    """Scenario configuration is malformed or incomplete."""
