"""Exception hierarchy for the rtmhd toolkit."""


class RtmhdError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RtmhdError):
    """A run configuration failed validation before any computation."""


class NonPositiveDensity(RtmhdError):
    """The assembled density profile dips to zero or below."""


class NoUnstableRegion(RtmhdError):
    """No bump with positive amplitude: the profile has no heavy-over-light region."""


class ZeroFrequency(RtmhdError):
    """Horizontal frequency xi = 0 requested where |xi| > 0 is required."""


class FactorizationBreakdown(RtmhdError):
    """Bracket expansion or inverse iteration failed in an eig.py eigen-solve."""


class BracketFailure(RtmhdError):
    """Fixed-point bracket is inconsistent; signals a discretization problem."""


class OutOfRange(RtmhdError):
    """Critical-frequency query outside its admissible parameter range."""


class InconsistentDecision(RtmhdError):
    """Numerical finite/infinite classification disagrees with the sign rule."""


class EmptyDomain(RtmhdError):
    """A lattice sweep found no unstable frequency inside the requested radius."""


class ResidualTooLarge(RtmhdError):
    """A reconstructed normal mode violates its equation-residual tolerance."""


class SolverSingular(RtmhdError):
    """The time-step linear system is singular (dt too large for the grid)."""


class DegenerateSeries(RtmhdError):
    """A norm time series contains non-positive values; no rate can be fitted."""


class RateMismatch(RtmhdError):
    """The time-integrated rate of a normal mode misses its predicted rate."""


class SharpnessViolation(RtmhdError):
    """A measured growth rate exceeds its per-frequency bound."""
