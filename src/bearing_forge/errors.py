"""Exception hierarchy shared across the package."""


class BearingForgeError(Exception):
    """Base class for all library errors."""


class DegenerateBearing(BearingForgeError):
    """Two points coincide (within the separation threshold); no bearing exists."""


class NonUnitInput(BearingForgeError):
    """A vector that must be unit-norm is not."""


class MissingBearing(BearingForgeError):
    """A graph edge has no desired bearing attached."""


class NotLocalizable(BearingForgeError):
    """The follower-follower Laplacian block is singular; the target formation
    is not uniquely determined by the bearings and leader anchors."""


class DuplicateFrequency(BearingForgeError):
    """Two sinusoid terms share a frequency (within tolerance)."""


class NonPositiveFrequency(BearingForgeError):
    """A sinusoid frequency is zero or negative."""


class SingularSylvesterOperator(BearingForgeError):
    """The Sylvester operator is singular (overlapping spectra)."""


class SingularT(BearingForgeError):
    """The Sylvester solution is (numerically) singular."""


class GainConditionViolated(BearingForgeError):
    """A controller gain fails the stability hypotheses."""


class DimensionMismatch(BearingForgeError):
    """Inconsistent array dimensions."""


class CollisionDetected(BearingForgeError):
    """Two agents came closer than the collision threshold."""

    def __init__(self, time, pair, distance):
        self.time = time
        self.pair = pair
        self.distance = distance
        super().__init__(
            f"agents {pair[0]} and {pair[1]} at distance {distance:.3e} "
            f"(below threshold) at t={time:.6f}"
        )


class NonFiniteState(BearingForgeError):
    """The integrated state left the finite range (divergence guard)."""


class CertificateFailed(BearingForgeError):
    """A positive-definiteness check of the Lyapunov certificate failed."""


class ParseError(BearingForgeError):
    """Scenario file is not valid JSON."""


class ValidationError(BearingForgeError):
    """Scenario content failed a named validation check."""
