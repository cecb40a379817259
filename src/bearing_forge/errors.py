"""Exception hierarchy shared across the package."""


class BearingForgeError(Exception):
    """Base class for all library errors."""


class DegenerateBearing(BearingForgeError):
    """Two points coincide (within the separation threshold) or their distance
    overflows; no bearing exists."""


class NonUnitInput(BearingForgeError):
    """A vector that must be unit-norm is not."""


class MissingBearing(BearingForgeError):
    """A graph edge has no desired bearing attached."""

    def __init__(self, edge):
        self.edge = edge
        super().__init__(f"no desired bearing for edge {edge}")


class NotLocalizable(BearingForgeError):
    """The follower-follower Laplacian block is singular; the target formation
    is not uniquely determined by the bearings and leader anchors."""


class DuplicateFrequency(BearingForgeError):
    """Two sinusoid terms share a frequency (within tolerance)."""


class NonPositiveFrequency(BearingForgeError):
    """A sinusoid frequency is zero or negative."""


class NonFiniteExosystem(BearingForgeError):
    """The companion realization of a disturbance overflows the float range."""


class SingularT(BearingForgeError):
    """The Sylvester solution is not finite or misses its equation."""


class GainConditionViolated(BearingForgeError):
    """A controller gain fails the stability hypotheses."""


class CollisionDetected(BearingForgeError):
    """Two agents came closer than the collision threshold: at the step at
    `time`, or, when `until` is set, between the steps at `time` and
    `until` while both steps kept clear."""

    def __init__(self, time, pair, distance, until=None):
        self.time = time
        self.pair = pair
        self.distance = distance
        self.until = until
        when = (
            f"at t={time:.6f}"
            if until is None
            else f"between t={time:.6f} and t={until:.6f}"
        )
        super().__init__(
            f"agents {pair[0]} and {pair[1]} at distance {distance:.3e} "
            f"(below threshold) {when}"
        )


class NonFiniteState(BearingForgeError):
    """The integrated state left the finite range (divergence guard)."""


class CertificateFailed(BearingForgeError):
    """A positive-definiteness check of the Lyapunov certificate failed."""


class ParseError(BearingForgeError):
    """Scenario file is not valid JSON."""


class ValidationError(BearingForgeError):
    """Scenario content failed a named validation check."""
