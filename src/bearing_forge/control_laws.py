"""Controller gains and the load-time check of their stability hypotheses."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GainConditionViolated


@dataclass(frozen=True)
class ControllerGains:
    """Scalar feedback gains kappa_p, kappa_v.  The per-follower
    adaptation-gain matrices are CompiledScenario.lambdas."""

    kappa_p: float
    kappa_v: float


def validate_gains(gains, lam_min, mode):
    """Check the stability hypotheses for the requested mode.

    Known/feedback-only mode needs kappa_p, kappa_v > 0.  Adaptive mode
    additionally needs kappa_v * lam_min > 1, where lam_min is the smallest
    eigenvalue of B_ff.  Each comparison is written so that NaN fails.
    """
    if not gains.kappa_p > 0:
        raise GainConditionViolated(f"kappa_p = {gains.kappa_p} must be > 0")
    if not gains.kappa_v > 0:
        raise GainConditionViolated(f"kappa_v = {gains.kappa_v} must be > 0")
    if mode != "adaptive":
        return
    if not gains.kappa_v * lam_min > 1.0:
        raise GainConditionViolated(
            "adaptive gain condition: kappa_v*lambda_min(B_ff) = "
            f"{gains.kappa_v * lam_min:.6g} <= 1"
        )
