"""Controller gains and the load-time check of their stability hypotheses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GainConditionViolated


@dataclass(frozen=True)
class ControllerGains:
    """Scalar feedback gains kappa_p, kappa_v.  The per-follower
    adaptation-gain matrices are CompiledScenario.lambdas."""

    kappa_p: float
    kappa_v: float


def validate_gains(gains, lam_min, mode, lambdas=()):
    """Check the stability hypotheses for the requested mode.

    Known/feedback-only mode needs kappa_p, kappa_v > 0.  Adaptive mode
    also needs kappa_v * lam_min - 1 >= 1e-8 (lam_min = lambda_min(B_ff)),
    a margin that leaves the certificate's lambda_min(Q) digits.  Each
    Lambda of the (follower, Lambda) pairs in lambdas must be symmetric
    positive definite, in every mode.  Each comparison fails on NaN.
    """
    if not gains.kappa_p > 0:
        raise GainConditionViolated(f"kappa_p = {gains.kappa_p} must be > 0")
    if not gains.kappa_v > 0:
        raise GainConditionViolated(f"kappa_v = {gains.kappa_v} must be > 0")
    if mode == "adaptive":
        margin = gains.kappa_v * lam_min - 1.0
        if not margin >= 1e-8:
            raise GainConditionViolated(
                "adaptive gain condition: kappa_v*lambda_min(B_ff) - 1 = "
                f"{margin:.6g} is below the margin 1e-8"
            )
    for i, Lam in lambdas:
        if not np.allclose(Lam, Lam.T, atol=1e-12):
            raise GainConditionViolated(f"Lambda for follower {i} not symmetric")
        if not np.linalg.eigvalsh(Lam)[0] > 0:
            raise GainConditionViolated(
                f"Lambda for follower {i} not positive definite"
            )
