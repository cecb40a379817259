"""Controller gains and the load-time check of their stability hypotheses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GainConditionViolated


@dataclass(frozen=True)
class ControllerGains:
    """Scalar feedback gains kappa_p, kappa_v.  The per-follower
    adaptation-gain matrices are CompiledScenario.lambdas."""

    kappa_p: float
    kappa_v: float


def validate_gains(gains, mu, mode, lambdas=()):
    """Check the stability hypotheses for the requested mode; mu is the
    ascending spectrum of B_ff.

    Every mode needs kappa_p, kappa_v > 0, each with a finite product with
    lambda_max(B_ff), so that the closed-loop spectrum is finite.  Adaptive
    mode also needs kappa_v * lambda_min(B_ff) - 1 >= 1e-8, a margin that
    leaves the certificate's lambda_min(Q) digits.  Each Lambda of the
    (follower, Lambda) pairs in lambdas must be symmetric positive definite,
    in every mode.  Each comparison fails on NaN.
    """
    lam_min, lam_max = float(mu[0]), float(mu[-1])
    for name, k in (("kappa_p", gains.kappa_p), ("kappa_v", gains.kappa_v)):
        if not k > 0:
            raise GainConditionViolated(f"{name} = {k} must be > 0")
        if not math.isfinite(k * lam_max):
            raise GainConditionViolated(
                f"{name}*lambda_max(B_ff) = {k:g}*{lam_max:.6g} overflows"
            )
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
