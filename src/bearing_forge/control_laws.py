"""Controller gains and the load-time check of their stability hypotheses."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GainConditionViolated


@dataclass(frozen=True)
class ControllerGains:
    """Scalar feedback gains plus per-follower adaptation-gain matrices.

    adaptation_gains maps follower id -> positive-definite Lambda (m x m);
    it is empty outside adaptive mode.
    """

    kappa_p: float
    kappa_v: float
    adaptation_gains: dict = field(default_factory=dict)


def validate_gains(gains, B_ff, mode):
    """Check the stability hypotheses for the requested mode.

    Known/feedback-only mode needs kappa_p, kappa_v > 0.  Adaptive mode
    additionally needs kappa_v * lambda_min(B_ff) > 1 and positive-definite
    adaptation gains.
    """
    if gains.kappa_p <= 0:
        raise GainConditionViolated(f"kappa_p = {gains.kappa_p} must be > 0")
    if gains.kappa_v <= 0:
        raise GainConditionViolated(f"kappa_v = {gains.kappa_v} must be > 0")
    if mode != "adaptive":
        return
    lam_min = float(np.linalg.eigvalsh(B_ff)[0])
    if gains.kappa_v * lam_min <= 1.0:
        raise GainConditionViolated(
            "adaptive gain condition: kappa_v*lambda_min(B_ff) = "
            f"{gains.kappa_v * lam_min:.6g} <= 1"
        )
    for fid, Lam in gains.adaptation_gains.items():
        Lam = np.atleast_2d(Lam)
        if not np.allclose(Lam, Lam.T, atol=1e-12):
            raise GainConditionViolated(f"Lambda for follower {fid} not symmetric")
        if np.linalg.eigvalsh(Lam)[0] <= 0:
            raise GainConditionViolated(
                f"Lambda for follower {fid} not positive definite"
            )
