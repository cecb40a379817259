"""Trigonometric-polynomial disturbances and their companion-form exosystems.

A disturbance on R^d is d(t) = C0 + sum_j [A_j^k sin(w_j t + phi_j^k)]_k
with r distinct positive frequencies shared across axes.  Every such signal
is annihilated by the odd polynomial chi(s) = s * prod_j (s^2 + w_j^2), so it
can be generated by a companion-form exosystem of dimension (2r+1)d whose
first block is the signal itself and whose k-th block is the k-th derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DuplicateFrequency, NonFiniteExosystem, NonPositiveFrequency

FREQ_GAP = 1e-9


@dataclass(frozen=True)
class SinusoidTerm:
    """One shared-frequency term: per-axis amplitudes and phases."""

    frequency: float
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", np.asarray(self.amplitudes, dtype=float))
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        if self.amplitudes.shape != self.phases.shape:
            raise ValueError("amplitudes and phases must have the same length")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Closed-form disturbance: constant offset plus r sinusoid terms."""

    d: int
    C0: np.ndarray
    terms: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "C0", np.asarray(self.C0, dtype=float))
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.C0.shape != (self.d,):
            raise ValueError(f"C0 must have shape ({self.d},)")
        for term in self.terms:
            if term.amplitudes.shape != (self.d,):
                raise ValueError("per-axis amplitude count must equal d")
        _check_frequencies([t.frequency for t in self.terms])

    @property
    def r(self):
        return len(self.terms)

    @property
    def frequencies(self):
        return np.array([t.frequency for t in self.terms])


def _check_frequencies(freqs):
    for w in freqs:
        if w <= 0:
            raise NonPositiveFrequency(f"frequency {w} must be positive")
    freqs = sorted(freqs)
    for a, b in zip(freqs, freqs[1:]):
        if b - a <= FREQ_GAP:
            raise DuplicateFrequency(
                f"frequencies {a} and {b} closer than {FREQ_GAP:g}"
            )


def min_poly_coeffs(frequencies):
    """Coefficients (a_1, ..., a_{2r+1}) of s^{2r+1} + a_1 s^{2r} + ... + a_{2r+1}
    = s * prod_j (s^2 + w_j^2)."""
    _check_frequencies(list(frequencies))
    poly = np.array([1.0, 0.0])  # s
    for w in frequencies:
        poly = np.polymul(poly, np.array([1.0, 0.0, w * w]))
    return poly[1:]


def disturbance_eval(spec, t):
    """Closed-form disturbance value at time t, shape (d,)."""
    out = spec.C0.copy()
    for term in spec.terms:
        out += term.amplitudes * np.sin(term.frequency * t + term.phases)
    return out


def disturbance_derivative(spec, t, order):
    """order-th time derivative of the disturbance at time t, shape (d,)."""
    if order == 0:
        return disturbance_eval(spec, t)
    out = np.zeros(spec.d)
    shift = order * np.pi / 2.0
    for term in spec.terms:
        w = term.frequency
        out += term.amplitudes * np.power(w, order) * np.sin(w * t + term.phases + shift)
    return out


@dataclass(frozen=True)
class CanonicalExosystem:
    """Companion-form realization of a disturbance spec.

    Phi is (2r+1)x(2r+1) companion (superdiagonal identity, last row the
    negated minimal-polynomial coefficients); Psi = [1, 0, ..., 0] selects
    the signal block; theta0 stacks the derivatives d(0), d'(0), ..., d^(2r)(0).
    """

    r: int
    Phi: np.ndarray
    Psi: np.ndarray
    theta0: np.ndarray


def build_canonical(spec):
    """Companion exosystem for a disturbance spec (state dimension (2r+1)d).

    Raises NonFiniteExosystem when Phi or theta0 overflows the float range.
    """
    r = spec.r
    m = 2 * r + 1
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        coeffs = min_poly_coeffs(spec.frequencies)
        theta0 = np.concatenate(
            [disturbance_derivative(spec, 0.0, k) for k in range(m)]
        )
    Phi = np.eye(m, k=1)
    Phi[-1, :] = -coeffs[::-1]
    if not (np.isfinite(Phi).all() and np.isfinite(theta0).all()):
        raise NonFiniteExosystem(
            f"the companion matrix or the derivatives up to order {m - 1} at "
            f"t = 0 overflow (frequencies {spec.frequencies.tolist()})"
        )
    return CanonicalExosystem(r=r, Phi=Phi, Psi=np.eye(m)[0], theta0=theta0)
