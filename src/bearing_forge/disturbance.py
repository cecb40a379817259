"""Trigonometric-polynomial disturbances and their companion-form exosystems.

A disturbance on R^d is d(t) = C0 + sum_j [A_j^k sin(w_j t + phi_j^k)]_k
with r distinct positive frequencies shared across axes.  Every such signal
is annihilated by the odd polynomial chi(s) = s * prod_j (s^2 + w_j^2), so it
can be generated by a companion-form exosystem of dimension (2r+1)d whose
first block is the signal itself and whose k-th block is the k-th derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DuplicateFrequency, NonFiniteExosystem, NonPositiveFrequency

FREQ_GAP = 1e-9


@dataclass(frozen=True)
class DisturbanceSpec:
    """Closed-form disturbance: constant offset C0 (d,) plus r sinusoid
    terms, term j at frequencies[j] with per-axis amplitudes[j] and
    phases[j], both (r, d)."""

    d: int
    C0: np.ndarray
    frequencies: np.ndarray = ()
    amplitudes: np.ndarray = ()
    phases: np.ndarray = ()

    def __post_init__(self):
        r, d = np.size(self.frequencies), self.d
        for name, shape in (
            ("C0", (d,)), ("frequencies", (r,)), ("amplitudes", (r, d)), ("phases", (r, d)),
        ):
            a = np.asarray(getattr(self, name), dtype=float)
            if a.shape == (0,) and shape[0] == 0:  # () stands for (0, d)
                a = a.reshape(shape)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            object.__setattr__(self, name, a)
        _check_frequencies(self.frequencies)

    @property
    def r(self):
        return len(self.frequencies)


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
    """Monic coefficients [1, a_1, ..., a_{2r+1}], highest power first (the
    convention of np.poly), of s * prod_j (s^2 + w_j^2)."""
    _check_frequencies(frequencies)
    poly = np.array([1.0, 0.0])  # s
    for w in frequencies:
        poly = np.convolve(poly, [1.0, 0.0, w * w])  # np.polymul without its poly1d
    return poly


def companion(poly):
    """Companion matrix of the monic polynomial poly = [1, c_1, ..., c_m]:
    ones on the superdiagonal, last row -c_m, ..., -c_1."""
    C = np.eye(len(poly) - 1, k=1)
    C[-1, :] = -poly[:0:-1]
    return C


def _derivatives(spec, t, m):
    """d(t), d'(t), ..., d^(m-1)(t), shape (m, d).  The k-th derivative of
    A sin(w t + phi) is A w^k sin(w t + phi + k pi/2); row k sums its
    constant (C0 for k = 0, 0 after) and then the terms, in that order.
    w^k is one np.power per order k: a scalar exponent of 2 is squared, as
    an array of exponents is not, and the rounding may differ."""
    k = np.arange(m)[:, None, None]
    w = spec.frequencies[:, None]
    w_k = np.array([np.power(w, j) for j in range(m)])
    terms = spec.amplitudes * w_k * np.sin(w * t + spec.phases + k * np.pi / 2.0)
    const = np.zeros((m, 1, spec.d))
    const[0, 0] = spec.C0
    return np.add.accumulate(np.concatenate([const, terms], axis=1), axis=1)[:, -1]


def disturbance_eval(spec, t):
    """Closed-form disturbance value at time t, shape (d,)."""
    return _derivatives(spec, t, 1)[0]


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
        Phi = companion(min_poly_coeffs(spec.frequencies))
        theta0 = _derivatives(spec, 0.0, m).ravel()
    if not (np.isfinite(Phi).all() and np.isfinite(theta0).all()):
        raise NonFiniteExosystem(
            f"the companion matrix or the derivatives up to order {m - 1} at "
            f"t = 0 overflow (frequencies {spec.frequencies.tolist()})"
        )
    return CanonicalExosystem(r=r, Phi=Phi, Psi=np.eye(m)[0], theta0=theta0)
