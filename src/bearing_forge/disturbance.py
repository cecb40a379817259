"""Trigonometric-polynomial disturbances and their companion-form exosystems.

A disturbance on R^d is d(t) = C0 + sum_j [A_j^k sin(w_j t + phi_j^k)]_k
with r distinct positive frequencies shared across axes.  Every such signal
is annihilated by the odd polynomial chi(s) = s * prod_j (s^2 + w_j^2), so it
can be generated by a companion-form exosystem of dimension (2r+1)d whose
first block is the signal itself and whose k-th block is the k-th derivative.
"""

from __future__ import annotations

import numpy as np

from .errors import DuplicateFrequency, NonFiniteExosystem, NonPositiveFrequency

FREQ_GAP = 1e-9


class DisturbanceSpec:
    """Closed-form disturbance: constant offset C0 (d,) plus r sinusoid
    terms, term j at frequencies[j] with per-axis amplitudes[j] and
    phases[j], both (r, d)."""

    def __init__(self, d, C0, frequencies=(), amplitudes=(), phases=()):
        r, self.d = np.size(frequencies), d
        for name, value, shape in (
            ("C0", C0, (d,)), ("frequencies", frequencies, (r,)),
            ("amplitudes", amplitudes, (r, d)), ("phases", phases, (r, d)),
        ):
            a = np.asarray(value, dtype=float)
            if a.shape == (0,) and shape[0] == 0:  # () stands for (0, d)
                a = a.reshape(shape)
            if a.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {a.shape}")
            setattr(self, name, a)
        for w in self.frequencies:
            if w <= 0:
                raise NonPositiveFrequency(f"frequency {w} must be positive")
        freqs = sorted(self.frequencies)
        for a, b in zip(freqs, freqs[1:]):
            if b - a <= FREQ_GAP:
                raise DuplicateFrequency(
                    f"frequencies {a} and {b} closer than {FREQ_GAP:g}"
                )

    @property
    def r(self):
        return len(self.frequencies)


def _min_polys(w):
    """Monic coefficients [1, a_1, ..., a_{2r+1}], highest power first (the
    convention of np.poly), of s * prod_j (s^2 + w_j^2) for each row of a
    (g, r) stack of checked frequencies, shape (g, 2r + 2).  Multiplying by
    s^2 + w^2 adds w^2 times the coefficients two places up, as np.convolve
    with [1, 0, w^2] does, to the bit."""
    g, r = w.shape
    poly = np.zeros((g, 2 * r + 2))
    poly[:, 0] = 1.0  # s
    for j in range(r):
        w2 = (w[:, j] * w[:, j])[:, None]
        poly[:, 2 : 2 * j + 4] = poly[:, 2 : 2 * j + 4] + w2 * poly[:, : 2 * j + 2]
    return poly


def companion(poly):
    """Companion matrices of the monic polynomials of a (..., m + 1) stack
    poly = [1, c_1, ..., c_m]: ones on the superdiagonal, last row -c_m,
    ..., -c_1."""
    m = poly.shape[-1] - 1
    C = np.zeros(poly.shape[:-1] + (m, m))
    C[..., np.arange(m - 1), np.arange(1, m)] = 1.0
    C[..., -1, :] = -poly[..., :0:-1]
    return C


def _derivatives(C0, w, A, ph, m):
    """d(0), d'(0), ..., d^(m-1)(0) of each disturbance of a stack with
    constants C0 (..., d), frequencies w (..., r), amplitudes A and phases
    ph (..., r, d); shape (..., m, d).  The k-th derivative of
    A sin(w t + phi) at t = 0 is A w^k sin(phi + k pi/2); row k sums its
    constant (C0 for k = 0, 0 after) and then the terms, in that order.
    w^k is one np.power per order k: a scalar exponent of 2 is squared, as
    an array of exponents is not, and the rounding may differ."""
    k = np.arange(m)[:, None, None]
    w = w[..., None, :, None]
    w_k = np.concatenate([np.power(w, j) for j in range(m)], axis=-3)
    A, ph = A[..., None, :, :], ph[..., None, :, :]
    terms = A * w_k * np.sin(ph + k * np.pi / 2.0)
    const = np.zeros(terms.shape[:-2] + (1, C0.shape[-1]))
    const[..., 0, 0, :] = C0
    terms = np.concatenate([const, terms], axis=-2)
    return np.add.accumulate(terms, axis=-2)[..., -1, :]


def build_canonical(specs):
    """Companion exosystems of disturbance specs of one order r, built in
    one pass: the stacks Phi (g, m, m) of companion matrices and theta0
    (g, m, d) of the derivatives d(0), d'(0), ..., d^(m-1)(0), m = 2r+1.
    The output matrix Psi = e_1 selects the signal block.  faults maps the
    position of each spec whose Phi or theta0 overflows the float range to
    the NonFiniteExosystem that a build of that spec alone gives.
    """
    m = 2 * specs[0].r + 1
    w = np.array([s.frequencies for s in specs])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        Phi = companion(_min_polys(w))
        theta0 = _derivatives(
            np.array([s.C0 for s in specs]), w,
            np.array([s.amplitudes for s in specs]), np.array([s.phases for s in specs]), m,
        )
    finite = np.isfinite(Phi).all(axis=(1, 2)) & np.isfinite(theta0).all(axis=(1, 2))
    return Phi, theta0, {
        k: NonFiniteExosystem(
            f"the companion matrix or the derivatives up to order {m - 1} at "
            f"t = 0 overflow (frequencies {specs[k].frequencies.tolist()})"
        )
        for k in np.flatnonzero(~finite).tolist()
    }
