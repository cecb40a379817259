"""Trigonometric-polynomial disturbances and their companion-form exosystems.

A disturbance on R^d is d(t) = C0 + sum_j [A_j^k sin(w_j t + phi_j^k)]_k
with r distinct positive frequencies shared across axes.  Every such signal
is annihilated by the odd polynomial chi(s) = s * prod_j (s^2 + w_j^2), so it
can be generated by a companion-form exosystem of dimension (2r+1)d whose
first block is the signal itself and whose k-th block is the k-th derivative.
The scenario parser checks the frequencies and the shapes; this module
builds from what it has checked.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteExosystem


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


def build_canonical(C0, w, A, ph):
    """Companion exosystems of the disturbances of one order r, built in one
    pass from their stacked constants C0 (g, d), frequencies w (g, r),
    amplitudes A and phases ph (g, r, d): the stacks Phi (g, m, m) of
    companion matrices and theta0 (g, m, d) of the derivatives d(0), d'(0),
    ..., d^(m-1)(0), m = 2r+1.  The output matrix Psi = e_1 selects the
    signal block.  faults maps the position of each disturbance whose Phi
    or theta0 overflows the float range to the NonFiniteExosystem that a
    build of that disturbance alone gives.
    """
    m = 2 * w.shape[1] + 1
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        Phi = companion(_min_polys(w))
        theta0 = _derivatives(C0, w, A, ph, m)
    finite = np.isfinite(Phi).all(axis=(1, 2)) & np.isfinite(theta0).all(axis=(1, 2))
    return Phi, theta0, {
        k: NonFiniteExosystem(
            f"the companion matrix or the derivatives up to order {m - 1} at "
            f"t = 0 overflow (frequencies {w[k].tolist()})"
        )
        for k in np.flatnonzero(~finite).tolist()
    }
