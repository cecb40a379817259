"""One classical RK4 step of a closed loop whose only nonlinearity is a set
of bilinear products, as one fixed affine map of the state and the stage
products.

The closed loop is y' = A y + b + D (z_a * z_b), with n_p products of the
readout factors [z_a; z_b] = C y + c.  Each RK4 stage state is affine in y
and in the products of the earlier stages, so one step is exactly (up to
rounding)

    z_j = Z_j y + zeta_j + sum_{i<j} H_ji p_i,   p_j = z_ja * z_jb,
    y+ = R y + r + G [p_1; p_2; p_3; p_4],

and without products (n_p = 0) y+ = R y + r.  The stage matrices follow by
carrying each stage state's coefficients on [y; 1; p_1; ...; p_4].
"""

import numpy as np


def probe(f, n):
    """(f(0), F) for an affine map f of n inputs, so that f(x) = f(0) + F x;
    n + 1 calls of f."""
    f0 = f(np.zeros(n))
    F = np.empty((f0.size, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        F[:, j] = f(e) - f0
        e[j] = 0.0
    return f0, F


def multiply_adds(dim, n_p):
    """Multiply-adds of one step: every stage readout and R y
    ((8 n_p + dim) x dim), the stage corrections H_ji p_i (2 n_p x 6 n_p in
    all) and G [p_1; ...; p_4] (dim x 4 n_p)."""
    return dim * dim + 12 * n_p * (dim + n_p)


def operator_step(A, b, C, c, D, h):
    """The RK4 step of size h of y' = A y + b + D (z_a * z_b),
    [z_a; z_b] = C y + c, as a function of y.  The function keeps its work
    buffers, so one function steps one state at a time."""
    dim, n_p = A.shape[0], D.shape[1]
    one = dim                                        # column of the constant
    X1 = np.zeros((dim, dim + 1 + 4 * n_p))
    X1[:, :dim] = np.eye(dim)

    def slope(X, j):
        """Coefficients of k_j = f(Y_j) for stage state Y_j = X [y; 1; p]."""
        K = A @ X
        K[:, one] += b
        K[:, one + 1 + j * n_p : one + 1 + (j + 1) * n_p] += D
        return K

    Xs, Ks = [X1], [slope(X1, 0)]
    for j, frac in enumerate((0.5, 0.5, 1.0), 1):
        Xs.append(X1 + (frac * h) * Ks[-1])
        Ks.append(slope(Xs[-1], j))
    X_next = X1 + (h / 6.0) * (Ks[0] + 2.0 * Ks[1] + 2.0 * Ks[2] + Ks[3])
    Ws = [C @ X for X in Xs]                          # stage readouts
    for W in Ws:
        W[:, one] += c
    # one product gives every stage's readout of y and R y: [Z_1..Z_4; R]
    top = np.vstack([W[:, :dim] for W in Ws] + [X_next[:, :dim]])
    top0 = np.concatenate([W[:, one] for W in Ws] + [X_next[:, one]])
    if not n_p:
        return lambda y: top @ y + top0

    H = [
        np.ascontiguousarray(W[:, one + 1 : one + 1 + j * n_p])
        for j, W in enumerate(Ws)
    ]
    G = np.ascontiguousarray(X_next[:, one + 1 :])
    z, P = np.empty(top.shape[0]), np.empty(4 * n_p)
    stage = [z[2 * j * n_p : 2 * (j + 1) * n_p] for j in range(4)]
    za = [zj[:n_p] for zj in stage]
    zb = [zj[n_p:] for zj in stage]
    p = [P[j * n_p : (j + 1) * n_p] for j in range(4)]
    earlier = [P[: j * n_p] for j in range(4)]
    Ry = z[8 * n_p :]

    def step(y):
        np.matmul(top, y, out=z)
        np.add(z, top0, out=z)
        np.multiply(za[0], zb[0], out=p[0])
        for j in (1, 2, 3):
            stage[j] += H[j] @ earlier[j]
            np.multiply(za[j], zb[j], out=p[j])
        return Ry + G @ P

    return step
