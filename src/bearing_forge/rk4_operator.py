"""One classical RK4 step of a closed loop whose only nonlinearity is a set
of bilinear products, as one fixed affine map of the state and the stage
products, and the chunk advance that `sim_engine.integrate` runs.

The closed loop is y' = A y + b + D (z_a * z_b), with n_p products of the
readout factors [z_a; z_b] = C y + c.  Each RK4 stage state is affine in y
and in the products of the earlier stages, so one step is exactly (up to
rounding)

    z_j = Z_j y + zeta_j + sum_{i<j} H_ji p_i,   p_j = z_ja * z_jb,
    y+ = R y + r + G [p_1; p_2; p_3; p_4],

and without products (n_p = 0) y+ = R y + r.  The stage matrices follow by
carrying each stage state's coefficients on [y; 1; p_1; ...; p_4].

A stepper is a chunk advance: advance(y, out) fills the rows of out with
the states that follow y, one step apart, and returns the last of them.
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


def looped(step):
    """The chunk advance of a one-state step function."""

    def advance(y, out):
        for c in range(len(out)):
            y = step(y)
            out[c] = y
        return y

    return advance


def rk4_map(A, b, C, c, D, h):
    """The RK4 step of size h of y' = A y + b + D (z_a * z_b),
    [z_a; z_b] = C y + c, as (top, top0, H, G): top y + top0 stacks every
    stage's readout Z_j y + zeta_j and then R y + r, H[j] holds the H_ji of
    the earlier stages side by side, and G is the update's product
    coefficient.  Without products, (top, top0) = (R, r)."""
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
    H = [
        np.ascontiguousarray(W[:, one + 1 : one + 1 + j * n_p])
        for j, W in enumerate(Ws)
    ]
    G = np.ascontiguousarray(X_next[:, one + 1 :])
    return top, top0, H, G


def doubling(R, r):
    """The chunk advance of y+ = R y + r by doubling.  With the augmented
    R~ = [[R, r], [0, 1]] acting on [y; 1], the first state is R~ [y; 1] and
    the states k to 2k - 1 are the first k times R~^k, so a chunk of 2^j
    states takes one matrix-vector and j matrix products.  The rows are
    states, so the products take the transposed powers; R~^2, R~^4, ... are
    squared when a chunk first needs them, and kept."""
    dim = len(r)
    RT = np.zeros((dim + 1, dim + 1))
    RT[:dim, :dim] = R.T
    RT[dim, :dim] = r
    RT[dim, dim] = 1.0
    powers = [RT]                                    # (R~^(2^j))^T
    y1 = np.ones(dim + 1)

    def advance(y, out):
        rows = len(out)
        Y = np.empty((rows, dim + 1))
        y1[:dim] = y
        np.dot(y1, RT, out=Y[0])
        k, j = 1, 0
        while k < rows:
            if j == len(powers):
                powers.append(powers[-1] @ powers[-1])
            m = min(k, rows - k)
            np.dot(Y[:m], powers[j], out=Y[k : k + m])
            k, j = 2 * k, j + 1
        out[:] = Y[:, :dim]
        return out[-1].copy()

    return advance


def operator_step(A, b, C, c, D, h):
    """The chunk advance of the RK4 step of size h of
    y' = A y + b + D (z_a * z_b), [z_a; z_b] = C y + c: by doubling without
    products, and one step at a time otherwise.  The advance keeps its work
    buffers, so it serves one run at a time."""
    top, top0, H, G = rk4_map(A, b, C, c, D, h)
    n_p = D.shape[1]
    if not n_p:
        return doubling(top, top0)

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

    return looped(step)
