"""One classical RK4 step of a closed loop whose only nonlinearity is a set
of bilinear products, as one fixed affine map of the state and the stage
products, and the chunk advance that `sim_engine.integrate` runs.

The closed loop is y' = A y + b + D (z_a * z_b), with n_p products of the
readout factors [z_a; z_b] = C y + c.  Each RK4 stage state is affine in y
and in the products of the earlier stages, so on the row
u = [y; 1; p_1; ...; p_4] one step is exactly (up to rounding)

    z_j = W_j [y; 1; p_1; ...; p_(j-1)],   p_j = z_ja * z_jb,
    y+ = X u,

with W_j = [Z_j, zeta_j, H_j1 ... H_j,j-1] and X = [R, r, G]; without
products (n_p = 0) y+ = [R, r] [y; 1].  The matrices follow by carrying
each stage state's coefficients on u.

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
    """Multiply-adds of one step, less the constant columns: the readouts
    W_j (2 n_p x (dim + j n_p), j = 0..3) and X (dim x (dim + 4 n_p))."""
    return dim * dim + 12 * n_p * (dim + n_p)


def rk4_map(A, b, C, c, D, h):
    """The RK4 step of size h of y' = A y + b + D (z_a * z_b),
    [z_a; z_b] = C y + c, as (Ws, X): stage j reads z_j = Ws[j] u[:k_j],
    k_j = dim + 1 + j n_p, and the step is y+ = X u, on
    u = [y; 1; p_1; ...; p_4].  Without products, X = [R, r]."""
    dim, n_p = A.shape[0], D.shape[1]
    one = dim                                        # column of the constant
    X1 = np.zeros((dim, dim + 1 + 4 * n_p))
    X1[:, :dim] = np.eye(dim)

    def slope(X, j):
        """Coefficients of k_j = f(Y_j) for stage state Y_j = X u."""
        K = A @ X
        K[:, one] += b
        K[:, one + 1 + j * n_p : one + 1 + (j + 1) * n_p] += D
        return K

    Xs, Ks = [X1], [slope(X1, 0)]
    for j, frac in enumerate((0.5, 0.5, 1.0), 1):
        Xs.append(X1 + (frac * h) * Ks[-1])
        Ks.append(slope(Xs[-1], j))
    X = X1 + (h / 6.0) * (Ks[0] + 2.0 * Ks[1] + 2.0 * Ks[2] + Ks[3])
    Ws = []
    for j, Y in enumerate(Xs):
        W = C @ Y[:, : one + 1 + j * n_p]
        W[:, one] += c
        Ws.append(W)
    return Ws, X


def doubling(X):
    """The chunk advance of y+ = X [y; 1] = R y + r by doubling.  With the
    augmented R~ = [[R, r], [0, 1]] acting on [y; 1], the first state is
    R~ [y; 1] and the states k to 2k - 1 are the first k times R~^k, so a
    chunk of 2^j states takes one matrix-vector and j matrix products.  The
    rows are states, so the products take the transposed powers; R~^2, R~^4,
    ... are squared when a chunk first needs them, and kept."""
    dim = X.shape[0]
    RT = np.zeros((dim + 1, dim + 1))
    RT[:, :dim] = X.T
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
    row u, so it serves one run at a time; X u is written straight into
    the next row of out, which must be C-contiguous."""
    Ws, X = rk4_map(A, b, C, c, D, h)
    dim, n_p = X.shape[0], D.shape[1]
    if not n_p:
        return doubling(X)

    u = np.ones(X.shape[1])
    z = np.empty(2 * n_p)
    za, zb = z[:n_p], z[n_p:]
    # (W_j, the prefix of u that W_j reads, the slot of p_j)
    stages = [(W, u[: W.shape[1]], u[W.shape[1] : W.shape[1] + n_p]) for W in Ws]
    dot, multiply = np.dot, np.multiply

    def advance(y, out):
        u[:dim] = y
        for row in out:
            for W, x, p in stages:
                dot(W, x, z)
                multiply(za, zb, p)
            dot(X, u, row)
            u[:dim] = row
        return out[-1].copy()

    return advance
