"""Scenario files: validation and compilation into engine inputs.

A scenario is one JSON object with `graph`, `geometry`, `disturbances`,
`controller`, `integration`, and `outputs` sections.  Agent IDs are explicit
and 1-based; leaders must be exactly 1..n_l.  Every input check lives here
and runs at load time (schema, localizability, disturbance well-posedness,
gain conditions, in adaptive mode the Lyapunov certificate's positivity
checks): the library modules take what it has checked, and a run never
fails on a stability hypothesis mid-integration.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import reprlib
import sys
from functools import cached_property

import numpy as np

from .disturbance import build_canonical
from .errors import (
    BearingForgeError,
    CertificateFailed,
    DuplicateFrequency,
    GainConditionViolated,
    MissingBearing,
    NonPositiveFrequency,
    ParseError,
    ValidationError,
)
from .formation_graph import (
    BearingSet,
    SensingGraph,
    build_bearing_laplacian,
    localize_followers,
)
from .internal_model import FollowerGroup, poles, synthesize

MODES = ("known", "adaptive", "feedback_only")
ETA_POLICIES = ("velocity_feedforward", "xi_zero")
STEP_TOL = 1e-9                  # relative distance of t_final/step from a whole number
FREQ_GAP = 1e-9                  # least distance of two frequencies of a disturbance
# Largest array a run may allocate: of its recorded states, and of the dense
# nd x nd bearing Laplacian (the oracles' largest is (n_f d)^2), which also
# keeps agent ids far below the 2^32 that formation_graph._keys packs two of
# into one int64
MAX_SAMPLE_BYTES = 1 << 30
# Most steps (t_final / step) a run may take: 50 times the bundled 200 s
# adaptive run (2e5 steps).  On a 2-core Xeon the operator step of the
# bundled square takes about 13 us, so 1e7 steps take about 2 minutes, and
# the staged step of a 64-agent formation (about 0.17 ms) about half an hour.
# Beyond that a mistyped t_final or step would run for days or years.
MAX_STEPS = 10**7

# override key -> (section, field) of the scenario JSON it replaces
OVERRIDES = {
    "kappa_p": ("controller", "kappa_p"),
    "kappa_v": ("controller", "kappa_v"),
    "mode": ("controller", "mode"),
    "t_final": ("integration", "t_final"),
    "h": ("integration", "step"),
    "output_dir": ("outputs", "directory"),
}

_REQUIRED = object()
# a bad value is echoed in its message in at most this many characters
ECHO_WIDTH = 60
# nesting of JSON lists _array reads: far above the 1-D vectors it serves,
# and far below the interpreter's recursion limit
MAX_NESTING = 16
# |R(i y)|^2 = 1 - y^6/72 + y^8/576 for RK4's stability function R, so a
# neutral mode i omega stays bounded exactly for |h omega| < 2 sqrt 2
RK4_AXIS_LIMIT = 2.0 * math.sqrt(2.0)
# every z with |R(z)| < 1 has |z| < 2.96, so a mode lambda bounds the
# steps it allows by 3 / |lambda|
RK4_REACH = 3.0


class CompiledScenario:
    """Everything the engine needs, synthesized once at load time."""

    def __init__(
        self, graph, laplacian, p_star0, v_c, p0, v_f0, mode, kappa_p, kappa_v,
        groups, freeze_theta, h, t_final, record_every, collision_eps,
        output_dir, oracles, certificate,
    ):
        self.graph = graph
        self.laplacian = laplacian
        self.p_star0 = p_star0          # (n, d) target configuration at t=0
        self.v_c = v_c                  # (d,)
        self.p0 = p0                    # (n, d) initial positions
        self.v_f0 = v_f0                # (n_f, d) initial follower velocities
        self.mode = mode                # "known" | "adaptive" | "feedback_only"
        self.kappa_p = kappa_p          # position and velocity feedback gains
        self.kappa_v = kappa_v
        self.groups = groups            # one internal_model.FollowerGroup per order
        self.freeze_theta = freeze_theta
        self.h = h
        self.t_final = t_final
        self.record_every = record_every
        self.collision_eps = collision_eps
        self.output_dir = output_dir
        self.oracles = oracles
        self.certificate = certificate  # LyapunovCertificate in adaptive mode, else None

    @property
    def n(self):
        return self.graph.n

    @property
    def d(self):
        return self.graph.d

    @property
    def n_l(self):
        return self.graph.n_l

    @property
    def n_f(self):
        return self.graph.n_f

    @property
    def state_dim(self):
        """Length of the engine's state [p | v_f | eta | vartheta | theta_hat]
        (Engine): n d + n_f d + K (2 d + 1) in adaptive mode and
        n d + n_f d + 2 K d otherwise, K the sum of the followers' orders."""
        K = sum(len(g.idx) * g.order for g in self.groups)
        return (self.n + self.n_f) * self.d + K * (2 * self.d + (self.mode == "adaptive"))

    @property
    def n_steps(self):
        return round(self.t_final / self.h)

    @property
    def n_samples(self):
        """States integrate records: every record_every-th step, and the last."""
        return -(-self.n_steps // self.record_every) + 1

    def target_positions(self, t):
        """Target configuration at time t, shape (n, d), or (len(t), n, d)
        for an array of times.  The bearing Laplacian annihilates
        translations, so the target moves rigidly:
        p*(t) = p*(0) + t (1 kron v_c)."""
        return self.p_star0 + np.multiply.outer(t, self.v_c)[..., None, :]


@contextlib.contextmanager
def _named(where, errors=BearingForgeError):
    """Re-raise an error of the block as "where: ErrorType: message"."""
    try:
        yield
    except errors as exc:
        raise ValidationError(f"{where}: {type(exc).__name__}: {exc}") from exc


def _field(obj, where, key, read, *args, default=_REQUIRED):
    """read(obj[key], name, *args), or default when the key is absent.

    where names obj in messages ("" for the top level of the scenario).
    """
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f"{where or 'scenario'}: missing required field '{key}'")
        return default
    return read(obj[key], f"{where}.{key}" if where else key, *args)


def _echo(value):
    """value as its message shows it, in at most ECHO_WIDTH characters:
    an integer past 16 digits in scientific form (_count), containers cut
    to their first few entries and levels (reprlib), and the rest cut at
    the width."""
    if isinstance(value, int) and not isinstance(value, bool):
        text = _count(value)
    else:
        short = reprlib.Repr()
        short.maxlevel, short.maxlist, short.maxtuple, short.maxdict = 3, 4, 4, 4
        text = short.repr(value)
    return text if len(text) <= ECHO_WIDTH else text[: ECHO_WIDTH - 3] + "..."


def _typed(types, noun):
    """Reader of a JSON value of the given types; a bool is never a number."""

    def read(value, what):
        if not isinstance(value, types) or isinstance(value, bool) != (types is bool):
            raise ValidationError(f"{what}: expected {noun}, got {_echo(value)}")
        return value

    return read


_object = _typed(dict, "a JSON object")
_list = _typed((list, tuple), "a JSON list")
_int = _typed(int, "an integer")
_bool = _typed(bool, "true or false")
_str = _typed(str, "a string")


def _count(k):
    """An integer, or the string of its decimal digits, as text: in full up
    to 16 digits, beyond that in scientific form, which Decimal forms
    exactly for a k beyond float range and beyond the digits int() and
    str() convert."""
    if len(k) <= 16 if isinstance(k, str) else abs(k) < 10**16:
        return str(k)
    from decimal import Decimal   # only on the way to an error message

    return format(Decimal(k), ".3e")


def _fields(value, what, *keys):
    """A JSON object whose fields are all in keys, the ones the compile reads."""
    for key in _object(value, what):
        if key not in keys:
            raise ValidationError(f"{what or 'scenario'}: unknown field {_echo(key)}")
    return value


def _float(value, what):
    """A finite JSON number, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            if math.isfinite(value):
                return float(value)
    raise ValidationError(f"{what}: expected a finite number, got {_echo(value)}")


def _array(value, what):
    """A number or a nested JSON list of finite numbers, as a float array."""
    return np.array(_floats(value, what, 0)[0], dtype=float)


def _floats(value, what, depth):
    """value with each number read by _float, and its shape."""
    if not isinstance(value, (list, tuple)):
        return _float(value, what), ()
    if depth == MAX_NESTING:
        raise ValidationError(f"{what}: lists nested more than {MAX_NESTING} deep")
    parts = [_floats(x, what, depth + 1) for x in value]
    shapes = {shape for _, shape in parts}
    if len(shapes) > 1:
        raise ValidationError(f"{what}: rows of unequal length")
    return [x for x, _ in parts], (len(parts), *(shapes.pop() if shapes else ()))


def _vec(value, what, d):
    arr = _array(value, what)
    if arr.shape != (d,):
        raise ValidationError(f"{what}: expected {d} coordinates, got shape {arr.shape}")
    return arr


def _edge(value, what, n):
    e = tuple(_list(value, what))
    if not (
        len(e) == 2 and 1 <= _int(e[0], what) <= n and 1 <= _int(e[1], what) <= n
        and e[0] != e[1]
    ):
        raise ValidationError(f"{what}: malformed edge {_echo(e)}")
    return e


def _ids(value, what, allowed, read, *args):
    """A {agent id: value} JSON object keyed by the ids in allowed (the range
    of followers or of all agents), each value read by read."""
    out = {}
    for k, v in _object(value, what).items():
        # one spelling per agent: int() would also read "03", " 3" and "+3"
        # as agent 3, and the later entry would silently replace the earlier
        if not (k.isascii() and k.isdigit() and (k[0] != "0" or k == "0")):
            raise ValidationError(
                f"{what}: agent id {_echo(k)} is not a decimal integer without "
                "sign, spaces or leading zeros"
            )
        # a key of more digits than the last id names no agent and is not
        # read, as int() refuses a string of more than 4300 digits
        i = int(k) if len(k) <= len(str(allowed[-1])) else None
        if i is None or i not in allowed:  # a range of followers starts after leader 1
            agent = _count(k)
            bad = (
                f"agent {agent} is not a follower" if allowed[0] > 1
                else f"unknown agent {agent}"
            )
            raise ValidationError(f"{what}: {bad}")
        out[i] = read(v, f"{what}[{k}]", *args)
    return out


def _directory(value, what):
    """A directory name that os.makedirs takes: not empty, no NUL, no file on its path."""
    if not _str(value, what) or "\0" in value:
        raise ValidationError(f"{what}: expected a non-empty directory name "
                              f"without NUL characters, got {_echo(value)}")
    parts = value.split(os.sep)
    for k in range(1, len(parts) + 1):
        path = os.sep.join(parts[:k])
        if os.path.lexists(path) and not os.path.isdir(path):
            raise ValidationError(f"{what}: {_echo(path)} exists and is not a directory")
    return value


def _disturbance(entry, what, d):
    """A disturbance's constant C0 (d,), its distinct positive frequencies
    w (r,), and its amplitudes A and phases ph (r, d)."""
    _fields(entry, what, "constant", "sinusoids")
    constant = _field(entry, what, "constant", _vec, d, default=np.zeros(d))
    freqs, amps, phases = [], [], []
    for term in _field(entry, what, "sinusoids", _list, default=[]):
        _fields(term, f"{what}.sinusoids", "frequency", "amplitudes", "phases")
        freqs.append(_field(term, what, "frequency", _float))
        amps.append(_field(term, what, "amplitudes", _vec, d))
        phases.append(_field(term, what, "phases", _vec, d))
    with _named(what):
        for w in freqs:
            if w <= 0:
                raise NonPositiveFrequency(f"frequency {w} must be positive")
        ordered = sorted(freqs)
        for a, b in zip(ordered, ordered[1:]):
            if b - a <= FREQ_GAP:
                raise DuplicateFrequency(
                    f"frequencies {a} and {b} closer than {FREQ_GAP:g}"
                )
    r = len(freqs)
    return constant, np.array(freqs), np.reshape(amps, (r, d)), np.reshape(phases, (r, d))


@np.errstate(over="ignore", invalid="ignore")
def _rk4_damps(z):
    """|R(z)| < 1 for each z = h lambda, with R(z) = 1 + z + z^2/2 + z^3/6
    + z^4/24 the stability function of classical RK4.  With p = R - 1,
    formed without the 1, |R|^2 = 1 + 2 Re p + |p|^2, so the test is
    2 Re p + |p|^2 < 0: 1 + p would round to 1 at |z| near 1e-20 and put a
    stable mode on the boundary.  A p that underflows to 0 also passes: the
    gain gate leaves every lambda of closed_loop_spectrum strictly stable,
    so its z is then too small for RK4 to grow.  A z whose powers overflow
    fails."""
    p = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return (2.0 * p.real + (p.real * p.real + p.imag * p.imag) < 0.0) | (p == 0.0)


def _certainly_definite(A):
    """Whether each symmetric matrix of the stack A (..., m, m) is certainly
    positive definite: eigvalsh is backward stable, so its eigenvalues are
    A's within m eps lambda_max (Weyl), and a smaller lambda_min has no
    certain sign.  Fails on NaN."""
    lam = np.linalg.eigvalsh(A)
    return lam[..., 0] > A.shape[-1] * np.finfo(float).eps * lam[..., -1]


def validate_gains(kappa_p, kappa_v, mu, mode, lambdas=()):
    """Check the stability hypotheses of the gains for the requested mode;
    mu is the ascending spectrum of B_ff.

    Every mode needs kappa_p, kappa_v > 0, each with a finite product with
    lambda_max(B_ff), so that the closed-loop spectrum is finite.  Adaptive
    mode also needs kappa_v * lambda_min(B_ff) - 1 >= 1e-8, a margin that
    leaves the certificate's lambda_min(Q) digits.  Each Lambda of the
    (follower ids (g,), Lambda stack (g, m, m)) pairs in lambdas, one per
    order, must be symmetric positive definite, in every mode: symmetric to
    within 1e-12 max|Lambda|, and certainly definite (_certainly_definite);
    the lowest follower at fault is named.  Each comparison fails on NaN.
    """
    lam_min, lam_max = float(mu[0]), float(mu[-1])
    for name, k in (("kappa_p", kappa_p), ("kappa_v", kappa_v)):
        if not k > 0:
            raise GainConditionViolated(f"{name} = {k} must be > 0")
        if not math.isfinite(k * lam_max):
            raise GainConditionViolated(
                f"{name}*lambda_max(B_ff) = {k:g}*{lam_max:.6g} overflows"
            )
    if mode == "adaptive":
        margin = kappa_v * lam_min - 1.0
        if not margin >= 1e-8:
            raise GainConditionViolated(
                "adaptive gain condition: kappa_v*lambda_min(B_ff) - 1 = "
                f"{margin:.6g} is below the margin 1e-8"
            )
    bad = []
    for ids, Lam in lambdas:
        tol = 1e-12 * np.abs(Lam).max(axis=(1, 2), keepdims=True)
        sym = (np.abs(Lam - Lam.swapaxes(1, 2)) <= tol).all(axis=(1, 2))
        ok = sym & _certainly_definite(Lam)
        bad += [(int(i), s) for i, s, o in zip(ids, sym, ok) if not o]
    if bad:
        i, sym = min(bad)
        raise GainConditionViolated(
            f"Lambda for follower {i} not "
            + ("positive definite" if sym else "symmetric")
        )


def closed_loop_spectrum(sc):
    """Eigenvalues of the closed loop
    A_sigma = [[0, I, 0], [-kp B_ff, -kv B_ff, E_f], [0, 0, M_f]], in
    np.sort_complex order.

    A_sigma is block triangular, so its spectrum is that of M_f, which is
    internal_model.poles(m_i), d times each, for every follower i, together
    with the two roots of lambda^2 + kv mu lambda + kp mu = 0 for each
    eigenvalue mu of B_ff.  With b = kv mu and c = kp mu, the discriminant
    is taken as (b - 2 sqrt c)(b + 2 sqrt c), so that no square overflows.
    Of a real pair, the root of larger magnitude is taken from the quadratic
    formula and the other is c divided by it, so that neither loses digits
    to cancellation; a complex pair is -b/2 +- i sqrt(4c - b^2)/2.  Real
    roots have an imaginary part of +0.
    """
    mu = sc.laplacian.ff_eigenvalues
    b, c = sc.kappa_v * mu, sc.kappa_p * mu
    s = 2.0 * np.sqrt(c)
    real = b >= s
    root = np.sqrt(np.abs(b - s)) * np.sqrt(b + s)           # sqrt|b^2 - 4c|
    big = -0.5 * b - 0.5 * root                              # b + root may overflow
    lam = np.empty((2, len(mu)), dtype=complex)
    lam.real = np.where(real, [big, c / big], -0.5 * b)
    lam.imag = np.where(real, 0.0, [0.5 * root, -0.5 * root])
    M_f = [np.tile(np.repeat(poles(g.order), sc.d), len(g.idx)) for g in sc.groups]
    return np.sort_complex(np.concatenate([lam.ravel(), *M_f]))


class LyapunovCertificate:
    """Constants of V = x~' P x~ + gamma xi' G_c xi + th~' Lam^-1 th~ for
    the adaptive closed loop, made once at load by check_certificate.

    P = [[(kp + kv) B_ff^2, B_ff], [B_ff, B_ff]], never formed, solves
    A_c^T P + P A_c = -Q for the feedback block, with
    Q = blkdiag(2 kp B_ff^2, 2 (kv B_ff^2 - B_ff)), whose least eigenvalue
    is 2 mu_1 min(kp mu_1, kv mu_1 - 1) at the least eigenvalue mu_1 of B_ff
    once kv mu_1 > 1 (the gain gate); where it is positive, so is P.
    P B_c = [B_ff; B_ff], so the Schur threshold is gamma_sigma =
    2 lambda_max(B_ff W B_ff) / lambda_min(Q), W = diag(|E_i|^2 kron 1_d),
    and gamma = 1.01 gamma_sigma.  G_c = blkdiag(G_i kron I_d).
    """

    def __init__(self, lambda_min_Qc, G, Lam_inv, laplacian, e2):
        self.lambda_min_Qc = lambda_min_Qc  # smallest eigenvalue of Q
        self.G = G                      # order m -> G_i (m, m)
        self.Lam_inv = Lam_inv          # order m -> Lam_i^-1 (g, m, m) of its group
        self._laplacian = laplacian
        self._e2 = e2                   # (n_f,) |E_i|^2 of each follower

    @cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def gamma_sigma(self):
        """2 lambda_max(B_ff W B_ff) / lambda_min(Q), inf beyond float range:
        one n_f d eigvalsh, taken on first use."""
        B_ff, e2 = self._laplacian.B_ff, np.repeat(self._e2, self._laplacian.d)
        return float(2.0 * np.linalg.eigvalsh((B_ff * e2) @ B_ff)[-1] / self.lambda_min_Qc)

    @property
    def gamma(self):
        return 1.01 * self.gamma_sigma


def _inverse(Lam):
    """The inverse of each matrix of the stack Lam, nan where LU finds one
    singular (the gain gate's eigvalsh can pass a matrix that LU does not)."""
    try:
        return np.linalg.inv(Lam)
    except np.linalg.LinAlgError:
        if len(Lam) == 1:
            return Lam * np.nan
        return np.array([_inverse(L[None])[0] for L in Lam])


@np.errstate(over="ignore", invalid="ignore")  # a value beyond float range fails
def check_certificate(kp, kv, laplacian, groups):
    """The LyapunovCertificate for gains kp, kv and the follower groups,
    checked as compile_scenario runs it at load in adaptive mode: Q and each
    G_i positive definite, gamma finite, and the th~ term of V finite at
    t = 0, summed in follower order.  G_i solves G M_i + M_i^T G = -I once
    per order, as (I kron M_i^T + M_i^T kron I) vec(G_i) = -vec(I).  gamma is
    tested by its bound 1.01 * 2 mu_max^2 max_i |E_i|^2 / lambda_min(Q), and
    only where that overflows by gamma_sigma's eigvalsh.  Raises
    CertificateFailed, naming the first follower at which the th~ sum fails."""
    mu_1 = float(laplacian.ff_eigenvalues[0])
    lam_Q = 2.0 * mu_1 * min(kp * mu_1, kv * mu_1 - 1.0)
    if not lam_Q > 0:
        raise CertificateFailed(f"Q is not positive definite (lambda_min {lam_Q:.3e})")
    G, Lam_inv, e2, th_term = {}, {}, *np.empty((2, laplacian.n_f))
    for g in groups:
        m, M, eye = g.order, g.M, np.eye(g.order)
        op = np.kron(eye, M.T) + np.kron(M.T, eye)
        G_m = np.linalg.solve(op, -eye.ravel()).reshape(m, m)
        G[m] = G_m = 0.5 * (G_m + G_m.T)
        if not _certainly_definite(G_m):
            raise CertificateFailed(f"G_c is not positive definite at order {m}")
        # |E_i|^2 of each follower, as the 1-D dot E_i @ E_i rounds it
        e2[g.idx] = (g.E[:, None, :] @ g.E[:, :, None]).reshape(-1)
        Lam_inv[m] = _inverse(g.Lam)
        th = (g.E - g.theta_hat0)[:, None, :]
        th_term[g.idx] = (th @ Lam_inv[m] @ th.transpose(0, 2, 1)).reshape(-1)
    cert = LyapunovCertificate(lam_Q, G, Lam_inv, laplacian, e2)
    bound = float(2.0 * laplacian.ff_eigenvalues[-1] ** 2 * e2.max() / lam_Q)
    if not (math.isfinite(1.01 * bound) or math.isfinite(cert.gamma)):
        raise CertificateFailed(f"gamma is beyond float range (lambda_min(Q) {lam_Q:.3e})")
    th_sum = np.cumsum(th_term)
    if not math.isfinite(th_sum[-1]):  # a sum once inf or nan stays so
        k = int(np.argmin(np.isfinite(th_sum)))
        raise CertificateFailed(
            f"th~' Lam^-1 th~ is not finite at t = 0 ({th_sum[k]} summed up to "
            f"follower {laplacian.n_l + 1 + k})"
        )
    return cert


@np.errstate(over="ignore", divide="ignore")
def _check_step(sc, frequencies):
    """Reject a step h with which classical RK4 grows a mode of the closed
    loop: an eigenvalue lambda of closed_loop_spectrum with |R(h lambda)|
    >= 1, or a disturbance frequency omega, a neutral mode, with |h omega|
    >= 2 sqrt 2.  (The modes of theta-hat, linearised at theta-hat = E,
    are neutral and stay so.)  The message names the failing mode that
    allows the smallest step, and that step, found for lambda by bisection
    along its ray."""
    h, lam = sc.h, closed_loop_spectrum(sc)
    lam = lam[~_rk4_damps(h * lam)]
    omega = frequencies[~(h * frequencies < RK4_AXIS_LIMIT)]
    if not (len(lam) or len(omega)):
        return
    lo, hi = np.zeros(len(lam)), np.minimum(h, RK4_REACH / np.abs(lam))
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = _rk4_damps(mid * lam)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    modes = [f"the closed-loop eigenvalue lambda = {x:.4g}" for x in lam]
    modes += [f"the disturbance frequency omega = {w:.4g}" for w in omega]
    limits = np.concatenate([lo, RK4_AXIS_LIMIT / omega])
    k = int(limits.argmin())
    raise ValidationError(
        f"integration: step {h:g} is outside the stability region of RK4 at "
        f"{modes[k]}, which allows steps below {limits[k]:.4g}"
    )


def compile_scenario(data) -> CompiledScenario:
    """Check a decoded scenario JSON object and synthesize graph algebra,
    exosystems, and internal models; gate on the localizability and gain
    hypotheses.  Each field is read and checked once, where the compile
    needs it, and every default lives here."""
    if not isinstance(data, dict):
        raise ValidationError("scenario: top level must be a JSON object")
    _fields(
        data, "", "graph", "geometry", "disturbances", "controller",
        "integration", "outputs",
    )

    graph_in = _field(
        data, "", "graph", _fields, "n_agents", "dimension", "leaders", "edges"
    )
    n = _field(graph_in, "graph", "n_agents", _int)
    d = _field(graph_in, "graph", "dimension", _int)
    size = (n * d) ** 2 * 8
    if size > MAX_SAMPLE_BYTES:
        raise ValidationError(
            f"graph: the bearing Laplacian of {_count(n)} agents in dimension "
            f"{_count(d)} would take {_count(size >> 20)} MiB, over the limit of "
            f"{MAX_SAMPLE_BYTES >> 20} MiB"
        )
    leaders = sorted(
        _int(x, "graph.leaders") for x in _field(graph_in, "graph", "leaders", _list)
    )
    if leaders != list(range(1, len(leaders) + 1)):
        raise ValidationError(
            f"graph.leaders: leaders must be exactly 1..n_l, got {_echo(leaders)}"
        )
    n_l = len(leaders)
    if not 1 <= n_l < n:
        raise ValidationError(
            f"graph.leaders: need 1 <= n_l < n, got n_l={n_l}, n={_count(n)}"
        )
    edges = [_edge(e, "graph.edges", n) for e in _field(graph_in, "graph", "edges", _list)]
    if n < 3:
        raise ValidationError(f"graph: need at least 3 agents, got n={n}")
    if d < 2:
        raise ValidationError(f"graph: need dimension >= 2, got d={d}")
    graph = SensingGraph(n=n, d=d, n_l=n_l, edges=edges)

    geom = _field(
        data, "", "geometry", _fields, "leader_velocity", "desired_positions",
        "desired_bearings", "initial_positions", "initial_velocities",
    )
    v_c = _field(geom, "geometry", "leader_velocity", _vec, d)
    agents = range(1, n + 1)
    desired_positions = _field(
        geom, "geometry", "desired_positions", _ids, agents, _vec, d, default={}
    )
    desired_bearings = []
    entries = _field(geom, "geometry", "desired_bearings", _list, default=[])
    sensing = set(map(tuple, graph.edges.tolist())) if entries else ()
    for entry in entries:
        _fields(entry, "geometry.desired_bearings", "edge", "bearing")
        i, j = _field(entry, "geometry.desired_bearings", "edge", _edge, n)
        if (min(i, j), max(i, j)) not in sensing:
            raise ValidationError(
                f"geometry.desired_bearings: ({i},{j}) is not a sensing edge"
            )
        desired_bearings.append(((i, j), _field(
            entry, f"geometry.desired_bearings[{i},{j}]", "bearing", _vec, d
        )))
    for i in range(1, n_l + 1):
        if i not in desired_positions:
            raise ValidationError(
                f"geometry.desired_positions: leader {i} has no desired position"
            )
    # desired bearings: derived from a full desired configuration, given per
    # edge, or both (which must then agree)
    bearings = None
    if len(desired_positions) == n:
        positions = np.array([desired_positions[i] for i in agents])
        with _named("geometry.desired_positions"):
            bearings = BearingSet.from_positions(graph, positions)
    elif not desired_bearings:
        raise ValidationError(
            "geometry: desired_positions must cover all agents when "
            "desired_bearings are not given"
        )
    if desired_bearings:
        derived = bearings
        with _named("geometry.desired_bearings", (BearingForgeError, ValueError)):
            bearings = BearingSet(desired_bearings)
        try:
            given = bearings.along(graph)
        except MissingBearing as exc:
            raise ValidationError(
                "geometry.desired_bearings: edge ({},{}) has no bearing".format(*exc.edge)
            ) from None
        if derived is not None:
            off = np.linalg.norm(given - derived.along(graph), axis=1) > 1e-9
            if off.any():
                i, j = graph.edges[off.argmax()]
                raise ValidationError(
                    f"geometry: desired bearing for edge ({i},{j}) disagrees "
                    "with the one derived from desired_positions"
                )
    laplacian = build_bearing_laplacian(graph, bearings)

    p_l_star = np.array([desired_positions[i] for i in range(1, n_l + 1)])
    with _named("localization"):
        p_f_star = localize_followers(laplacian, p_l_star)
    p_star0 = np.vstack([p_l_star, p_f_star])

    # leaders start pinned at the target; followers default to it
    p0 = p_star0.copy()
    for k, v in _field(
        geom, "geometry", "initial_positions", _ids, agents, _vec, d, default={}
    ).items():
        if k > n_l:
            p0[k - 1] = v
        elif np.linalg.norm(v - desired_positions[k]) > 1e-9:
            raise ValidationError(
                f"geometry.initial_positions: leader {k} must start at its "
                "desired position (leaders track the target exactly)"
            )
    v_f0 = np.tile(v_c, (n - n_l, 1))
    followers = graph.followers
    for k, v in _field(
        geom, "geometry", "initial_velocities", _ids, followers, _vec, d, default={}
    ).items():
        v_f0[k - n_l - 1] = v

    disturbances = _field(
        data, "", "disturbances", _ids, followers, _disturbance, d, default={}
    )
    undisturbed = (np.zeros(d), np.zeros(0), np.zeros((0, d)), np.zeros((0, d)))
    dists = [disturbances.get(i, undisturbed) for i in followers]

    ctrl = _field(
        data, "", "controller", _fields, "mode", "kappa_p", "kappa_v",
        "adaptation_rate", "adaptation_gains", "theta_hat_init", "eta_init",
        "freeze_theta",
    )
    mode = _field(ctrl, "controller", "mode", _str)
    if mode not in MODES:
        raise ValidationError(f"controller.mode: unknown mode {_echo(mode)}")
    kappa_p = _field(ctrl, "controller", "kappa_p", _float)
    kappa_v = _field(ctrl, "controller", "kappa_v", _float)
    rate = _field(ctrl, "controller", "adaptation_rate", _float, default=1.0)
    given = _field(
        ctrl, "controller", "adaptation_gains", _ids, followers, _array, default={}
    )
    theta_init = _field(
        ctrl, "controller", "theta_hat_init", _ids, followers, _array, default={}
    )
    eta_init = ctrl.get("eta_init", "velocity_feedforward")
    if isinstance(eta_init, dict):
        eta_init = _ids(eta_init, "controller.eta_init", followers, _array)
    elif eta_init not in ETA_POLICIES:
        raise ValidationError(f"controller.eta_init: unknown policy {_echo(eta_init)}")

    # each follower's controller: exosystem, internal model, Lambda_i,
    # theta-hat_i(0) and eta_i(0), built for all followers of one order in
    # one pass as one FollowerGroup, and checked follower by follower, so
    # that the first at fault is named.  The adaptive-only fields are
    # checked in every mode, so that a wrong value is never ignored silently
    by_order, groups, failed = {}, [], {}
    for k, (_, w, _, _) in enumerate(dists):
        by_order.setdefault(len(w), []).append(k)
    for idx in by_order.values():
        stacks = (np.array(x) for x in zip(*(dists[k] for k in idx)))
        Phi, theta0, exo_faults = build_canonical(*stacks)
        M, N, T, E, model_faults = synthesize(Phi)
        # a follower at fault keeps its first stage's fault: the exosystem's
        failed.update({idx[j]: e for j, e in {**model_faults, **exo_faults}.items()})
        m = len(M)
        eta0 = N[:, None] * v_f0[idx][:, None]      # kron(N, v) of each follower
        if eta_init == "xi_zero":
            with np.errstate(all="ignore"):  # the rows of a follower at fault
                eta0 = eta0 - T @ theta0
        Lam = np.empty((len(idx), m, m))
        Lam[:] = rate * np.eye(m)
        groups.append(FollowerGroup(
            np.array(idx), M, N, Phi, T, E, theta0, eta0, np.zeros((len(idx), m)), Lam
        ))
    # the given values, checked follower by follower and written into the
    # rows of their groups
    rows = {k: (g, j) for g in groups for j, k in enumerate(g.idx.tolist())}
    for k, i in enumerate(followers):
        if k in failed:
            with _named(f"disturbances[{i}]"):
                raise failed[k]
        g, j = rows[k]
        m = g.order
        if i in given:
            Lam = np.atleast_2d(given[i])
            if Lam.shape != (m, m):
                raise ValidationError(
                    f"controller.adaptation_gains[{i}]: expected "
                    f"{m}x{m} matrix, got {Lam.shape}"
                )
            g.Lam[j] = Lam
        if i in theta_init:
            if theta_init[i].shape != (m,):
                raise ValidationError(
                    f"controller.theta_hat_init[{i}]: expected {m} entries"
                )
            g.theta_hat0[j] = theta_init[i]
        if isinstance(eta_init, dict) and i in eta_init:
            if eta_init[i].shape != (m * d,):
                raise ValidationError(
                    f"controller.eta_init[{i}]: expected {m * d} entries"
                )
            g.eta0[j] = eta_init[i].reshape(m, d)

    mu = laplacian.ff_eigenvalues
    with _named("gains"):
        validate_gains(
            kappa_p, kappa_v, mu, mode, [(n_l + 1 + g.idx, g.Lam) for g in groups]
        )
    certificate = None
    if mode == "adaptive":
        with _named("certificate"):
            certificate = check_certificate(kappa_p, kappa_v, laplacian, groups)

    integ = _field(
        data, "", "integration", _fields, "step", "t_final", "record_every",
        "collision_threshold", default={},
    )
    h = _field(integ, "integration", "step", _float, default=1e-3)
    t_final = _field(integ, "integration", "t_final", _float)
    record_every = _field(integ, "integration", "record_every", _int, default=100)
    collision_eps = _field(
        integ, "integration", "collision_threshold", _float, default=1e-3
    )
    if not (h > 0 and t_final > 0 and collision_eps > 0 and record_every >= 1):
        raise ValidationError(
            "integration: step, t_final and collision_threshold must be "
            "positive, record_every >= 1"
        )
    ratio = t_final / h
    if not math.isfinite(ratio):
        raise ValidationError(
            f"integration: t_final / step = {t_final} / {h} overflows, over "
            f"the limit of {MAX_STEPS} steps"
        )
    steps = round(ratio)
    if steps < 1 or abs(ratio - steps) > STEP_TOL * ratio:
        raise ValidationError(
            f"integration: t_final = {t_final} is not a whole number of "
            f"steps of {h}"
        )

    outputs = _field(data, "", "outputs", _fields, "directory", "oracles", default={})

    sc = CompiledScenario(
        graph=graph,
        laplacian=laplacian,
        p_star0=p_star0,
        v_c=v_c,
        p0=p0,
        v_f0=v_f0,
        mode=mode,
        kappa_p=kappa_p,
        kappa_v=kappa_v,
        groups=groups,
        freeze_theta=_field(ctrl, "controller", "freeze_theta", _bool, default=False),
        h=h,
        t_final=t_final,
        # any interval from n_steps on records steps 0 and n_steps only
        record_every=min(record_every, steps),
        collision_eps=collision_eps,
        output_dir=_directory(outputs.get("directory", "out"), "outputs.directory"),
        oracles=_field(outputs, "outputs", "oracles", _bool, default=False),
        certificate=certificate,
    )
    size = sc.n_samples * sc.state_dim * 8
    if size > MAX_SAMPLE_BYTES:
        raise ValidationError(
            f"integration: the run would record {_count(sc.n_samples)} samples "
            f"of its {sc.state_dim}-entry state, {_count((size + (1 << 19)) >> 20)} "
            f"MiB, over the limit of {MAX_SAMPLE_BYTES >> 20} MiB"
        )
    if sc.n_steps > MAX_STEPS:
        raise ValidationError(
            f"integration: the run would take {_count(sc.n_steps)} steps, over "
            f"the limit of {MAX_STEPS}"
        )
    _check_step(sc, np.concatenate([w for _, w, _, _ in dists]))
    return sc


def load_scenario(path, overrides=None) -> CompiledScenario:
    """Load, validate, and compile a scenario file.

    overrides is an optional flat dict keyed like OVERRIDES; each value that
    is not None replaces its JSON field before the compile pass, so an
    overridden value passes the same checks as the file.
    """

    def unique(pairs):
        """A JSON object's dict; json.load would keep a repeated key's last value."""
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ParseError(
                f"scenario file {path} repeats the key {_echo(key)} in an object"
            )
        return obj

    try:
        with open(path, encoding="utf-8") as fh:    # RFC 8259
            data = json.load(fh, object_pairs_hook=unique)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"scenario file {path} is not UTF-8: {exc.reason} at byte {exc.start}"
        ) from exc
    except RecursionError as exc:
        raise ParseError(
            f"malformed JSON in {path}: lists or objects nested deeper than the "
            "parser's recursion limit"
        ) from exc
    except ValueError as exc:   # int() refuses a literal past the digit limit
        raise ParseError(
            f"malformed JSON in {path}: an integer literal of more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in OVERRIDES:
            raise ValidationError(f"unknown override '{key}'")
        section, name = OVERRIDES[key]
        # a section that is not an object is left for the compile pass to reject
        if isinstance(data, dict) and isinstance(data.setdefault(section, {}), dict):
            data[section][name] = value
    return compile_scenario(data)
