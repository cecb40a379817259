"""Scenario files: validation and compilation into engine inputs.

A scenario is one JSON object with `graph`, `geometry`, `disturbances`,
`controller`, `integration`, and `outputs` sections.  Agent IDs are explicit
and 1-based; leaders must be exactly 1..n_l.  All validation (schema,
localizability, disturbance well-posedness, gain conditions, and in adaptive
mode the Lyapunov certificate's positivity checks) happens at load time so
that a run never fails on a stability hypothesis mid-integration.
"""

from __future__ import annotations

import contextlib
import json
import math

import numpy as np

from .control_laws import ControllerGains, validate_gains
from .disturbance import DisturbanceSpec, build_canonical
from .errors import (
    BearingForgeError,
    MissingBearing,
    ParseError,
    ValidationError,
)
from .formation_graph import (
    BearingSet,
    SensingGraph,
    build_bearing_laplacian,
    localize_followers,
)
from .internal_model import synthesize
from .sim_engine import CompiledScenario, check_certificate, closed_loop_spectrum

MODES = ("known", "adaptive", "feedback_only")
ETA_POLICIES = ("velocity_feedforward", "xi_zero")
STEP_TOL = 1e-9                  # relative distance of t_final/step from a whole number
# Largest array a run may allocate: of its recorded states, and of the dense
# nd x nd bearing Laplacian, which also keeps agent ids far below the 2^32
# that formation_graph._keys packs two of into one int64
MAX_SAMPLE_BYTES = 1 << 30
# Most steps (t_final / step) a run may take: 50 times the bundled 200 s
# adaptive run (2e5 steps).  On a 2-core Xeon the operator step of the
# bundled square takes about 13 us, so 1e7 steps take about 2 minutes, and
# the staged step of a 64-agent formation (about 0.34 ms) about an hour.
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
# |R(i y)|^2 = 1 - y^6/72 + y^8/576 for RK4's stability function R, so a
# neutral mode i omega stays bounded exactly for |h omega| < 2 sqrt 2
RK4_AXIS_LIMIT = 2.0 * math.sqrt(2.0)
# every z with |R(z)| < 1 has |z| < 2.96, so a mode lambda bounds the
# steps it allows by 3 / |lambda|
RK4_REACH = 3.0


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


def _typed(types, noun):
    """Reader of a JSON value of the given types; a bool is never a number."""

    def read(value, what):
        if not isinstance(value, types) or isinstance(value, bool) != (types is bool):
            raise ValidationError(f"{what}: expected {noun}, got {value!r}")
        return value

    return read


_object = _typed(dict, "a JSON object")
_list = _typed((list, tuple), "a JSON list")
_int = _typed(int, "an integer")
_bool = _typed(bool, "true or false")
_str = _typed(str, "a string")


def _fields(value, what, *keys):
    """A JSON object whose fields are all in keys, the ones the compile reads."""
    for key in _object(value, what):
        if key not in keys:
            raise ValidationError(f"{what or 'scenario'}: unknown field '{key}'")
    return value


def _float(value, what):
    """A finite JSON number, as a float."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            if math.isfinite(value):
                return float(value)
    raise ValidationError(f"{what}: expected a finite number, got {value!r}")


def _array(value, what):
    """A number or a nested JSON list of finite numbers, as a float array."""
    if not isinstance(value, (list, tuple)):
        return np.array(_float(value, what))
    parts = [_array(x, what) for x in value]
    if len({p.shape for p in parts}) > 1:
        raise ValidationError(f"{what}: rows of unequal length")
    return np.array(parts, dtype=float)


def _vec(value, what, d):
    arr = _array(value, what)
    if arr.shape != (d,):
        raise ValidationError(f"{what}: expected {d} coordinates, got shape {arr.shape}")
    return arr


def _edge(value, what, n):
    e = tuple(_list(value, what))
    if len(e) != 2 or not all(1 <= _int(x, what) <= n for x in e) or e[0] == e[1]:
        raise ValidationError(f"{what}: malformed edge {e}")
    return e


def _ids(value, what, allowed, read, *args):
    """A {agent id: value} JSON object keyed by the ids in allowed (the range
    of followers or of all agents), each value read by read."""
    out = {}
    for k, v in _object(value, what).items():
        # one spelling per agent: int() would also read "03", " 3" and "+3"
        # as agent 3, and the later entry would silently replace the earlier
        if not (k.isascii() and k.isdigit() and str(int(k)) == k):
            raise ValidationError(
                f"{what}: agent id {k!r} is not a decimal integer without "
                "sign, spaces or leading zeros"
            )
        i = int(k)
        if i not in allowed:  # a range of followers starts after leader 1
            bad = f"agent {i} is not a follower" if allowed[0] > 1 else f"unknown agent {i}"
            raise ValidationError(f"{what}: {bad}")
        out[i] = read(v, f"{what}[{k}]", *args)
    return out


def _disturbance(entry, what, d):
    _fields(entry, what, "constant", "sinusoids")
    constant = _field(entry, what, "constant", _vec, d, default=np.zeros(d))
    freqs, amps, phases = [], [], []
    for term in _field(entry, what, "sinusoids", _list, default=[]):
        _fields(term, f"{what}.sinusoids", "frequency", "amplitudes", "phases")
        freqs.append(_field(term, what, "frequency", _float))
        amps.append(_field(term, what, "amplitudes", _vec, d))
        phases.append(_field(term, what, "phases", _vec, d))
    with _named(what):
        return DisturbanceSpec(d, constant, freqs, amps, phases)


@np.errstate(over="ignore", invalid="ignore")
def _rk4_damps(z):
    """|R(z)| < 1 for each z = h lambda, with R(z) = 1 + z + z^2/2 + z^3/6
    + z^4/24 the stability function of classical RK4.  With p = R - 1,
    formed without the 1, |R|^2 = 1 + 2 Re p + |p|^2, so the test is
    2 Re p + |p|^2 < 0: 1 + p would round to 1 at |z| near 1e-20 and put a
    stable mode on the boundary.  A z whose powers overflow fails."""
    p = z * (1.0 + z / 2.0 * (1.0 + z / 3.0 * (1.0 + z / 4.0)))
    return 2.0 * p.real + (p.real * p.real + p.imag * p.imag) < 0.0


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
            f"graph: the bearing Laplacian of {n} agents in dimension {d} would "
            f"take {size >> 20} MiB, over the limit of {MAX_SAMPLE_BYTES >> 20} MiB"
        )
    leaders = sorted(
        _int(x, "graph.leaders") for x in _field(graph_in, "graph", "leaders", _list)
    )
    if leaders != list(range(1, len(leaders) + 1)):
        raise ValidationError(
            f"graph.leaders: leaders must be exactly 1..n_l, got {leaders}"
        )
    n_l = len(leaders)
    if not 1 <= n_l < n:
        raise ValidationError(f"graph.leaders: need 1 <= n_l < n, got n_l={n_l}, n={n}")
    edges = [_edge(e, "graph.edges", n) for e in _field(graph_in, "graph", "edges", _list)]
    try:
        graph = SensingGraph(n=n, d=d, n_l=n_l, edges=edges)
    except ValueError as exc:
        raise ValidationError(f"graph: {exc}") from exc

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
    specs = [disturbances.get(i, DisturbanceSpec(d=d, C0=np.zeros(d))) for i in followers]

    ctrl = _field(
        data, "", "controller", _fields, "mode", "kappa_p", "kappa_v",
        "adaptation_rate", "adaptation_gains", "theta_hat_init", "eta_init",
        "freeze_theta",
    )
    mode = _field(ctrl, "controller", "mode", _str)
    if mode not in MODES:
        raise ValidationError(f"controller.mode: unknown mode '{mode}'")

    exos, models = [], []
    for i, spec in zip(followers, specs):
        with _named(f"disturbances[{i}]"):
            exos.append(build_canonical(spec))
            models.append(synthesize(exos[-1]))

    gains = ControllerGains(
        kappa_p=_field(ctrl, "controller", "kappa_p", _float),
        kappa_v=_field(ctrl, "controller", "kappa_v", _float),
    )
    rate = _field(ctrl, "controller", "adaptation_rate", _float, default=1.0)
    given = _field(
        ctrl, "controller", "adaptation_gains", _ids, followers, _array, default={}
    )
    theta_init = _field(
        ctrl, "controller", "theta_hat_init", _ids, followers, _array, default={}
    )
    # the adaptive-only fields are checked in every mode, so that a wrong
    # value is never ignored silently
    lambdas = []
    theta_hat0 = []
    for i, model in zip(followers, models):
        m = model.order
        Lam = np.atleast_2d(given[i]) if i in given else rate * np.eye(m)
        if Lam.shape != (m, m):
            raise ValidationError(
                f"controller.adaptation_gains[{i}]: expected "
                f"{m}x{m} matrix, got {Lam.shape}"
            )
        lambdas.append(Lam)
        th0 = theta_init.get(i, np.zeros(m))
        if th0.shape != (m,):
            raise ValidationError(
                f"controller.theta_hat_init[{i}]: expected {m} entries"
            )
        theta_hat0.append(th0)

    mu = laplacian.ff_eigenvalues
    with _named("gains"):
        validate_gains(gains, mu, mode, zip(followers, lambdas))
    if mode == "adaptive":
        with _named("certificate"):
            check_certificate(gains, mu[0], models)

    eta_init = ctrl.get("eta_init", "velocity_feedforward")
    if isinstance(eta_init, dict):
        eta_init = _ids(eta_init, "controller.eta_init", followers, _array)
    elif eta_init not in ETA_POLICIES:
        raise ValidationError(f"controller.eta_init: unknown policy '{eta_init}'")
    eta0 = []
    for idx, (i, model, exo) in enumerate(zip(followers, models, exos)):
        e0 = np.kron(model.N, v_f0[idx])
        if isinstance(eta_init, dict) and i in eta_init:
            e0 = eta_init[i]
            if e0.shape != (model.order * d,):
                raise ValidationError(
                    f"controller.eta_init[{i}]: expected {model.order * d} entries"
                )
        elif eta_init == "xi_zero":
            e0 = e0 - np.kron(model.T, np.eye(d)) @ exo.theta0
        eta0.append(e0)

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
    steps = round(ratio) if math.isfinite(ratio) else 0
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
        gains=gains,
        exos=exos,
        models=models,
        eta0=eta0,
        theta_hat0=theta_hat0,
        lambdas=lambdas,
        freeze_theta=_field(ctrl, "controller", "freeze_theta", _bool, default=False),
        h=h,
        t_final=t_final,
        # any interval from n_steps on records steps 0 and n_steps only
        record_every=min(record_every, steps),
        collision_eps=collision_eps,
        output_dir=_field(outputs, "outputs", "directory", _str, default="out"),
        oracles=_field(outputs, "outputs", "oracles", _bool, default=False),
    )
    size = sc.n_samples * sc.state_dim * 8
    if size > MAX_SAMPLE_BYTES:
        raise ValidationError(
            f"integration: the run would record {sc.n_samples} samples of its "
            f"{sc.state_dim}-entry state, {size / 2**20:.0f} MiB, over the "
            f"limit of {MAX_SAMPLE_BYTES / 2**20:.0f} MiB"
        )
    if sc.n_steps > MAX_STEPS:
        raise ValidationError(
            f"integration: the run would take {sc.n_steps} steps, over the limit "
            f"of {MAX_STEPS}"
        )
    _check_step(sc, np.concatenate([spec.frequencies for spec in specs]))
    return sc


def load_scenario(path, overrides=None) -> CompiledScenario:
    """Load, validate, and compile a scenario file.

    overrides is an optional flat dict keyed like OVERRIDES; each value that
    is not None replaces its JSON field before the compile pass, so an
    overridden value passes the same checks as the file.
    """
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno}, "
            f"column {exc.colno}"
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
