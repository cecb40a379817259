"""Scenario files: parsing, validation, and compilation into engine inputs.

A scenario is one JSON object with `graph`, `geometry`, `disturbances`,
`controller`, `integration`, and `outputs` sections.  Agent IDs are explicit
and 1-based; leaders must be exactly 1..n_l.  All validation (schema,
localizability, disturbance well-posedness, gain conditions) happens at load
time so that a run never fails on a stability hypothesis mid-integration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .control_laws import ControllerGains, validate_gains
from .disturbance import DisturbanceSpec, SinusoidTerm, build_canonical
from .errors import (
    BearingForgeError,
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
from .sim_engine import CompiledScenario

MODES = ("known", "adaptive", "feedback_only")
ETA_POLICIES = ("velocity_feedforward", "xi_zero")


@dataclass
class ScenarioConfig:
    """Parsed scenario prior to synthesis (schema-level view of the JSON)."""

    n: int
    d: int
    n_l: int
    edges: list
    desired_positions: dict          # id -> (d,) array; leaders always present
    desired_bearings: dict           # (i, j) -> (d,) array; may be empty
    initial_positions: dict          # follower id -> (d,) array
    initial_velocities: dict         # follower id -> (d,) array
    v_c: np.ndarray
    disturbances: dict               # follower id -> DisturbanceSpec
    mode: str
    kappa_p: float
    kappa_v: float
    adaptation_rate: float
    adaptation_gains: dict           # follower id -> matrix (optional)
    theta_hat_init: dict             # follower id -> vector (optional)
    eta_init: object                 # policy string or {follower id -> vector}
    freeze_theta: bool
    h: float
    t_final: float
    record_every: int
    collision_eps: float
    output_dir: str
    oracles: bool

    @property
    def followers(self):
        return range(self.n_l + 1, self.n + 1)


def _vec(value, d, what):
    arr = np.asarray(value, dtype=float)
    if arr.shape != (d,):
        raise ValidationError(f"{what}: expected {d} coordinates, got shape {arr.shape}")
    return arr


def _require(data, key, section):
    if key not in data:
        raise ValidationError(f"{section}: missing required field '{key}'")
    return data[key]


def _parse_disturbance(d, entry, what):
    constant = np.asarray(entry.get("constant", np.zeros(d)), dtype=float)
    if constant.shape != (d,):
        raise ValidationError(f"{what}.constant: expected {d} coordinates")
    terms = []
    for term in entry.get("sinusoids", []):
        terms.append(
            SinusoidTerm(
                frequency=float(_require(term, "frequency", what)),
                amplitudes=_vec(_require(term, "amplitudes", what), d, f"{what}.amplitudes"),
                phases=_vec(_require(term, "phases", what), d, f"{what}.phases"),
            )
        )
    try:
        return DisturbanceSpec(d=d, C0=constant, terms=tuple(terms))
    except (BearingForgeError, ValueError) as exc:
        raise ValidationError(f"{what}: {type(exc).__name__}: {exc}") from exc


def parse_config(data) -> ScenarioConfig:
    """Schema-level validation of a decoded scenario JSON object."""
    if not isinstance(data, dict):
        raise ValidationError("scenario: top level must be a JSON object")

    graph = _require(data, "graph", "scenario")
    n = int(_require(graph, "n_agents", "graph"))
    d = int(_require(graph, "dimension", "graph"))
    leaders = sorted(int(x) for x in _require(graph, "leaders", "graph"))
    if leaders != list(range(1, len(leaders) + 1)):
        raise ValidationError(
            f"graph.leaders: leaders must be exactly 1..n_l, got {leaders}"
        )
    n_l = len(leaders)
    if not 1 <= n_l < n:
        raise ValidationError(f"graph.leaders: need 1 <= n_l < n, got n_l={n_l}, n={n}")
    edges = []
    for e in _require(graph, "edges", "graph"):
        e = tuple(int(x) for x in e)
        if len(e) != 2 or e[0] == e[1] or not all(1 <= x <= n for x in e):
            raise ValidationError(f"graph.edges: malformed edge {e}")
        edges.append(e)

    geom = _require(data, "geometry", "scenario")
    v_c = _vec(
        _require(geom, "leader_velocity", "geometry"), d, "geometry.leader_velocity"
    )
    desired_positions = {
        int(k): _vec(v, d, f"geometry.desired_positions[{k}]")
        for k, v in geom.get("desired_positions", {}).items()
    }
    desired_bearings = {}
    for entry in geom.get("desired_bearings", []):
        i, j = (int(x) for x in _require(entry, "edge", "geometry.desired_bearings"))
        desired_bearings[(i, j)] = _vec(
            _require(entry, "bearing", "geometry.desired_bearings"),
            d,
            f"geometry.desired_bearings[{i},{j}]",
        )
    for i in range(1, n_l + 1):
        if i not in desired_positions:
            raise ValidationError(
                f"geometry.desired_positions: leader {i} has no desired position"
            )
    if not desired_bearings and set(desired_positions) != set(range(1, n + 1)):
        raise ValidationError(
            "geometry: desired_positions must cover all agents when "
            "desired_bearings are not given"
        )
    followers = set(range(n_l + 1, n + 1))
    initial_positions = {}
    for k, v in geom.get("initial_positions", {}).items():
        initial_positions[int(k)] = _vec(v, d, f"geometry.initial_positions[{k}]")
    initial_velocities = {}
    for k, v in geom.get("initial_velocities", {}).items():
        k = int(k)
        if k not in followers:
            raise ValidationError(
                f"geometry.initial_velocities: agent {k} is not a follower "
                "(leaders always move at leader_velocity)"
            )
        initial_velocities[k] = _vec(v, d, f"geometry.initial_velocities[{k}]")

    disturbances = {}
    for k, entry in data.get("disturbances", {}).items():
        k = int(k)
        if k not in followers:
            raise ValidationError(f"disturbances: agent {k} is not a follower")
        disturbances[k] = _parse_disturbance(d, entry, f"disturbances[{k}]")

    ctrl = _require(data, "controller", "scenario")
    mode = _require(ctrl, "mode", "controller")
    if mode not in MODES:
        raise ValidationError(f"controller.mode: unknown mode '{mode}'")
    theta_hat_init = {
        int(k): np.asarray(v, dtype=float)
        for k, v in ctrl.get("theta_hat_init", {}).items()
    }
    adaptation_gains = {
        int(k): np.asarray(v, dtype=float)
        for k, v in ctrl.get("adaptation_gains", {}).items()
    }
    eta_init = ctrl.get("eta_init", "velocity_feedforward")
    if isinstance(eta_init, dict):
        eta_init = {int(k): np.asarray(v, dtype=float) for k, v in eta_init.items()}
    elif eta_init not in ETA_POLICIES:
        raise ValidationError(f"controller.eta_init: unknown policy '{eta_init}'")

    integ = data.get("integration", {})
    h = float(integ.get("step", 1e-3))
    t_final = float(_require(integ, "t_final", "integration"))
    record_every = int(integ.get("record_every", 100))
    collision_eps = float(integ.get("collision_threshold", 1e-3))
    if h <= 0 or t_final <= 0 or record_every < 1:
        raise ValidationError(
            "integration: step and t_final must be positive, record_every >= 1"
        )

    outputs = data.get("outputs", {})

    return ScenarioConfig(
        n=n,
        d=d,
        n_l=n_l,
        edges=edges,
        desired_positions=desired_positions,
        desired_bearings=desired_bearings,
        initial_positions=initial_positions,
        initial_velocities=initial_velocities,
        v_c=v_c,
        disturbances=disturbances,
        mode=mode,
        kappa_p=float(_require(ctrl, "kappa_p", "controller")),
        kappa_v=float(_require(ctrl, "kappa_v", "controller")),
        adaptation_rate=float(ctrl.get("adaptation_rate", 1.0)),
        adaptation_gains=adaptation_gains,
        theta_hat_init=theta_hat_init,
        eta_init=eta_init,
        freeze_theta=bool(ctrl.get("freeze_theta", False)),
        h=h,
        t_final=t_final,
        record_every=record_every,
        collision_eps=collision_eps,
        output_dir=str(outputs.get("directory", "out")),
        oracles=bool(outputs.get("oracles", False)),
    )


def compile_scenario(cfg: ScenarioConfig) -> CompiledScenario:
    """Synthesize graph algebra, exosystems, and internal models; gate on the
    localizability and gain hypotheses."""
    try:
        graph = SensingGraph(n=cfg.n, d=cfg.d, n_l=cfg.n_l, edges=cfg.edges)
    except ValueError as exc:
        raise ValidationError(f"graph: {exc}") from exc

    bearings = _resolve_bearings(cfg, graph)
    laplacian = build_bearing_laplacian(graph, bearings)

    p_l_star = np.array([cfg.desired_positions[i] for i in range(1, cfg.n_l + 1)])
    try:
        p_f_star, _ = localize_followers(laplacian, p_l_star, cfg.v_c)
    except BearingForgeError as exc:
        raise ValidationError(f"localization: {type(exc).__name__}: {exc}") from exc
    p_star0 = np.vstack([p_l_star, p_f_star])

    # leaders start pinned at the target; followers default to it
    p0 = p_star0.copy()
    for k, v in cfg.initial_positions.items():
        if k <= cfg.n_l:
            if np.linalg.norm(v - cfg.desired_positions[k]) > 1e-9:
                raise ValidationError(
                    f"geometry.initial_positions: leader {k} must start at its "
                    "desired position (leaders track the target exactly)"
                )
            continue
        p0[k - 1] = v
    v_f0 = np.tile(cfg.v_c, (cfg.n - cfg.n_l, 1))
    for k, v in cfg.initial_velocities.items():
        v_f0[k - cfg.n_l - 1] = v

    specs = [
        cfg.disturbances.get(i, DisturbanceSpec.zero(cfg.d)) for i in cfg.followers
    ]
    if cfg.mode == "feedback_only" and any(not s.is_zero() for s in specs):
        raise ValidationError(
            "controller.mode: feedback_only permits zero disturbances only"
        )

    exos = [build_canonical(s) for s in specs]
    try:
        models = [synthesize(e) for e in exos]
    except BearingForgeError as exc:
        raise ValidationError(f"internal model: {type(exc).__name__}: {exc}") from exc

    lambdas = []
    adaptation = {}
    if cfg.mode == "adaptive":
        for i, model in zip(cfg.followers, models):
            m = model.order
            Lam = cfg.adaptation_gains.get(i)
            if Lam is None:
                Lam = cfg.adaptation_rate * np.eye(m)
            Lam = np.atleast_2d(Lam)
            if Lam.shape != (m, m):
                raise ValidationError(
                    f"controller.adaptation_gains[{i}]: expected "
                    f"{m}x{m} matrix, got {Lam.shape}"
                )
            lambdas.append(Lam)
            adaptation[i] = Lam
    gains = ControllerGains(
        kappa_p=cfg.kappa_p, kappa_v=cfg.kappa_v, adaptation_gains=adaptation
    )
    try:
        validate_gains(gains, laplacian.B_ff, cfg.mode)
    except BearingForgeError as exc:
        raise ValidationError(f"gains: {type(exc).__name__}: {exc}") from exc

    theta_hat0 = []
    if cfg.mode == "adaptive":
        for i, model in zip(cfg.followers, models):
            th0 = cfg.theta_hat_init.get(i, np.zeros(model.order))
            if th0.shape != (model.order,):
                raise ValidationError(
                    f"controller.theta_hat_init[{i}]: expected {model.order} entries"
                )
            theta_hat0.append(th0)

    eta0 = []
    for idx, (i, model, exo) in enumerate(zip(cfg.followers, models, exos)):
        m = model.order
        if isinstance(cfg.eta_init, dict):
            e0 = cfg.eta_init.get(i)
            if e0 is None:
                e0 = np.kron(model.N, v_f0[idx])
            elif e0.shape != (m * cfg.d,):
                raise ValidationError(
                    f"controller.eta_init[{i}]: expected {m * cfg.d} entries"
                )
        elif cfg.eta_init == "xi_zero":
            e0 = np.kron(model.N, v_f0[idx]) - np.kron(model.T, np.eye(cfg.d)) @ exo.theta0
        else:  # velocity_feedforward
            e0 = np.kron(model.N, v_f0[idx])
        eta0.append(np.asarray(e0, dtype=float))

    return CompiledScenario(
        graph=graph,
        bearings=bearings,
        laplacian=laplacian,
        p_star0=p_star0,
        v_c=cfg.v_c,
        p0=p0,
        v_f0=v_f0,
        mode=cfg.mode,
        gains=gains,
        specs=specs,
        exos=exos,
        models=models,
        eta0=eta0,
        theta_hat0=theta_hat0,
        lambdas=lambdas,
        freeze_theta=cfg.freeze_theta,
        h=cfg.h,
        t_final=cfg.t_final,
        record_every=cfg.record_every,
        collision_eps=cfg.collision_eps,
        output_dir=cfg.output_dir,
        oracles=cfg.oracles,
    )


def _resolve_bearings(cfg, graph):
    """Desired bearings from the config: given per edge, derived from the
    desired configuration, or both (which must then agree)."""
    derived = None
    if set(cfg.desired_positions) == set(range(1, cfg.n + 1)):
        positions = np.array([cfg.desired_positions[i] for i in range(1, cfg.n + 1)])
        try:
            derived = BearingSet.from_positions(graph, positions)
        except BearingForgeError as exc:
            raise ValidationError(
                f"geometry.desired_positions: {type(exc).__name__}: {exc}"
            ) from exc
    if cfg.desired_bearings:
        try:
            given = BearingSet(cfg.desired_bearings)
        except BearingForgeError as exc:
            raise ValidationError(
                f"geometry.desired_bearings: {type(exc).__name__}: {exc}"
            ) from exc
        for (i, j) in graph.edges:
            if (i, j) not in given:
                raise ValidationError(
                    f"geometry.desired_bearings: edge ({i},{j}) has no bearing"
                )
            if derived is not None:
                if np.linalg.norm(given[(i, j)] - derived[(i, j)]) > 1e-9:
                    raise ValidationError(
                        f"geometry: desired bearing for edge ({i},{j}) disagrees "
                        "with the one derived from desired_positions"
                    )
        return given
    if derived is None:
        raise ValidationError(
            "geometry: provide desired_bearings or a full desired_positions set"
        )
    return derived


def load_scenario(path, overrides=None) -> CompiledScenario:
    """Load, validate, and compile a scenario file.

    overrides is an optional flat dict ({"kappa_p": ..., "kappa_v": ...,
    "t_final": ..., "h": ..., "mode": ..., "output_dir": ...})
    applied before validation so that overridden gains are re-checked.
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
    cfg = parse_config(data)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "kappa_p":
            cfg.kappa_p = float(value)
        elif key == "kappa_v":
            cfg.kappa_v = float(value)
        elif key == "t_final":
            cfg.t_final = float(value)
        elif key == "h":
            cfg.h = float(value)
        elif key == "mode":
            if value not in MODES:
                raise ValidationError(f"override mode: unknown mode '{value}'")
            cfg.mode = value
        elif key == "output_dir":
            cfg.output_dir = str(value)
        else:
            raise ValidationError(f"unknown override '{key}'")
    return compile_scenario(cfg)
