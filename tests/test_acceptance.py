"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line so a full run reads as a checklist.
Criteria 4/5 share one known-frequency run and criterion 6 owns the long
adaptive run; both are module-scoped fixtures so the suite stays inside the
stated runtime budgets.
"""

import copy
import json
import time

import numpy as np
import pytest

from bearing_forge import bundled_scenario, cli
from bearing_forge.errors import NotLocalizable, ValidationError
from bearing_forge.formation_graph import (
    BearingSet,
    SensingGraph,
    build_bearing_laplacian,
    localize_followers,
)
from bearing_forge.scenario import closed_loop_spectrum, compile_scenario, load_scenario
from bearing_forge.sim_engine import (
    Trajectory,
    integrate,
    lyapunov_monitor,
    metrics,
    xi_oracle,
)

from conftest import per_follower, random_formation
from test_internal_model import model_for


@pytest.fixture(scope="module")
def known_run():
    sc = load_scenario(bundled_scenario("square_known"))
    start = time.perf_counter()
    traj = integrate(sc)
    elapsed = time.perf_counter() - start
    return sc, traj, elapsed


@pytest.fixture(scope="module")
def adaptive_run():
    sc = load_scenario(bundled_scenario("square_adaptive"))
    start = time.perf_counter()
    traj = integrate(sc)
    elapsed = time.perf_counter() - start
    return sc, traj, elapsed


def test_criterion_1_bearing_algebra():
    """Projector algebra to 1e-12 and Laplacian structure over 1000 cases."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    n_laplacians = 0
    for case in range(1000):
        d = int(rng.choice([2, 3]))
        g = rng.standard_normal(d)
        g /= np.linalg.norm(g)
        # the negated off-diagonal block of the one-edge Laplacian
        edge = SensingGraph(n=3, d=d, n_l=1, edges=[(1, 2)])
        P = -build_bearing_laplacian(edge, BearingSet({(1, 2): g})).B[:d, d : 2 * d]
        assert np.abs(P - (np.eye(d) - np.outer(g, g))).max() <= 1e-15
        assert np.linalg.norm(P @ P - P) <= 1e-12
        assert np.linalg.norm(P - P.T) <= 1e-12
        assert np.linalg.norm(P @ g) <= 1e-12
        # full Laplacian checks on a subsample to stay inside the budget
        if case % 10 == 0:
            graph, bearings, _ = random_formation(
                rng, n=int(rng.integers(4, 9)), d=d, complete=False
            )
            L = build_bearing_laplacian(graph, bearings)
            assert np.linalg.norm(L.B - L.B.T) <= 1e-10
            assert np.linalg.eigvalsh(L.B)[0] >= -1e-10
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(L.B @ np.tile(v, graph.n)) <= 1e-10
            n_laplacians += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"PASS criterion 1: bearing algebra (1000 projectors, "
        f"{n_laplacians} Laplacians, {elapsed:.2f}s)"
    )


def test_criterion_2_localization():
    """200 random generic formations recovered to 1e-8; collinear rejected."""
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        graph, bearings, pos = random_formation(rng, complete=True)
        L = build_bearing_laplacian(graph, bearings)
        p_f = localize_followers(L, pos[: graph.n_l])
        worst = max(worst, float(np.linalg.norm(p_f - pos[graph.n_l :])))
    assert worst <= 1e-8

    collinear = SensingGraph(n=3, d=2, n_l=2, edges=[(1, 3), (2, 3)])
    bearings = BearingSet(
        {(3, 1): np.array([1.0, 0.0]), (3, 2): np.array([-1.0, 0.0])}
    )
    L = build_bearing_laplacian(collinear, bearings)
    with pytest.raises(NotLocalizable):
        localize_followers(L, np.array([[0.0, 0.0], [2.0, 0.0]]))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"PASS criterion 2: localization (200 recoveries, worst {worst:.2e}, "
        f"collinear rejected, {elapsed:.2f}s)"
    )


def test_criterion_3_internal_model_synthesis():
    """Synthesis sweep r <= 4: residual, nonsingular T, ET = Psi, Hurwitz M,
    controllable (M, N).  High orders sample a narrower frequency sub-band of
    (0, 10] where the companion coordinates stay numerically well-scaled."""
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    bands = {0: (0.3, 10.0), 1: (0.3, 10.0), 2: (0.3, 6.0), 3: (0.5, 3.0), 4: (0.5, 2.0)}
    checked = 0
    for r, (lo, hi) in bands.items():
        for _ in range(8):
            freqs = np.sort(rng.uniform(lo, hi, size=r))
            while r > 1 and np.diff(freqs).min() < 0.1:
                freqs = np.sort(rng.uniform(lo, hi, size=r))
            exo = model = model_for(freqs)
            m = 2 * r + 1
            res = model.T @ exo.Phi - model.M @ model.T - np.outer(model.N, exo.Psi)
            assert np.linalg.norm(res) <= 1e-10
            assert np.linalg.svd(model.T, compute_uv=False)[-1] > 1e-10
            assert np.linalg.norm(model.E @ model.T - exo.Psi) <= 1e-9
            assert np.linalg.eigvals(model.M).real.max() < 0
            for lam in np.linalg.eigvals(model.M):
                pencil = np.hstack(
                    [model.M - lam * np.eye(m), model.N.reshape(-1, 1)]
                )
                assert np.linalg.svd(pencil, compute_uv=False)[-1] > 1e-8
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"PASS criterion 3: internal-model synthesis "
        f"({checked} cases, r <= 4, {elapsed:.2f}s)"
    )


def test_criterion_4_known_frequency_rejection(known_run):
    """Known-frequency law on the unit square: Hurwitz closed loop, terminal
    errors below 1e-6, and decay rate matching the spectral abscissa."""
    sc, traj, elapsed = known_run
    assert elapsed < 30.0
    abscissa = float(closed_loop_spectrum(sc).real.max())
    assert abscissa < 0

    mts = metrics(traj, sc)
    p0 = mts["err_p_norm"][0]
    v0 = mts["err_v_norm"][0]
    assert mts["terminal_err_p"] <= 1e-6 * max(1.0, p0)
    assert mts["terminal_err_v"] <= 1e-6 * max(1.0, v0)

    rate = mts["decay_rate"]
    assert rate is not None
    assert abs(rate - abscissa) <= 0.2 * abs(abscissa)
    print(
        f"PASS criterion 4: known-frequency rejection (abscissa {abscissa:.4f}, "
        f"terminal err_p {mts['terminal_err_p']:.2e}, rate {rate:.4f}, "
        f"{elapsed:.1f}s)"
    )


def test_criterion_5_xi_dynamics_oracle(known_run):
    """Transformed compensator state follows its exact linear flow on [0, 20]."""
    sc, traj, _ = known_run
    start = time.perf_counter()
    keep = traj.times <= 20.0 + 1e-12
    short = Trajectory(
        times=traj.times[keep],
        positions=traj.positions[keep],
        velocities=traj.velocities[keep],
        eta=tuple(x[keep] for x in traj.eta),
        vartheta=tuple(x[keep] for x in traj.vartheta),
        theta_hat=tuple(x[keep] for x in traj.theta_hat),
        min_dist=traj.min_dist[keep],
    )
    dev = xi_oracle(short, sc)
    elapsed = time.perf_counter() - start
    assert dev <= 1e-6
    assert elapsed < 10.0
    print(f"PASS criterion 5: xi-dynamics oracle (max deviation {dev:.2e})")


def test_criterion_6_adaptive_rejection(adaptive_run):
    """Adaptive law without frequency knowledge: bounded states, errors below
    1e-3 by t=200, and a non-increasing Lyapunov monitor."""
    sc, traj, elapsed = adaptive_run
    assert elapsed < 120.0
    lam_min = float(np.linalg.eigvalsh(sc.laplacian.B_ff)[0])
    assert sc.kappa_v * lam_min > 1.0
    for g in sc.groups:
        np.testing.assert_allclose(g.theta_hat0, 0.0)

    sup_state = max(
        float(np.abs(traj.positions).max()),
        float(np.abs(traj.velocities).max()),
        *(float(np.abs(x).max()) for x in traj.eta),
        *(float(np.abs(x).max()) for x in traj.theta_hat),
    )
    assert np.isfinite(sup_state) and sup_state < 1e6

    mts = metrics(traj, sc)
    assert mts["terminal_err_p"] <= 1e-3
    assert mts["terminal_err_v"] <= 1e-3

    cert = sc.certificate
    assert abs(cert.gamma - 1.01 * cert.gamma_sigma) <= 1e-12 * cert.gamma
    V = lyapunov_monitor(traj, sc)
    slack = 1e-8 * (1.0 + V[:-1])
    assert np.all(np.diff(V) <= slack)
    print(
        f"PASS criterion 6: adaptive rejection (sup state {sup_state:.1f}, "
        f"terminal err_p {mts['terminal_err_p']:.2e}, "
        f"V {V[0]:.3g} -> {V[-1]:.3g} non-increasing, {elapsed:.1f}s)"
    )


def test_criterion_7_adaptive_known_consistency():
    """Freezing the estimate at the true parameter vector reproduces the
    known-frequency trajectory."""
    with open(bundled_scenario("square_known")) as fh:
        data = json.load(fh)
    data["integration"]["t_final"] = 20.0
    # the adaptive gain gate needs kappa_v above 1/lambda_min; use the same
    # feedback gains for both runs so the loops are identical
    data["controller"]["kappa_v"] = 4.0

    sc_known = compile_scenario(copy.deepcopy(data))
    traj_known = integrate(sc_known)

    data["controller"]["mode"] = "adaptive"
    data["controller"]["freeze_theta"] = True
    data["controller"]["theta_hat_init"] = {
        str(i): list(model.E)
        for i, model in zip(
            range(sc_known.n_l + 1, sc_known.n + 1), per_follower(sc_known)
        )
    }
    sc_frozen = compile_scenario(data)
    traj_frozen = integrate(sc_frozen)

    dev = max(
        float(np.abs(traj_known.positions[-1] - traj_frozen.positions[-1]).max()),
        float(np.abs(traj_known.velocities[-1] - traj_frozen.velocities[-1]).max()),
    )
    assert dev <= 1e-9
    for th in traj_frozen.theta_hat:
        np.testing.assert_allclose(th[-1], th[0])
    print(f"PASS criterion 7: adaptive/known consistency (terminal deviation {dev:.2e})")


def test_criterion_8_gain_gates():
    """Hypothesis-violating gains are rejected at load time."""
    with open(bundled_scenario("square_adaptive")) as fh:
        adaptive = json.load(fh)
    bad = copy.deepcopy(adaptive)
    bad["controller"]["kappa_v"] = 1.0  # kappa_v * lambda_min ~ 0.29 <= 1
    with pytest.raises(ValidationError, match="gain"):
        compile_scenario(bad)

    for mode in ("known", "adaptive"):
        bad = copy.deepcopy(adaptive)
        bad["controller"]["mode"] = mode
        bad["controller"]["kappa_p"] = 0.0
        with pytest.raises(ValidationError, match="kappa_p"):
            compile_scenario(bad)
    print("PASS criterion 8: gain gates (boundary and non-positive gains rejected)")


def test_criterion_9_determinism_and_order(tmp_path):
    """Repeated runs are byte-identical; step halving shrinks the terminal
    change by the classical fourth-order factor."""
    scenario_path = bundled_scenario("square_adaptive")
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    args = ["run", scenario_path, "--t-final", "2.0"]
    assert cli.main(args + ["--out", out1]) == 0
    assert cli.main(args + ["--out", out2]) == 0
    b1 = (tmp_path / "r1" / "trajectory.csv").read_bytes()
    b2 = (tmp_path / "r2" / "trajectory.csv").read_bytes()
    assert b1 == b2

    terminals = []
    for h in (0.02, 0.01, 0.005):
        traj = integrate(load_scenario(scenario_path, {"t_final": 5.0, "h": h}))
        terminals.append(
            np.concatenate(
                [traj.positions[-1].ravel(), traj.velocities[-1].ravel()]
            )
        )
    d1 = np.linalg.norm(terminals[0] - terminals[1])
    d2 = np.linalg.norm(terminals[1] - terminals[2])
    ratio = d1 / d2
    assert 8.0 <= ratio <= 32.0
    print(
        f"PASS criterion 9: determinism and integrator order "
        f"(byte-identical CSV, halving ratio {ratio:.1f})"
    )
