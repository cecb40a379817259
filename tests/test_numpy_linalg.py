"""The package's NumPy linear algebra against SciPy as the reference, and a
guard that no command loads SciPy.

The proof oracles use two small dense routines in place of SciPy: the
per-follower Lyapunov vec-solve of the certificate and the balanced Pade-13
matrix exponential of the xi oracle.  The closed-form Sylvester solution T of
the internal model is checked against SciPy's Bartels-Stewart solver too.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

from bearing_forge.internal_model import choose_MN
from bearing_forge.sim_engine import _flow

from conftest import certificate_for
from test_internal_model import model_for


class TestFlow:
    @pytest.mark.parametrize("r", range(4))
    def test_matches_scipy_expm(self, r):
        """exp(M t) of the companion M over t in [0, 200], against
        scipy.linalg.expm per sample."""
        M, _ = choose_MN(r)
        times = np.linspace(0.0, 200.0, 401)
        ref = np.array([sla.expm(M * t) for t in times])
        got = _flow(M, times)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_r5_needs_balancing(self):
        """At r = 5 the companion M has a 1-norm of 1.5e8; scaling and
        squaring it unbalanced is off by 2.5e-3 relative at t = 0.5."""
        M, _ = choose_MN(5)
        ref = sla.expm(0.5 * M)
        got = _flow(M, np.array([0.5]))[0]
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", range(5))
def test_lyapunov_matches_scipy(r):
    """The certificate's G_i against solve_continuous_lyapunov(M_i^T, -I)."""
    model = model_for(np.arange(1, r + 1) * 0.7)
    cert = certificate_for(np.eye(1), 1.0, 4.0, [model], 1)
    ref = sla.solve_continuous_lyapunov(model.M.T, -np.eye(model.order))
    ref = 0.5 * (ref + ref.T)
    assert np.abs(cert.G[model.order] - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("r", range(4))
def test_sylvester_matches_scipy(r):
    """The closed-form T of T Phi - M T = N Psi against Bartels-Stewart
    (scipy.linalg.solve_sylvester)."""
    exo = model_for(np.arange(1, r + 1) * 0.7)
    M, N = choose_MN(r)
    ref = sla.solve_sylvester(-M, exo.Phi, np.outer(N, exo.Psi))
    T = exo.T
    np.testing.assert_allclose(T, ref, rtol=1e-12, atol=1e-12)


GUARD = """
import sys
from bearing_forge import bundled_scenario, cli

path = bundled_scenario("square_adaptive")
codes = [
    cli.main(["validate", path]),
    cli.main(["localize", path]),
    cli.main(["spectrum", path]),
    cli.main(["run", path, "--oracles", "--t-final", "1", "--out", sys.argv[1]]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_cli_loads_no_scipy(tmp_path):
    """validate, localize, spectrum and run --oracles import only NumPy."""
    proc = subprocess.run(
        [sys.executable, "-c", GUARD, str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] []"
    with open(tmp_path / "oracles.json") as fh:
        assert "lyapunov" in json.load(fh)
