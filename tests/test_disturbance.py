import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bearing_forge.disturbance import (
    CanonicalExosystem,
    DisturbanceSpec,
    build_canonical,
    disturbance_eval,
    min_poly_coeffs,
)
from bearing_forge.errors import DuplicateFrequency, NonPositiveFrequency


def spec_1d(C0=0.0, terms=()):
    """Spec on R^1 from (frequency, amplitude, phase) triples."""
    w, A, ph = np.reshape(terms, (-1, 3)).T
    return DisturbanceSpec(1, [C0], w, A[:, None], ph[:, None])


class TestMinPoly:
    def test_constant(self):
        np.testing.assert_allclose(min_poly_coeffs([]), [1.0, 0.0])

    def test_single_frequency(self):
        # lambda (lambda^2 + 4) = lambda^3 + 4 lambda
        np.testing.assert_allclose(min_poly_coeffs([2.0]), [1.0, 0.0, 4.0, 0.0])

    def test_two_frequencies(self):
        # lambda (lambda^2 + 1)(lambda^2 + 4) = lambda^5 + 5 lambda^3 + 4 lambda
        np.testing.assert_allclose(
            min_poly_coeffs([1.0, 2.0]), [1.0, 0.0, 5.0, 0.0, 4.0, 0.0]
        )

    def test_odd_polynomial(self):
        rng = np.random.default_rng(3)
        freqs = np.sort(rng.uniform(0.1, 10.0, size=3))
        coeffs = min_poly_coeffs(freqs)
        # even powers of the full polynomial carry zero coefficients
        np.testing.assert_allclose(coeffs[1::2], 0.0, atol=1e-12)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateFrequency):
            min_poly_coeffs([1.0, 1.0])

    def test_nonpositive_rejected(self):
        with pytest.raises(NonPositiveFrequency):
            min_poly_coeffs([-2.0])


class TestSpecShapes:
    """DisturbanceSpec checks each array's shape and names the field."""

    GOOD = dict(
        d=2, C0=[0.0, 1.0], frequencies=[1.0], amplitudes=[[1.0, 2.0]], phases=[[0.0, 0.5]]
    )

    @pytest.mark.parametrize(
        "field, value",
        [
            ("C0", [0.0, 1.0, 2.0]),
            ("frequencies", [[1.0]]),
            ("frequencies", 1.0),
            ("amplitudes", [1.0, 2.0]),
            ("amplitudes", [[1.0, 2.0, 3.0]]),
            ("phases", [[0.0]]),
            ("phases", [[0.0, 0.5], [1.0, 1.5]]),
            ("amplitudes", ()),
        ],
    )
    def test_wrong_shape_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must have shape"):
            DisturbanceSpec(**{**self.GOOD, field: value})

    def test_no_terms(self):
        spec = DisturbanceSpec(d=3, C0=np.zeros(3))
        assert spec.r == 0
        assert spec.amplitudes.shape == spec.phases.shape == (0, 3)


class TestDisturbanceEval:
    def test_constant(self):
        spec = DisturbanceSpec(d=2, C0=np.array([3.0, -1.0]))
        np.testing.assert_allclose(disturbance_eval(spec, 17.3), [3.0, -1.0])

    def test_exact_sine(self):
        spec = spec_1d(terms=[(np.pi, 2.0, 0.0)])
        np.testing.assert_allclose(disturbance_eval(spec, 0.5), [2.0])

    def test_phase_offset(self):
        spec = spec_1d(C0=1.0, terms=[(1.0, 1.0, np.pi / 2)])
        np.testing.assert_allclose(disturbance_eval(spec, 0.0), [2.0])


def derivative_ladder(spec, k):
    """d^(k)(0) summed term after term, the constant first: the reference
    that the closed-form theta0 must match bit for bit."""
    out = spec.C0.copy() if k == 0 else np.zeros(spec.d)
    for w, A, ph in zip(spec.frequencies, spec.amplitudes, spec.phases):
        if k == 0:
            out += A * np.sin(w * 0.0 + ph)
        else:
            out += A * np.power(w, k) * np.sin(w * 0.0 + ph + k * np.pi / 2.0)
    return out


class TestBuildCanonical:
    def test_constant_realization(self):
        spec = DisturbanceSpec(d=2, C0=np.array([3.0, -1.0]))
        exo = build_canonical(spec)
        np.testing.assert_allclose(exo.Phi, [[0.0]])
        np.testing.assert_allclose(exo.Psi, [1.0])
        np.testing.assert_allclose(exo.theta0, [3.0, -1.0])

    def test_sine_derivative_ladder(self):
        spec = spec_1d(terms=[(1.0, 1.0, 0.0)])
        exo = build_canonical(spec)
        np.testing.assert_allclose(exo.theta0, [0.0, 1.0, 0.0], atol=1e-15)

    def test_companion_char_poly(self):
        freqs = [0.7, 2.3, 4.1]
        spec = spec_1d(0.5, [(w, 1.0, 0.2 * k) for k, w in enumerate(freqs)])
        exo = build_canonical(spec)
        char = np.poly(exo.Phi)
        np.testing.assert_allclose(char, min_poly_coeffs(freqs), atol=1e-9)

    def test_phi_spectrum_neutrally_stable(self):
        freqs = [1.3, 2.9]
        spec = spec_1d(1.0, [(w, 1.0, 0.0) for w in freqs])
        exo = build_canonical(spec)
        eig = np.linalg.eigvals(exo.Phi)
        expected = np.array(
            [0.0] + [1j * w for w in freqs] + [-1j * w for w in freqs]
        )
        # match each expected eigenvalue to its nearest computed one
        dist = np.abs(eig[:, None] - expected[None, :])
        assert dist.min(axis=0).max() <= 1e-8
        assert dist.min(axis=1).max() <= 1e-8

    def test_ode_matches_closed_form(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            r = int(rng.integers(0, 4))
            d = int(rng.choice([2, 3]))
            freqs = np.sort(rng.uniform(0.2, 4.0, size=r))
            spec = DisturbanceSpec(
                d=d,
                C0=rng.uniform(-1, 1, size=d),
                frequencies=freqs,
                amplitudes=rng.uniform(-1, 1, size=(r, d)),
                phases=rng.uniform(-np.pi, np.pi, size=(r, d)),
            )
            exo = build_canonical(spec)
            A = np.kron(exo.Phi, np.eye(d))
            sol = solve_ivp(
                lambda t, y: A @ y,
                (0.0, 2.0),
                exo.theta0,
                t_eval=[0.5, 1.0, 2.0],
                rtol=1e-10,
                atol=1e-12,
            )
            for t, col in zip(sol.t, sol.y.T):
                recon = col[:d]  # (Psi kron I_d) theta picks the first block
                assert np.linalg.norm(recon - disturbance_eval(spec, t)) <= 1e-6

    def test_theta0_bits_match_the_derivative_ladder(self):
        """Zero amplitudes and phases of -0.0 and 0.0 included."""
        rng = np.random.default_rng(11)
        for r in range(6):
            for d in (1, 2, 3):
                for _ in range(20):
                    freqs = np.sort(rng.uniform(0.1, 12.0, size=r))
                    if r > 1 and np.diff(freqs).min() < 1e-3:
                        continue
                    A = rng.normal(size=(r, d)) * 10.0 ** rng.uniform(-3, 3)
                    ph = rng.uniform(-7, 7, size=(r, d))
                    C0 = rng.normal(size=d)
                    A[rng.random((r, d)) < 0.1] = 0.0
                    ph[rng.random((r, d)) < 0.2] = rng.choice([0.0, -0.0])
                    C0[rng.random(d) < 0.2] = -0.0
                    spec = DisturbanceSpec(d, C0, freqs, A, ph)
                    ref = [derivative_ladder(spec, k) for k in range(2 * r + 1)]
                    theta0 = build_canonical(spec).theta0
                    assert theta0.tobytes() == np.concatenate(ref).tobytes()

    def test_theta0_matches_finite_differences(self):
        spec = DisturbanceSpec(
            d=2,
            C0=np.array([0.3, -0.7]),
            frequencies=[1.7],
            amplitudes=[[0.9, -0.4]],
            phases=[[0.5, 1.1]],
        )
        exo = build_canonical(spec)
        h = 1e-4
        f = lambda t: disturbance_eval(spec, t)
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / h**2
        np.testing.assert_allclose(exo.theta0[2:4], d1, atol=1e-5)
        np.testing.assert_allclose(exo.theta0[4:6], d2, atol=1e-5)
