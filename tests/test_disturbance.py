import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from bearing_forge.disturbance import build_canonical
from bearing_forge.errors import ValidationError
from bearing_forge.scenario import _disturbance

from conftest import disturbance, stacked


def spec_1d(C0=0.0, terms=()):
    """Disturbance on R^1 from (frequency, amplitude, phase) triples."""
    w, A, ph = np.reshape(terms, (-1, 3)).T
    return disturbance([C0], w, A[:, None], ph[:, None])


def parse(terms, d=1):
    """The parser's reading of a disturbance entry with the given
    (frequency, amplitude, phase) terms, the same on every axis."""
    sinusoids = [
        {"frequency": w, "amplitudes": [a] * d, "phases": [ph] * d} for w, a, ph in terms
    ]
    return _disturbance({"sinusoids": sinusoids}, "disturbances[3]", d)


class TestMinPoly:
    """The companion matrix Phi that build_canonical makes has the last row
    -[a_m, ..., a_1] of the minimal polynomial
    s^m + a_1 s^(m-1) + ... + a_m = s prod_j (s^2 + w_j^2), m = 2r + 1."""

    def test_constant(self):
        np.testing.assert_allclose(canonical(spec_1d(C0=1.0))[0], [[0.0]])

    def test_single_frequency(self):
        # lambda (lambda^2 + 4) = lambda^3 + 4 lambda
        Phi = canonical(spec_1d(terms=[(2.0, 1.0, 0.0)]))[0]
        np.testing.assert_allclose(Phi[-1], [0.0, -4.0, 0.0])

    def test_two_frequencies(self):
        # lambda (lambda^2 + 1)(lambda^2 + 4) = lambda^5 + 5 lambda^3 + 4 lambda
        Phi = canonical(spec_1d(terms=[(1.0, 1.0, 0.0), (2.0, 1.0, 0.0)]))[0]
        np.testing.assert_allclose(Phi[-1], [0.0, -4.0, 0.0, -5.0, 0.0])

    def test_odd_polynomial(self):
        rng = np.random.default_rng(3)
        freqs = np.sort(rng.uniform(0.1, 10.0, size=3))
        Phi = canonical(spec_1d(terms=[(w, 1.0, 0.0) for w in freqs]))[0]
        # even powers of the full polynomial carry zero coefficients
        np.testing.assert_allclose(Phi[-1, ::2], 0.0, atol=1e-12)

    # the frequencies that the build takes are the parser's, checked there
    def test_duplicate_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse([(1.0, 1.0, 0.0), (1.0, 1.0, 0.0)])
        assert str(info.value) == (
            "disturbances[3]: DuplicateFrequency: frequencies 1.0 and 1.0 closer than 1e-09"
        )

    def test_nonpositive_rejected(self):
        with pytest.raises(ValidationError) as info:
            parse([(-2.0, 1.0, 0.0)])
        assert str(info.value) == (
            "disturbances[3]: NonPositiveFrequency: frequency -2.0 must be positive"
        )


class TestSpecShapes:
    """The parser returns C0 (d,), w (r,), and A and ph (r, d)."""

    def test_no_terms(self):
        C0, w, A, ph = parse([], d=3)
        assert C0.shape == (3,) and w.shape == (0,)
        assert A.shape == ph.shape == (0, 3)


class TestDisturbanceEval:
    """The signal of the canonical exosystem, the first entry of
    exp(Phi t) theta0, at hand-computed values of d(t)."""

    @staticmethod
    def signal(spec, t):
        Phi, theta0 = canonical(spec)
        d = len(spec[0])
        return (np.kron(expm(Phi * t), np.eye(d)) @ theta0)[:d]

    def test_constant(self):
        spec = disturbance([3.0, -1.0])
        np.testing.assert_allclose(self.signal(spec, 17.3), [3.0, -1.0])

    def test_exact_sine(self):
        spec = spec_1d(terms=[(np.pi, 2.0, 0.0)])
        np.testing.assert_allclose(self.signal(spec, 0.5), [2.0])

    def test_phase_offset(self):
        spec = spec_1d(C0=1.0, terms=[(1.0, 1.0, np.pi / 2)])
        np.testing.assert_allclose(self.signal(spec, 0.0), [2.0])


def derivative_ladder(spec, k):
    """d^(k)(0) of the disturbance (C0, w, A, ph) summed term after term,
    the constant first: the reference that the closed-form theta0 must
    match bit for bit."""
    C0, freqs, amps, phases = spec
    out = C0.copy() if k == 0 else np.zeros(len(C0))
    for w, A, ph in zip(freqs, amps, phases):
        if k == 0:
            out += A * np.sin(w * 0.0 + ph)
        else:
            out += A * np.power(w, k) * np.sin(w * 0.0 + ph + k * np.pi / 2.0)
    return out


def canonical(spec):
    """Phi (m, m) and the flat theta0 (m d,) of one disturbance, from a
    build of a stack of one."""
    Phi, theta0, faults = build_canonical(*stacked([spec]))
    assert faults == {}
    return Phi[0], theta0[0].ravel()


class TestBuildCanonical:
    def test_constant_realization(self):
        spec = disturbance([3.0, -1.0])
        Phi, theta0 = canonical(spec)
        np.testing.assert_allclose(Phi, [[0.0]])
        np.testing.assert_allclose(theta0, [3.0, -1.0])

    def test_sine_derivative_ladder(self):
        spec = spec_1d(terms=[(1.0, 1.0, 0.0)])
        Phi, theta0 = canonical(spec)
        np.testing.assert_allclose(theta0, [0.0, 1.0, 0.0], atol=1e-15)

    def test_companion_char_poly(self):
        freqs = [0.7, 2.3, 4.1]
        spec = spec_1d(0.5, [(w, 1.0, 0.2 * k) for k, w in enumerate(freqs)])
        Phi, theta0 = canonical(spec)
        char = np.poly(Phi)
        roots = np.concatenate([[0.0], 1j * np.array(freqs), -1j * np.array(freqs)])
        np.testing.assert_allclose(char, np.poly(roots).real, atol=1e-9)

    def test_phi_spectrum_neutrally_stable(self):
        freqs = [1.3, 2.9]
        spec = spec_1d(1.0, [(w, 1.0, 0.0) for w in freqs])
        Phi, theta0 = canonical(spec)
        eig = np.linalg.eigvals(Phi)
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
            C0, w, amps, phases = spec = disturbance(
                rng.uniform(-1, 1, size=d),
                freqs,
                rng.uniform(-1, 1, size=(r, d)),
                rng.uniform(-np.pi, np.pi, size=(r, d)),
            )
            Phi, theta0 = canonical(spec)
            A = np.kron(Phi, np.eye(d))
            sol = solve_ivp(
                lambda t, y: A @ y,
                (0.0, 2.0),
                theta0,
                t_eval=[0.5, 1.0, 2.0],
                rtol=1e-10,
                atol=1e-12,
            )
            for t, col in zip(sol.t, sol.y.T):
                recon = col[:d]  # (Psi kron I_d) theta picks the first block
                sines = amps * np.sin(w[:, None] * t + phases)
                assert np.linalg.norm(recon - (C0 + sines.sum(axis=0))) <= 1e-6

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
                    spec = disturbance(C0, freqs, A, ph)
                    ref = [derivative_ladder(spec, k) for k in range(2 * r + 1)]
                    theta0 = canonical(spec)[1]
                    assert theta0.tobytes() == np.concatenate(ref).tobytes()

    def test_theta0_matches_finite_differences(self):
        C0, _, A, ph = spec = disturbance([0.3, -0.7], [1.7], [[0.9, -0.4]], [[0.5, 1.1]])
        Phi, theta0 = canonical(spec)
        h = 1e-4
        f = lambda t: C0 + (A * np.sin(1.7 * t + ph))[0]
        d1 = (f(h) - f(-h)) / (2 * h)
        d2 = (f(h) - 2 * f(0.0) + f(-h)) / h**2
        np.testing.assert_allclose(theta0[2:4], d1, atol=1e-5)
        np.testing.assert_allclose(theta0[4:6], d2, atol=1e-5)
