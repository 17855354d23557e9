import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from kaonbraid.braid import SIGNS, BraidSpec
from kaonbraid.dynamics import (
    envelope,
    evolve_state,
    hamiltonian_at,
    hamiltonian_generator,
    propagator,
    r_vs_hamiltonian_consistency,
    schrodinger_residual,
)
from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.linalg import hermiticity_residual, unitarity_residual
from kaonbraid.states import TwoKaonState

RNG = np.random.default_rng(11)

SPECS = [BraidSpec(s, p) for s in ("plus", "minus") for p in (0.0, 1.0, math.pi / 2)]


def random_state():
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    return v / np.linalg.norm(v)


def rk4_evolve(spec, psi0, t0, t1, n_steps=4000):
    """Fixed-step fourth-order integrator of i dpsi/dt = H(t) psi: independent
    oracle for the closed-form propagator."""
    h = (t1 - t0) / n_steps
    psi = psi0.astype(complex)

    def f(t, y):
        return -1j * (hamiltonian_at(spec, t) @ y)

    t = t0
    for _ in range(n_steps):
        k1 = f(t, psi)
        k2 = f(t + h / 2, psi + h / 2 * k1)
        k3 = f(t + h / 2, psi + h / 2 * k2)
        k4 = f(t + h, psi + h * k3)
        psi = psi + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return psi


class TestHamiltonian:
    def test_generator_hermitian_and_involutive(self):
        for spec in SPECS:
            h0 = hamiltonian_generator(spec)
            assert hermiticity_residual(h0) < 1e-12
            assert np.linalg.norm(h0 @ h0 - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("t", [np.float64(1e200), np.array([1e200])], ids=["number", "array"])
    def test_envelope_overflow_is_quiet(self, t):
        # t² overflows to inf and f(t) is 0, with no numpy warning (an error under pytest)
        assert np.all(envelope(t) == 0.0)

    def test_t1_phi0_matrix(self):
        h = hamiltonian_at(BraidSpec("plus", 0.0), 1.0)
        expected = (1j / 2) * np.array(
            [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex
        )
        assert np.max(np.abs(h - expected)) < 1e-14

    def test_even_in_time(self):
        for spec in SPECS:
            for t in (0.25, 1.0, 10.0):
                assert np.array_equal(
                    hamiltonian_at(spec, t), hamiltonian_at(spec, -t)
                )

    def test_vanishes_at_late_times(self):
        spec = BraidSpec("plus", 1.0)
        h0 = hamiltonian_generator(spec)
        big = hamiltonian_at(spec, 1e3)
        assert np.linalg.norm(big) < 2e-6 * np.linalg.norm(h0)

    def test_hermitian_everywhere(self):
        for spec in SPECS:
            for t in (0.0, 0.5, -0.5, 1.0, -1.0, 10.0):
                assert hermiticity_residual(hamiltonian_at(spec, t)) < 1e-12


class TestPropagator:
    def test_identity_at_equal_times(self):
        for t in (0.0, 1.3, 7.0):
            u = propagator(BraidSpec("plus", 1.0), t, t)
            assert np.linalg.norm(u - np.eye(4)) < 1e-14

    def test_unitary(self):
        for spec in SPECS:
            for t0, t1 in ((0.0, 1.0), (0.5, 3.0), (2.0, 0.1)):
                assert unitarity_residual(propagator(spec, t0, t1)) < 1e-12

    def test_composition_law(self):
        spec = BraidSpec("minus", 1.0)
        for _ in range(10):
            t0, t1, t2 = RNG.uniform(0.0, 5.0, 3)
            composed = propagator(spec, t1, t2) @ propagator(spec, t0, t1)
            assert np.linalg.norm(composed - propagator(spec, t0, t2)) < 1e-12

    def test_asymptotic_rotation_angle(self):
        # arctan(inf) = pi/2: eigenvalues e^{-+ i pi/2} = -+ i
        u = propagator(BraidSpec("plus", 0.0), 0.0, 1e6)
        ev = np.sort(np.angle(np.linalg.eigvals(u)))
        assert np.max(np.abs(np.abs(ev) - math.pi / 2)) < 1e-5

    def test_closed_form_cos_sin(self):
        # independent route: H0^2 = I gives exp(-i a H0) = cos(a) I - i sin(a) H0
        for spec in SPECS:
            h0 = hamiltonian_generator(spec)
            a = math.atan(2.3) - math.atan(0.4)
            expected = math.cos(a) * np.eye(4) - 1j * math.sin(a) * h0
            assert np.linalg.norm(propagator(spec, 0.4, 2.3) - expected) < 1e-12

    @settings(deadline=None)
    @given(
        sign=st.sampled_from(SIGNS),
        phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
        t0=st.floats(-1e6, 1e6),
        t1=st.floats(-1e6, 1e6),
    )
    def test_against_scipy_expm(self, sign, phi, t0, t1):
        # independent oracle: Pade scaling-and-squaring of -i·alpha·H0
        spec = BraidSpec(sign, phi)
        a = math.atan(t1) - math.atan(t0)
        expected = scipy.linalg.expm(-1j * a * hamiltonian_generator(spec))
        assert np.linalg.norm(propagator(spec, t0, t1) - expected) < 1e-12

    def test_rejects_nan_times(self):
        spec = BraidSpec("plus", 1.0)
        for t0, t1 in ((0.0, math.nan), (math.nan, 1.0), (math.nan, math.nan)):
            with pytest.raises(DomainError, match="NaN"):
                propagator(spec, t0, t1)

    def test_infinite_times_are_quarter_turns(self):
        # arctan(+-inf) = +-pi/2, so U(0, inf) = -i·H0 and U(-inf, inf) = -I
        spec = BraidSpec("minus", 0.7)
        h0 = hamiltonian_generator(spec)
        assert np.linalg.norm(propagator(spec, 0.0, math.inf) + 1j * h0) < 1e-15
        assert np.linalg.norm(propagator(spec, -math.inf, math.inf) + np.eye(4)) < 1e-15

    def test_against_rk4_oracle(self):
        spec = BraidSpec("plus", 1.0)
        psi0 = np.array([1, 0, 0, 0], dtype=complex)
        exact = propagator(spec, 0.0, 2.0) @ psi0
        numeric = rk4_evolve(spec, psi0, 0.0, 2.0)
        assert np.linalg.norm(exact - numeric) < 1e-10


class TestEvolveState:
    """A state evolves as U(t0, t1)·ψ = cos α·ψ - sin α·(b - I)·ψ, as `evolve`
    forms it with evolve_state."""

    def test_no_op_at_equal_times(self):
        psi = random_state()
        out = evolve_state(psi, BraidSpec("plus", 0.0), 1.5, 1.5)
        assert np.linalg.norm(out - psi) < 1e-14

    def test_round_trip(self):
        psi = random_state()
        spec = BraidSpec("minus", math.pi / 2)
        there = evolve_state(psi, spec, 0.0, 3.0)
        back = evolve_state(there, spec, 3.0, 0.0)
        assert np.linalg.norm(back - psi) < 1e-12

    def test_kk_to_t1(self):
        # |KK> under (plus, 0), 0 -> 1: cos(pi/4)|KK> - i sin(pi/4) H0|KK>
        spec = BraidSpec("plus", 0.0)
        h0 = hamiltonian_generator(spec)
        e0 = np.array([1, 0, 0, 0], dtype=complex)
        out = evolve_state(e0, spec, 0.0, 1.0)
        expected = math.cos(math.pi / 4) * e0 - 1j * math.sin(math.pi / 4) * (h0 @ e0)
        assert np.linalg.norm(out - expected) < 1e-12

    def test_norm_preserved(self):
        for _ in range(10):
            psi = random_state()
            out = evolve_state(psi, BraidSpec("plus", 1.0), 0.0, 4.2)
            assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_rejects_nan_times(self):
        with pytest.raises(DomainError, match="NaN"):
            evolve_state(random_state(), BraidSpec("plus", 1.0), 0.0, [0.5, math.nan])

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            TwoKaonState([1.0, 1.0, 0.0, 0.0])


class TestSchrodingerResidual:
    def test_small_for_random_states(self):
        for _ in range(5):
            psi = random_state()
            for t in (0.2, 1.0, 5.0):
                assert schrodinger_residual(psi, BraidSpec("plus", 0.0), t)[0] < 1e-6

    def test_eigenvector_phase_evolution(self):
        # eigenvector of H0 with eigenvalue +1 evolves as e^{-i arctan t}
        spec = BraidSpec("plus", 0.0)
        h0 = hamiltonian_generator(spec)
        w, v = np.linalg.eigh(h0)
        vec = v[:, np.argmax(w)]
        assert schrodinger_residual(vec, spec, 1.3)[0] < 1e-8
        evolved = propagator(spec, 0.0, 1.3) @ vec
        phase = np.exp(-1j * math.atan(1.3))
        assert np.linalg.norm(evolved - phase * vec) < 1e-12

    def test_time_reversed_window(self):
        psi = random_state()
        spec = BraidSpec("minus", 1.0)
        fwd = schrodinger_residual(psi, spec, 0.0)
        assert fwd.shape == (1,)
        assert fwd[0] < 1e-6


class TestRVsHamiltonian:
    def test_zero_at_t_zero(self):
        assert r_vs_hamiltonian_consistency(BraidSpec("plus", 0.0), 0.0) < 1e-15

    def test_t1_phi0(self):
        assert r_vs_hamiltonian_consistency(BraidSpec("plus", 0.0), 1.0) < 1e-12

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_grid(self, t):
        for spec in SPECS:
            assert r_vs_hamiltonian_consistency(spec, t) < 1e-11

    @pytest.mark.parametrize("t, shown", [(-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf")])
    @pytest.mark.parametrize("form", ["number", "array"])
    def test_rejects_bad_time(self, t, shown, form):
        arg = t if form == "number" else np.array([1.0, t])
        with pytest.raises(DomainError, match=f"time t must be finite and >= 0, got {shown}"):
            r_vs_hamiltonian_consistency(BraidSpec("plus", 0.0), arg)
