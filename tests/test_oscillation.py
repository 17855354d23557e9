import cmath
import math

import numpy as np
import pytest

from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.oscillation import (
    KaonParams,
    evolve_k,
    oscillation_curve,
    survival_probability,
    transition_probability,
    u_factors,
)

RNG = np.random.default_rng(5)


def random_params():
    gs, gl = RNG.uniform(0.0, 2.0, 2)
    ms, ml = RNG.uniform(-2.0, 2.0, 2)
    return KaonParams(gs, gl, ms, ml)


class TestUFactors:
    def test_t_zero(self):
        assert u_factors(KaonParams(), 0.0) == (1.0, 1.0)

    def test_pure_decay(self):
        p = KaonParams(gamma_s=2.0, gamma_l=0.0, m_s=0.0, m_l=0.0)
        u_s, _ = u_factors(p, 1.0)
        assert u_s == pytest.approx(math.exp(-1.0))

    def test_modulus_nonincreasing(self):
        p = KaonParams()
        mods = [abs(u_factors(p, t)[1]) for t in np.linspace(0.0, 10.0, 30)]
        assert all(a >= b for a, b in zip(mods, mods[1:]))

    def test_rejects_negative_time(self):
        with pytest.raises(DomainError):
            u_factors(KaonParams(), -1.0)

    @pytest.mark.parametrize("kernel", [u_factors, evolve_k])
    def test_rejects_nan_time(self, kernel):
        with pytest.raises(DomainError, match="time t must be finite and >= 0, got nan"):
            kernel(KaonParams(), math.nan)


    def test_overflowing_phase_is_named(self):
        # m_L·t = 1e309 overflows though t is finite; cmath.exp would raise a bare ValueError
        with pytest.raises(DomainError, match=r"m_l\*t overflows: m_l = 10.0, t = 1e\+308"):
            u_factors(KaonParams(m_l=10.0), 1e308)


class TestFlavorEvolution:
    def test_k_at_t_zero(self):
        amps = evolve_k(KaonParams(), 0.0)
        assert amps.c_k == 1.0 and amps.c_kbar == 0.0

    def test_full_flavor_flip(self):
        p = KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=1.0)
        t = math.pi / p.delta_m
        amps = evolve_k(p, t)
        assert abs(amps.c_k) < 1e-12
        assert abs(amps.c_kbar) == pytest.approx(1.0)

    def test_sl_factors(self):
        # U_S, U_L multiply the S and L components of the evolving state
        p = KaonParams()
        t = 1.5
        u_s, u_l = u_factors(p, t)
        assert u_s == cmath.exp(-p.alpha_s * t)
        assert u_l == cmath.exp(-p.alpha_l * t)
        # |K⟩ = (|S⟩ + |L⟩)/√2, and back: c_K = (c_S + c_L)/√2, c_K̄ = (c_S - c_L)/√2
        c_s, c_l = u_s / math.sqrt(2), u_l / math.sqrt(2)
        c_k, c_kbar = (c_s + c_l) / math.sqrt(2), (c_s - c_l) / math.sqrt(2)
        a = evolve_k(p, t)
        assert abs(c_k - a.c_k) < 1e-15 and abs(c_kbar - a.c_kbar) < 1e-15

    def test_long_time_l_dominance(self):
        p = KaonParams(gamma_s=1.0, gamma_l=0.01, m_s=0.0, m_l=0.5)
        u_s, u_l = u_factors(p, 30.0)
        assert abs(u_s / u_l) < 1e-6


class TestTransitionProbability:
    def test_no_flip_at_t_zero(self):
        assert transition_probability(KaonParams(), 0.0, "K", "Kbar") == 0.0

    def test_pure_oscillation(self):
        p = KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=0.474)
        for t in np.linspace(0.0, 30.0, 100):
            expected = math.sin(p.delta_m * t / 2.0) ** 2
            assert transition_probability(p, t, "K", "Kbar") == pytest.approx(
                expected, abs=1e-12
            )

    def test_total_survival(self):
        p = random_params()
        for t in (0.0, 0.5, 2.0, 10.0):
            total = transition_probability(p, t, "K", "K") + transition_probability(
                p, t, "K", "Kbar"
            )
            assert total == pytest.approx(survival_probability(p, t), abs=1e-12)
            assert total <= 1.0 + 1e-12

    def test_flavor_symmetry_exact(self):
        p = random_params()
        for t in (0.3, 1.7, 8.0):
            assert transition_probability(p, t, "K", "Kbar") == transition_probability(
                p, t, "Kbar", "K"
            )

    def test_zero_mixing_limit(self):
        p = KaonParams(gamma_s=1.0, gamma_l=0.2, m_s=0.3, m_l=0.3)
        for t in (0.5, 2.0):
            expected = (math.exp(-p.gamma_s * t / 2) - math.exp(-p.gamma_l * t / 2)) ** 2 / 4
            assert transition_probability(p, t, "K", "Kbar") == pytest.approx(expected, abs=1e-12)

    def test_matches_amplitude_route(self):
        # independent route: squared moduli from evolve_k
        for _ in range(50):
            p = random_params()
            t = float(RNG.uniform(0.0, 5.0))
            amps = evolve_k(p, t)
            assert transition_probability(p, t, "K", "K") == pytest.approx(
                abs(amps.c_k) ** 2, abs=1e-12
            )
            assert transition_probability(p, t, "K", "Kbar") == pytest.approx(
                abs(amps.c_kbar) ** 2, abs=1e-12
            )

    @pytest.mark.parametrize("t", [math.nan, np.array([0.5, math.nan])], ids=["number", "array"])
    def test_rejects_nan_time(self, t):
        for frm, to in (("K", "K"), ("K", "Kbar")):
            with pytest.raises(DomainError, match="time t must be finite and >= 0, got nan"):
                transition_probability(KaonParams(), t, frm, to)

    @pytest.mark.parametrize("t", [math.inf, np.array([0.5, math.inf])], ids=["number", "array"])
    def test_rejects_infinite_time(self, t):
        with pytest.raises(DomainError, match="time t must be finite and >= 0, got inf"):
            transition_probability(KaonParams(), t, "K", "K")
        with pytest.raises(DomainError, match="time t must be finite and >= 0, got inf"):
            survival_probability(KaonParams(), t)

    def test_extreme_rates_stay_quiet(self):
        # γ·t overflows: e^{-γt} is 0 with no numpy warning, as with Python floats
        p = KaonParams(gamma_s=1e300)
        assert transition_probability(p, np.array([0.0, 1e10]), "K", "K")[1] == 0.0

    @pytest.mark.parametrize("t", [1e308, np.array([0.5, 1e308])], ids=["number", "array"])
    def test_overflowing_phase_is_named(self, t):
        # Δm·t = 1e309 overflows though t is finite; math.cos would raise a bare ValueError
        for frm, to in (("K", "K"), ("K", "Kbar")):
            with pytest.raises(DomainError,
                               match=r"delta_m\*t overflows: delta_m = 10.0, t = 1e\+308"):
                transition_probability(KaonParams(m_l=10.0), t, frm, to)

    def test_rejects_bad_flavor(self):
        with pytest.raises(ValidationError):
            transition_probability(KaonParams(), 1.0, "K", "B")


class TestOscillationCurve:
    def test_two_steps(self):
        rows = oscillation_curve(KaonParams(), 5.0, 2)
        assert len(rows) == 2
        assert rows[0][0] == 0.0 and rows[1][0] == 5.0

    def test_asymmetry_starts_at_one(self):
        rows = oscillation_curve(KaonParams(), 5.0, 10)
        assert rows[0][3] == 1.0

    def test_pure_oscillation_asymmetry_is_cosine(self):
        p = KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=0.474)
        for t, _, _, asym in oscillation_curve(p, 12.0, 50):
            assert asym == pytest.approx(math.cos(p.delta_m * t), abs=1e-12)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValidationError):
            oscillation_curve(KaonParams(), 5.0, 1)
        with pytest.raises(ValidationError):
            oscillation_curve(KaonParams(), -1.0, 10)

    def test_asymmetry_is_ratio_of_probabilities(self):
        for _ in range(10):
            p = random_params()
            for t, p_same, p_flip, asym in oscillation_curve(p, 20.0, 40):
                assert asym == pytest.approx((p_same - p_flip) / (p_same + p_flip), abs=1e-12)

    @pytest.mark.parametrize("params, t_max", [
        (KaonParams(gamma_l=1.0), 2000.0),  # both probabilities underflow to 0
        (KaonParams(), 5000.0),  # the ratio loses relative precision; cosh overflows
    ])
    def test_asymmetry_finite_at_long_times(self, params, t_max):
        for t, _, _, asym in oscillation_curve(params, t_max, 200):
            d = (params.gamma_s - params.gamma_l) * t / 2.0
            sech = math.exp(math.log(2.0) - abs(d) - math.log1p(math.exp(-2.0 * abs(d))))
            expected = math.cos(params.delta_m * t) * sech
            assert math.isfinite(asym)
            assert asym == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_rejects_overflowing_phase(self):
        with pytest.raises(ValidationError, match="delta_m"):
            oscillation_curve(KaonParams(m_l=1e300), 1e10, 3)


def test_params_validation():
    with pytest.raises(ValidationError):
        KaonParams(gamma_s=-1.0)
    with pytest.raises(ValidationError):
        KaonParams(m_l=math.nan)
