import cmath
import math

import numpy as np
import pytest

from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.oscillation import (
    KaonParams,
    evolve_k,
    evolve_kbar,
    oscillation_curve,
    sl_basis,
    survival_probability,
    transition_probability,
    u_factors,
)

RNG = np.random.default_rng(5)


def random_params():
    gs, gl = RNG.uniform(0.0, 2.0, 2)
    ms, ml = RNG.uniform(-2.0, 2.0, 2)
    return KaonParams(gs, gl, ms, ml)


class TestSlBasis:
    def test_k_maps_to_equal_mixture(self):
        c_s, c_l = sl_basis(1.0, 0.0)
        assert c_s == pytest.approx(1 / math.sqrt(2))
        assert c_l == pytest.approx(1 / math.sqrt(2))

    def test_involution(self):
        c_s, c_l = sl_basis(1 / math.sqrt(2), 1 / math.sqrt(2))
        assert c_s == pytest.approx(1.0) and c_l == pytest.approx(0.0, abs=1e-15)
        for _ in range(20):
            ck, ckb = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            back = sl_basis(*sl_basis(ck, ckb))
            assert abs(back[0] - ck) < 1e-12 and abs(back[1] - ckb) < 1e-12

    def test_norm_preserved(self):
        for _ in range(20):
            ck, ckb = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            c_s, c_l = sl_basis(ck, ckb)
            assert abs(abs(c_s) ** 2 + abs(c_l) ** 2 - abs(ck) ** 2 - abs(ckb) ** 2) < 1e-12


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

    def test_kbar_mirrors_k(self):
        p = random_params()
        for t in (0.0, 0.7, 3.0):
            a, b = evolve_k(p, t), evolve_kbar(p, t)
            assert a.c_k == b.c_kbar and a.c_kbar == b.c_k

    def test_sl_factors(self):
        # U_S, U_L multiply the S and L components of the evolving state
        p = KaonParams()
        t = 1.5
        u_s, u_l = u_factors(p, t)
        assert u_s == cmath.exp(-p.alpha_s * t)
        assert u_l == cmath.exp(-p.alpha_l * t)
        s0, l0 = sl_basis(1.0, 0.0)
        c_k, c_kbar = sl_basis(u_s * s0, u_l * l0)
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


def test_params_validation():
    with pytest.raises(ValidationError):
        KaonParams(gamma_s=-1.0)
    with pytest.raises(ValidationError):
        KaonParams(m_l=math.nan)
