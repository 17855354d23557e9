import cmath
import math

import numpy as np
import pytest

from kaonbraid import oscillation
from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.oscillation import (
    FLAVORS,
    KaonParams,
    evolve_k,
    oscillation_curve,
    survival_probability,
    transition_probability,
    u_factors,
)

RNG = np.random.default_rng(5)


def grid(t_max, steps):
    """steps evenly spaced times from 0 to t_max, as oscillate builds them."""
    return t_max * np.arange(steps) / (steps - 1)


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
        assert u_s == cmath.exp(-(p.gamma_s / 2.0 + 1j * p.m_s) * t)
        assert u_l == cmath.exp(-(p.gamma_l / 2.0 + 1j * p.m_l) * t)
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
        rows = oscillation_curve(KaonParams(), grid(5.0, 2))
        assert len(rows) == 2
        assert rows[0][0] == 0.0 and rows[1][0] == 5.0

    def test_asymmetry_starts_at_one(self):
        rows = oscillation_curve(KaonParams(), grid(5.0, 10))
        assert rows[0][3] == 1.0

    def test_pure_oscillation_asymmetry_is_cosine(self):
        p = KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=0.474)
        for t, _, _, asym in oscillation_curve(p, grid(12.0, 50)):
            assert asym == pytest.approx(math.cos(p.delta_m * t), abs=1e-12)

    def test_rejects_bad_grid(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(DomainError, match="time t must be finite and >= 0"):
                oscillation_curve(KaonParams(), np.array([0.0, bad, 5.0]))

    def test_asymmetry_is_ratio_of_probabilities(self):
        for _ in range(10):
            p = random_params()
            for t, p_same, p_flip, asym in oscillation_curve(p, grid(20.0, 40)):
                assert asym == pytest.approx((p_same - p_flip) / (p_same + p_flip), abs=1e-12)

    @pytest.mark.parametrize("params, t_max", [
        (KaonParams(gamma_l=1.0), 2000.0),  # both probabilities underflow to 0
        (KaonParams(), 5000.0),  # the ratio loses relative precision; cosh overflows
    ])
    def test_asymmetry_finite_at_long_times(self, params, t_max):
        for t, _, _, asym in oscillation_curve(params, grid(t_max, 200)):
            d = (params.gamma_s - params.gamma_l) * t / 2.0
            sech = math.exp(math.log(2.0) - abs(d) - math.log1p(math.exp(-2.0 * abs(d))))
            expected = math.cos(params.delta_m * t) * sech
            assert math.isfinite(asym)
            assert asym == pytest.approx(expected, rel=1e-12, abs=1e-300)

    def test_rejects_overflowing_phase(self):
        # rejected before the asymmetry, where math.cos(inf) would raise ValueError
        with pytest.raises(DomainError, match=r"delta_m\*t overflows: delta_m = 1e\+300"):
            oscillation_curve(KaonParams(m_l=1e300), grid(1e10, 3))

    def test_rejects_a_parameter_stack(self):
        with pytest.raises(ValidationError, match="one parameter set"):
            oscillation_curve(KaonParams(m_l=np.array([0.4, 0.5])), grid(12.0, 10))


def test_params_validation():
    with pytest.raises(ValidationError):
        KaonParams(gamma_s=-1.0)
    with pytest.raises(ValidationError):
        KaonParams(m_l=math.nan)


class TestParameterStacks:
    def test_number_fields_stay_as_given(self):
        p = KaonParams(1.0, 0.5, 0.0, 0.474)
        assert all(type(v) is float for v in (p.gamma_s, p.gamma_l, p.m_s, p.m_l))

    def test_array_fields_broadcast_against_t(self):
        p = KaonParams(gamma_s=np.array([1.0, 2.0]), m_l=[0.4, 0.5])
        amps = evolve_k(p, np.array([1.0, 2.0]))
        assert amps.c_k.shape == amps.c_kbar.shape == (2,)
        assert transition_probability(p, 1.5, "K", "K").shape == (2,)
        assert transition_probability(p, np.array([[1.0], [2.0]]), "K", FLAVORS).shape == (2, 2, 2)

    @pytest.mark.parametrize("name, value, rule", [
        ("gamma_s", math.nan, "finite and >= 0"),
        ("gamma_l", -2.0, "finite and >= 0"),
        ("gamma_l", math.inf, "finite and >= 0"),
        ("m_s", math.inf, "finite"),
        ("m_l", math.nan, "finite"),
    ])
    def test_bad_element_is_named(self, name, value, rule):
        with pytest.raises(ValidationError, match=f"{name} must be {rule}, got {value!r}"):
            KaonParams(**{name: np.array([0.5, value, 1.0])})

    def test_overflowing_phase_names_the_broadcast_t(self):
        # m_L·t overflows only at (m_L = 10, t = 1e308), flat index 3 of the
        # broadcast (2, 2) phase: t itself has two elements
        p = KaonParams(m_l=np.array([[1.0], [10.0]]))
        t = np.array([1.0, 1e308])
        with pytest.raises(DomainError, match=r"m_l\*t overflows: m_l = 10.0, t = 1e\+308"):
            u_factors(p, t)
        with pytest.raises(DomainError,
                           match=r"delta_m\*t overflows: delta_m = 10.0, t = 1e\+308"):
            transition_probability(p, t, "K", FLAVORS)


class TestFlavorStack:
    def test_columns_follow_the_flavors(self):
        p, t = KaonParams(), np.linspace(0.0, 10.0, 7)
        for frm in FLAVORS:
            stacked = transition_probability(p, t, frm, ("Kbar", "K", "Kbar"))
            assert stacked.shape == (7, 3)
            for j, to in enumerate(("Kbar", "K", "Kbar")):
                assert np.array_equal(stacked[:, j], transition_probability(p, t, frm, to))

    def test_number_t_gives_one_row(self):
        stacked = transition_probability(KaonParams(), 2.0, "K", FLAVORS)
        assert stacked.shape == (2,)
        assert stacked.tolist() == [transition_probability(KaonParams(), 2.0, "K", to)
                                    for to in FLAVORS]

    @pytest.mark.parametrize("to", [(), ("K", "B")])
    def test_rejects_bad_sequences(self, to):
        with pytest.raises(ValidationError):
            transition_probability(KaonParams(), 1.0, "K", to)


class TestPassCounts:
    """Each exponential takes one pass over the whole array in C: exp, cos and
    sin one linalg.cexp call, expm1 one linalg.expm1 call.  The curve and the
    oscillation check share them across flavors and parameter sets instead
    of repeating them."""

    @staticmethod
    def counted(monkeypatch, name):
        calls = []
        real = getattr(oscillation, name)

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(oscillation, name, spy)
        return calls

    def test_u_factors(self, monkeypatch):
        passes = self.counted(monkeypatch, "expm1")
        exps = self.counted(monkeypatch, "cexp")
        u_factors(KaonParams(), grid(12.0, 100))
        assert len(exps) == 2 and passes == []

    def test_curve(self, monkeypatch):
        passes = self.counted(monkeypatch, "expm1")
        exps = self.counted(monkeypatch, "cexp")
        transitions = self.counted(monkeypatch, "transition_probability")
        oscillation_curve(KaonParams(), grid(12.0, 12000))
        # a, E and w for both flavors, then the asymmetry's z; no per-element
        # math pass is left in the module
        assert len(passes) == 1
        assert len(exps) == 3
        assert len(transitions) == 1
        assert not hasattr(oscillation, "elementwise")

    def test_check_oscillation(self, monkeypatch):
        from kaonbraid.verify import check_oscillation

        passes = self.counted(monkeypatch, "expm1")
        exps = self.counted(monkeypatch, "cexp")
        check_oscillation(0)
        # one flavor stack of both parameter sets (2 cexp + 1 expm1),
        # flip_back (2 + 1), survival (2) and the stacked draws: u_factors (2)
        # and one flavor stack (2 + 1)
        assert (len(exps), len(passes)) == (10, 3)
