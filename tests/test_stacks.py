"""Stacked kernels against their single-point calls.

A stack of N states, spectral parameters, times or phases must give, row by
row and bit for bit (compared with ==), what N single-point calls give, and
the single-point calls must give what the per-row formulas the library used
before (np.kron, np.vdot, np.linalg.norm, math's angles, exponentials and
cosines, complex scalar arithmetic) give.  The stack validator must reject a
stack in which one row is bad.  The algebra's own laws (QYBE, the braid
relation, the propagator's group law, P_same + P_flip = survival) are
checked over generated inputs to a tolerance.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaonbraid import dynamics
from kaonbraid.braid import (
    SIGNS,
    BraidSpec,
    braid_matrix,
    check_braid_relation,
    check_qybe,
    rho_check,
    rho_printed_formula,
    unitary_braid,
    unitary_r,
    yang_baxterize,
)
from kaonbraid.dynamics import (
    envelope,
    hamiltonian_at,
    hamiltonian_generator,
    propagator,
    r_vs_hamiltonian_consistency,
    schrodinger_residual,
)
from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.linalg import frobenius, tensor_product, unitarity_residual
from kaonbraid.oscillation import (
    FLAVORS,
    KaonParams,
    oscillation_curve,
    survival_probability,
    transition_probability,
)
from kaonbraid.states import (
    TwoKaonState,
    concurrence,
    correlation,
    deformed_bell,
    is_separable,
    schmidt_coefficients,
    state_stack,
)
from kaonbraid.verify import check_schrodinger, separability_states

UNIT = st.floats(-1.0, 1.0)
ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
SPECTRAL = st.floats(0.0, 10.0)
TIME = st.floats(-1e3, 1e3) | st.sampled_from([math.inf, -math.inf])
RATE = st.floats(0.0, 10.0)
MASS = st.floats(-10.0, 10.0)
SCHRODINGER_T = (0.2, 0.5, 1.0, 2.0, 5.0)
SCHRODINGER_SPECS = (BraidSpec("plus", 0.0), BraidSpec("minus", 1.0))
_I2 = np.eye(2, dtype=complex)


@st.composite
def state_stacks(draw):
    """(N, 4) unit amplitude rows, N in 1..50; rows with no weight become |KK⟩."""
    n = draw(st.integers(1, 50))
    raw = draw(hnp.arrays(float, (n, 8), elements=UNIT))
    a = raw[:, 0::2] + 1j * raw[:, 1::2]
    norms = np.linalg.norm(a, axis=1)
    a[norms < 1e-3] = [1, 0, 0, 0]
    return a / np.linalg.norm(a, axis=1)[:, None]


@st.composite
def hermitian_2x2(draw):
    d0, d1, re, im = (draw(st.floats(-3.0, 3.0)) for _ in range(4))
    return np.array([[d0, complex(re, im)], [complex(re, -im), d1]])


def local_unitary(alpha, beta, gamma, theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.exp(1j * alpha) * np.array([
        [np.exp(1j * beta) * c, np.exp(1j * gamma) * s],
        [-np.exp(-1j * gamma) * s, np.exp(-1j * beta) * c],
    ])


def spectral_values(min_value):
    return hnp.arrays(float, st.integers(1, 50), elements=st.floats(min_value, 1e3))


def complex_stacks(n, d):
    return hnp.arrays(complex, (n, d, d), elements=st.complex_numbers(max_magnitude=1e3))


def qybe_reference(spec, x, y):
    """The per-point QYBE residual as the library formed it before stacks."""
    def r1(z):
        return np.kron(yang_baxterize(spec, z), _I2)

    def r2(z):
        return np.kron(_I2, yang_baxterize(spec, z))

    return float(np.linalg.norm(r1(x) @ r2(x * y) @ r1(y) - r2(y) @ r1(x * y) @ r2(x)))


def propagator_reference(spec, t0, t1):
    """The per-point propagator as the library formed it before stacks."""
    angle = math.atan(t1) - math.atan(t0)
    return math.cos(angle) * np.eye(4) - 1j * math.sin(angle) * hamiltonian_generator(spec)


def separability_reference(rng, n):
    """The per-row draws check_separability made before stacks."""
    psi = np.empty((n, 4), dtype=complex)
    for i in range(n):
        if i % 2 == 0:
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi[i] = np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v)).reshape(4)
        else:
            amp = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi[i] = amp / np.linalg.norm(amp)
    return psi


def transition_reference(params, t, frm, to):
    """The per-point closed form transition_probability evaluated before it took arrays."""
    es = math.exp(-params.gamma_s * t)
    el = math.exp(-params.gamma_l * t)
    cross = 2.0 * math.exp(-(params.gamma_s + params.gamma_l) * t / 2.0) * math.cos(
        params.delta_m * t
    )
    return (es + el + cross) / 4.0 if frm == to else (es + el - cross) / 4.0


def oscillation_curve_reference(params, t_max, steps):
    """The per-row table oscillation_curve built before it took arrays."""
    dm, half_dgamma = params.delta_m, abs(params.gamma_s - params.gamma_l) / 2.0
    rows = []
    for i in range(steps):
        t = t_max * i / (steps - 1)
        p_same = transition_reference(params, t, "K", "K")
        p_flip = transition_reference(params, t, "K", "Kbar")
        e = math.exp(-half_dgamma * t)
        asym = math.cos(dm * t) * (2.0 * e / (1.0 + e * e))
        rows.append((t, p_same, p_flip, asym))
    return rows


def schrodinger_reference(state0, spec, t, dt):
    """The per-point Schrödinger residual as schrodinger_residual formed it
    before it took stacks."""
    ahead, behind, now = propagator(spec, 0.0, [t + dt, t - dt, t]) @ state0.vector
    deriv = 1j * (ahead - behind) / (2.0 * dt)
    h = envelope(t) * hamiltonian_generator(spec)
    return float(np.linalg.norm(deriv - h @ now))


def r_vs_hamiltonian_reference(spec, t):
    """The per-point consistency residual, from one two-row unitary_r call."""
    r_t, r_0 = unitary_r(spec, [t, 0.0])
    return float(np.linalg.norm(r_t @ r_0.conj().T - propagator(spec, 0.0, t)))


def random_states_reference(rng, n):
    """The per-state draws check_schrodinger made before stacks (the deleted
    verify.random_states)."""
    out = []
    for _ in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out.append(TwoKaonState(v / np.linalg.norm(v)))
    return out


@st.composite
def kaon_params(draw):
    return KaonParams(draw(RATE), draw(RATE), draw(MASS), draw(MASS))


class TestStackEqualsRows:
    @settings(deadline=None)
    @given(psi=state_stacks())
    def test_concurrence(self, psi):
        stacked = concurrence(psi)
        for row, value in zip(psi, stacked):
            single = TwoKaonState(row)
            a0, a1, a2, a3 = single.amplitudes
            assert value == concurrence(single) == min(1.0, 2.0 * abs(a0 * a3 - a1 * a2))

    @settings(deadline=None)
    @given(psi=state_stacks())
    def test_schmidt_coefficients_and_is_separable(self, psi):
        stacked, separable = schmidt_coefficients(psi), is_separable(psi, 1e-8)
        for row, s, sep in zip(psi, stacked, separable):
            single = TwoKaonState(row)
            reference = np.linalg.svd(row.reshape(2, 2), compute_uv=False)
            assert np.array_equal(s, schmidt_coefficients(single))
            assert np.array_equal(s, reference)
            assert sep == is_separable(single, 1e-8)

    @settings(deadline=None)
    @given(psi=state_stacks(), op_a=hermitian_2x2(), op_b=hermitian_2x2())
    def test_correlation(self, psi, op_a, op_b):
        stacked = correlation(psi, op_a, op_b)
        for row, value in zip(psi, stacked):
            reference = complex(np.vdot(row, np.kron(op_a, op_b) @ row)).real
            assert value == correlation(TwoKaonState(row), op_a, op_b) == reference

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, t=spectral_values(1e-3))
    def test_rho_check(self, sign, phi, t):
        spec = BraidSpec(sign, phi)
        ok, scalar, residual = rho_check(spec, t)
        printed = rho_printed_formula(spec, t)
        for i, ti in enumerate(t.tolist()):
            rho = yang_baxterize(spec, ti) @ yang_baxterize(spec, 1.0 / ti)
            reference = complex(np.trace(rho)) / 4.0
            assert rho_check(spec, ti) == (ok[i], scalar[i], residual[i])
            assert scalar[i] == reference
            assert residual[i] == float(np.linalg.norm(rho - reference * np.eye(4)))
            assert printed[i] == rho_printed_formula(spec, ti)

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, x=spectral_values(0.0))
    def test_yang_baxterize(self, sign, phi, x):
        spec = BraidSpec(sign, phi)
        stacked = yang_baxterize(spec, x)
        for xi, r in zip(x.tolist(), stacked):
            b = braid_matrix(spec)
            assert np.array_equal(r, yang_baxterize(spec, xi))
            assert np.array_equal(r, b + xi * b.conj().T)

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS),
           phi=hnp.arrays(float, st.integers(1, 50), elements=ANGLE))
    def test_braid_matrices_and_deformed_states_over_phi(self, sign, phi):
        specs = [BraidSpec(sign, p) for p in phi.tolist()]
        for stack, single in ((braid_matrix, braid_matrix), (unitary_braid, unitary_braid)):
            assert np.array_equal(stack(BraidSpec(sign, phi)), [single(s) for s in specs])
        q = [s.q for s in specs]
        assert np.array_equal(braid_matrix(BraidSpec(sign, phi))[:, 3, 0], [-1 / z for z in q])
        assert np.array_equal(deformed_bell(phi), [deformed_bell(p).vector for p in phi.tolist()])

    @settings(deadline=None)
    @given(m=hnp.arrays(complex, st.tuples(st.integers(1, 20), st.sampled_from([2, 4, 8]))
                        .map(lambda s: (s[0], s[1], s[1])),
                        elements=st.complex_numbers(max_magnitude=1e3)))
    def test_frobenius(self, m):
        assert np.array_equal(frobenius(m), [float(np.linalg.norm(x)) for x in m])

    @settings(deadline=None)
    @given(data=st.data(), n=st.integers(1, 20), dims=st.sampled_from([(2, 2), (2, 4), (4, 2)]))
    def test_tensor_product(self, data, n, dims):
        a, b = (data.draw(complex_stacks(n, d)) for d in dims)
        stacked = tensor_product(a, b)
        left, right = tensor_product(a, b[0]), tensor_product(a[0], b)
        for i in range(n):
            reference = np.kron(a[i], b[i])
            assert np.array_equal(stacked[i], reference)
            assert np.array_equal(tensor_product(a[i], b[i]), reference)
            assert np.array_equal(left[i], np.kron(a[i], b[0]))
            assert np.array_equal(right[i], np.kron(a[0], b[i]))

    @settings(deadline=None)
    @given(data=st.data(), n=st.integers(1, 20), d=st.sampled_from([2, 4, 8]))
    def test_unitarity_residual(self, data, n, d):
        m = data.draw(complex_stacks(n, d))
        stacked = unitarity_residual(m)
        for row, value in zip(m, stacked):
            reference = float(np.linalg.norm(row @ row.conj().T - np.eye(d)))
            assert value == unitarity_residual(row) == reference

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE,
           xy=hnp.arrays(float, st.tuples(st.integers(1, 30), st.just(2)), elements=SPECTRAL))
    def test_check_qybe(self, sign, phi, xy):
        spec = BraidSpec(sign, phi)
        stacked = check_qybe(spec, xy[:, 0], xy[:, 1])
        for (x, y), value in zip(xy.tolist(), stacked):
            assert value == check_qybe(spec, x, y) == qybe_reference(spec, x, y)

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS),
           x=hnp.arrays(float, st.integers(1, 8), elements=st.floats(0.0, 1e3)),
           phi=hnp.arrays(float, st.integers(1, 8), elements=ANGLE))
    def test_unitary_r_grid(self, sign, x, phi):
        grid = unitary_r(BraidSpec(sign, phi), x[:, None])
        assert grid.shape == (len(x), len(phi), 4, 4)
        for i, xi in enumerate(x.tolist()):
            theta = math.atan(xi)
            for j, pj in enumerate(phi.tolist()):
                bt = unitary_braid(BraidSpec(sign, pj))
                reference = math.cos(theta) * bt + math.sin(theta) * bt.conj().T
                assert np.array_equal(grid[i, j], unitary_r(BraidSpec(sign, pj), xi))
                assert np.array_equal(grid[i, j], reference)

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, t0=TIME,
           t1=hnp.arrays(float, st.integers(1, 50), elements=TIME))
    def test_propagator(self, sign, phi, t0, t1):
        spec = BraidSpec(sign, phi)
        stacked = propagator(spec, t0, t1)
        for ti, u in zip(t1.tolist(), stacked):
            assert np.array_equal(u, propagator(spec, t0, ti))
            assert np.array_equal(u, propagator_reference(spec, t0, ti))

    @settings(deadline=None)
    @given(params=kaon_params(),
           t=hnp.arrays(float, st.integers(1, 50), elements=st.floats(0.0, 1e3)))
    def test_transition_and_survival_probability(self, params, t):
        for frm in FLAVORS:
            for to in FLAVORS:
                stacked = transition_probability(params, t, frm, to)
                for ti, p in zip(t.tolist(), stacked):
                    single = transition_probability(params, ti, frm, to)
                    assert p == single == transition_reference(params, ti, frm, to)
        survival = survival_probability(params, t)
        for ti, s in zip(t.tolist(), survival):
            reference = (math.exp(-params.gamma_s * ti) + math.exp(-params.gamma_l * ti)) / 2.0
            assert s == survival_probability(params, ti) == reference

    @settings(deadline=None)
    @given(params=kaon_params(), t_max=st.floats(1e-3, 100.0), steps=st.integers(2, 300))
    def test_oscillation_curve(self, params, t_max, steps):
        curve = oscillation_curve(params, t_max, steps)
        assert curve.shape == (steps, 4)
        assert np.array_equal(curve, oscillation_curve_reference(params, t_max, steps))

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, psi=state_stacks(),
           t=hnp.arrays(float, st.integers(1, 8), elements=st.floats(-50.0, 50.0)))
    def test_schrodinger_residual(self, sign, phi, psi, t):
        spec = BraidSpec(sign, phi)
        stacked = schrodinger_residual(psi, spec, t)
        assert stacked.shape == (len(psi), len(t))
        h = hamiltonian_at(spec, t)
        for j, tj in enumerate(t.tolist()):
            assert np.array_equal(h[j], hamiltonian_at(spec, tj))
            for i, row in enumerate(psi):
                single = TwoKaonState(row)
                reference = schrodinger_reference(single, spec, tj, 1e-5)
                assert stacked[i, j] == schrodinger_residual(single, spec, tj) == reference

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE,
           t=hnp.arrays(float, st.integers(1, 50), elements=st.floats(0.0, 1e3)))
    def test_r_vs_hamiltonian_consistency(self, sign, phi, t):
        spec = BraidSpec(sign, phi)
        stacked = r_vs_hamiltonian_consistency(spec, t)
        for ti, value in zip(t.tolist(), stacked):
            single = r_vs_hamiltonian_consistency(spec, ti)
            assert value == single == r_vs_hamiltonian_reference(spec, ti)

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), corrected=st.booleans(),
           phi=hnp.arrays(float, st.integers(1, 50), elements=ANGLE))
    def test_braid_relation(self, sign, corrected, phi):
        stacked = check_braid_relation(BraidSpec(sign, phi), corrected)
        singles = [check_braid_relation(BraidSpec(sign, p), corrected) for p in phi.tolist()]
        assert np.array_equal(stacked, singles)

    @settings(deadline=None, max_examples=30)
    @given(seed=st.integers(0, 2**63))
    def test_schrodinger_draws(self, seed):
        """check_schrodinger hands one 10-state stack per spec to
        schrodinger_residual: the states the old per-state loop drew, and a
        worst residual equal to the per-point calls' worst."""
        stacks = []

        def spy(psi, *args, **kwargs):
            stacks.append(psi)
            return schrodinger_residual(psi, *args, **kwargs)

        with mock.patch.object(dynamics, "schrodinger_residual", spy):
            metric = check_schrodinger(seed).metric
        reference = random_states_reference(np.random.default_rng(seed), 10)
        assert len(stacks) == len(SCHRODINGER_SPECS)
        for psi in stacks:
            assert np.array_equal(psi, [state.vector for state in reference])
        assert metric == max(schrodinger_residual(state, spec, t, dt=1e-5)
                             for state in reference for t in SCHRODINGER_T
                             for spec in SCHRODINGER_SPECS)

    def test_propagator_angles_are_math_per_element(self):
        # np.arctan differs from math.atan on 5 of these 5000 t (numpy 2.4.6)
        t = np.random.default_rng(5).uniform(-10.0, 10.0, 5000)
        spec = BraidSpec("plus", 0.3)
        stacked = propagator(spec, 0.0, t)
        assert all(np.array_equal(u, propagator_reference(spec, 0.0, ti))
                   for ti, u in zip(t.tolist(), stacked))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**63), pairs=st.integers(1, 50))
    def test_separability_draws(self, seed, pairs):
        stacked_rng, rows_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        stacked = separability_states(stacked_rng, pairs)
        assert np.array_equal(stacked, separability_reference(rows_rng, 2 * pairs))
        # the same stream: both generators stand at the same draw afterwards
        assert stacked_rng.normal() == rows_rng.normal()


@pytest.mark.parametrize("seed", [0, 1, 17, 12345])
def test_separability_draws_of_verify_seeds(seed):
    stacked = separability_states(np.random.default_rng(seed), 500)
    assert np.array_equal(stacked, separability_reference(np.random.default_rng(seed), 1000))


@settings(deadline=None)
@given(sign=st.sampled_from(SIGNS), phi=ANGLE, x=SPECTRAL, y=SPECTRAL)
def test_qybe_holds(sign, phi, x, y):
    assert check_qybe(BraidSpec(sign, phi), x, y) < 1e-10


@settings(deadline=None)
@given(sign=st.sampled_from(SIGNS), phi=hnp.arrays(float, st.integers(1, 50), elements=ANGLE))
def test_braid_relation_holds(sign, phi):
    assert check_braid_relation(BraidSpec(sign, phi)).max() < 1e-12


@settings(deadline=None)
@given(params=kaon_params(),
       t=hnp.arrays(float, st.integers(1, 50), elements=st.floats(0.0, 1e3)))
def test_same_plus_flip_is_survival(params, t):
    total = sum(transition_probability(params, t, "K", to) for to in FLAVORS)
    assert np.max(np.abs(total - survival_probability(params, t))) <= 1e-12


@settings(deadline=None)
@given(sign=st.sampled_from(SIGNS), phi=ANGLE, t0=TIME, t1=TIME, t2=TIME)
def test_propagator_group_law(sign, phi, t0, t1, t2):
    spec = BraidSpec(sign, phi)
    composed = propagator(spec, t1, t2) @ propagator(spec, t0, t1)
    assert frobenius(composed - propagator(spec, t0, t2)) < 1e-12


@settings(deadline=None)
@given(psi=state_stacks(), u=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE),
       v=st.tuples(ANGLE, ANGLE, ANGLE, ANGLE))
def test_concurrence_invariant_under_local_unitaries(psi, u, v):
    rotated = psi @ np.kron(local_unitary(*u), local_unitary(*v)).T
    assert np.max(np.abs(concurrence(rotated) - concurrence(psi))) <= 1e-12


def test_phi_array_spec_is_a_stack_not_a_key():
    """A spec over an array of φ cannot be hashed or reduce == to one bool, so
    it cannot key a cache or a set; a spec over one φ can."""
    stack = BraidSpec("plus", np.array([0.0, 1.0]))
    with pytest.raises(TypeError, match="unhashable"):
        hash(stack)
    with pytest.raises(ValueError, match="ambiguous"):
        stack == BraidSpec("plus", np.array([0.0, 1.0]))
    assert {BraidSpec("plus", 1.0)} == {BraidSpec("plus", 1.0 + 2 * math.pi)}


class TestValidation:
    @settings(deadline=None)
    @given(psi=state_stacks(), data=st.data(),
           bad=st.sampled_from(["scale", "nan", "inf"]))
    def test_one_bad_row_rejects_the_stack(self, psi, data, bad):
        i = data.draw(st.integers(0, len(psi) - 1))
        psi = psi.copy()
        if bad == "scale":
            psi[i] *= 1.0 + data.draw(st.floats(1e-6, 10.0))
        else:
            psi[i, data.draw(st.integers(0, 3))] = complex(bad)
        message = "not normalized" if bad == "scale" else "must be finite"
        for kernel in (state_stack, concurrence):
            with pytest.raises(ValidationError, match=message):
                kernel(psi)
        with pytest.raises(ValidationError, match=message):
            TwoKaonState(psi[i])

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3), (2, 8), (2, 2, 4)])
    def test_wrong_shape_rejected(self, shape):
        amplitudes = np.full(shape, 0.5)
        with pytest.raises(ValidationError, match="exactly 4 amplitudes"):
            state_stack(amplitudes)
        with pytest.raises(ValidationError, match="exactly 4 amplitudes"):
            correlation(amplitudes, np.eye(2), np.eye(2))

    @settings(deadline=None)
    @given(t=spectral_values(1e-3), data=st.data(),
           bad=st.sampled_from([0.0, -0.0, -1e-300, -1.0, -1e300]))
    def test_rho_check_rejects_any_nonpositive_t(self, t, data, bad):
        t = t.copy()
        t[data.draw(st.integers(0, len(t) - 1))] = bad
        spec = BraidSpec("plus", 0.4)
        for kernel in (rho_check, rho_printed_formula):
            with pytest.raises(DomainError, match="t must be > 0"):
                kernel(spec, t)
