"""Stacked kernels against their single-point calls.

A stack of N states, spectral parameters, times or phases must give, row by
row and bit for bit (compared with ==), what N single-point calls give, and
the single-point calls must give what the per-row formulas the CLI used
before (np.vdot, np.linalg.norm, complex scalar arithmetic) give.  The stack
validator must reject a stack in which one row is bad.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaonbraid.braid import (
    SIGNS,
    BraidSpec,
    braid_matrix,
    rho_check,
    rho_printed_formula,
    unitary_braid,
    yang_baxterize,
)
from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.linalg import frobenius
from kaonbraid.states import (
    TwoKaonState,
    concurrence,
    correlation,
    deformed_bell,
    is_separable,
    schmidt_coefficients,
    state_stack,
)

UNIT = st.floats(-1.0, 1.0)
ANGLE = st.floats(-2 * math.pi, 2 * math.pi)


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
