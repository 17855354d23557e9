"""Stacked kernels against their single-point calls.

A stack of N states, spectral parameters, times or phases must give, row by
row and bit for bit (compared with ==), what N single-point calls give, and
the single-point calls must give what per-row formulas in Python scalars
(np.kron, np.vdot, math's and cmath's functions, complex scalar arithmetic,
and every norm as test_linalg.norm_reference sums it in Python floats) give.
The stack validator must reject a stack in which one row is bad.  The
algebra's own laws (QYBE, the braid relation, the propagator's group law,
P_same + P_flip = survival) are checked over generated inputs to a
tolerance.
"""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from test_linalg import norm_reference

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
from kaonbraid.linalg import elementwise, frobenius, tensor_product, unitarity_residual
from kaonbraid.oscillation import (
    FLAVORS,
    KaonParams,
    evolve_k,
    oscillation_curve,
    survival_probability,
    transition_probability,
    u_factors,
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
from kaonbraid.verify import (
    CheckResult,
    amplitude_residuals,
    check_oscillation,
    check_schrodinger,
    separability_states,
)

UNIT = st.floats(-1.0, 1.0)
ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
SPECTRAL = st.floats(0.0, 10.0)
# times whose product overflows, too
TIME = (st.floats(-1e3, 1e3) | st.floats(-1e308, 1e308)
        | st.sampled_from([math.inf, -math.inf, 1e200, -1e200]))
RATE = st.floats(0.0, 10.0)
MASS = st.floats(-10.0, 10.0)
PARAM_RATE = st.floats(0.0, 2.0) | st.sampled_from([0.0, 1e300])
PARAM_MASS = st.floats(-2.0, 2.0)
PARAM_T = st.floats(0.0, 50.0)
# 1/(1/t) != t at 5 of these 64 points
INVERSION_GRID = np.linspace(0.5, 12.0, 64)
SCHRODINGER_T = (0.2, 0.5, 1.0, 2.0, 5.0)
SCHRODINGER_SPECS = (BraidSpec("plus", 0.0), BraidSpec("minus", 1.0))
_I2 = np.eye(2, dtype=complex)
EPS = np.finfo(float).eps


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
    """The per-point QYBE residual as the library formed it before stacks,
    its norm in norm_reference's order."""
    def r1(z):
        return np.kron(yang_baxterize(spec, z), _I2)

    def r2(z):
        return np.kron(_I2, yang_baxterize(spec, z))

    return norm_reference((r1(x) @ r2(x * y) @ r1(y) - r2(y) @ r1(x * y) @ r2(x)).ravel().tolist())


def rho_reference(spec, t):
    """(is_scalar, scalar, residual) of ϱ = R(t)·R(1/t) at one t, in Python
    scalars: ϱ's diagonal and anti-diagonal as Python complex sums of two
    products, the trace summed as np.trace sums it, and the 16 scaled squares
    summed row by row, then (m₀ + m₁) + (m₂ + m₃)."""
    r1, r2 = yang_baxterize(spec, t).tolist(), yang_baxterize(spec, 1.0 / t).tolist()
    diagonal = [r1[i][i] * r2[i][i] + r1[i][3 - i] * r2[3 - i][i] for i in range(4)]
    anti = [r1[i][i] * r2[i][3 - i] + r1[i][3 - i] * r2[3 - i][3 - i] for i in range(4)]
    scalar = complex(*((0.0 + ((d[0] + d[1]) + (d[2] + d[3]))) / 4.0
                       for d in ([z.real for z in diagonal], [z.imag for z in diagonal])))
    k = math.frexp(abs(scalar))[1]
    scale = math.ldexp(1.0, -k)
    m = []
    for d, a in zip(diagonal, anti):
        parts = [(d.real - scalar.real) * scale, (d.imag - scalar.imag) * scale,
                 a.real * scale, a.imag * scale]
        m.append((parts[0] * parts[0] + parts[1] * parts[1])
                 + (parts[2] * parts[2] + parts[3] * parts[3]))
    scaled = math.sqrt((m[0] + m[1]) + (m[2] + m[3]))
    return scaled < 1e-12 * math.ldexp(abs(scalar), -k), scalar, math.ldexp(scaled, k)


def rotation_angle_reference(t0, t1):
    """α = arctan t1 - arctan t0 in Python floats, without the cancellation
    where t0·t1 > 0."""
    prod = t0 * t1
    if not prod > 0:
        return math.atan(t1) - math.atan(t0)
    if math.isinf(t0) or math.isinf(t1):
        return math.atan(1.0 / t0 - 1.0 / t1)
    if math.isinf(prod):
        return math.atan((t1 - t0) / t1 / t0)
    return math.atan((t1 - t0) / (1.0 + prod))


def propagator_reference(spec, t0, t1):
    """The per-point propagator cos α·I - sin α·N, N = b - I, in Python floats."""
    angle = rotation_angle_reference(t0, t1)
    return math.cos(angle) * np.eye(4) - math.sin(angle) * (braid_matrix(spec) - np.eye(4))


def evolve_state_reference(psi0, spec, t0, t1):
    """U(t0, t1)·ψ₀ for one time in Python scalars: each part c·x - s·y + 0.0
    with y a part of N·ψ₀ = (q·ψ₃, σ·ψ₂, -σ·ψ₁, -ψ₀/q), N = b - I."""
    angle = rotation_angle_reference(t0, t1)
    c, s = math.cos(angle), math.sin(angle)
    n = (braid_matrix(spec) - np.eye(4)).tolist()
    n_psi0 = [n[k][3 - k] * psi0[3 - k] for k in range(4)]
    return [complex(c * p.real - s * w.real + 0.0, c * p.imag - s * w.imag + 0.0)
            for p, w in zip(psi0, n_psi0)]


def separability_reference(rng, n):
    """The per-row draws check_separability made before stacks, each
    normalized by its norm_reference."""
    psi = np.empty((n, 4), dtype=complex)
    for i in range(n):
        if i % 2 == 0:
            u = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi[i] = np.outer(u / norm_reference(u.tolist()),
                              v / norm_reference(v.tolist())).reshape(4)
        else:
            amp = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi[i] = amp / norm_reference(amp.tolist())
    return psi


def transition_reference(params, t, frm, to):
    """transition_probability's closed form for one point in Python floats:
    a²·(E²/4 + (Re w)²) for the same flavor and a²·(E²/4 + (Im w)²) for a
    flip, with a = e^{-γ_min·t/2}, E = e^{-y} - 1, w = e^{-y/2 + i·Δm·t/2}
    and y = |γ_S - γ_L|·t/2."""
    y = abs(params.gamma_s - params.gamma_l) * t / 2.0
    a = math.exp(-min(params.gamma_s, params.gamma_l) * t / 2.0)
    e = math.expm1(-y)
    w = cmath.exp(complex(-y / 2.0, params.delta_m * t / 2.0))
    part = w.real if frm == to else w.imag
    return a * a * (e * e / 4.0 + part * part)


def oscillation_curve_reference(params, t_max, steps):
    """oscillation_curve's table row by row in Python floats: the asymmetry
    is 2·Re z/(1 + |z|²) with z = e^{-y + i·Δm·t}."""
    rows = []
    for i in range(steps):
        t = t_max * i / (steps - 1)
        p_same = transition_reference(params, t, "K", "K")
        p_flip = transition_reference(params, t, "K", "Kbar")
        z = cmath.exp(complex(-(abs(params.gamma_s - params.gamma_l) * t / 2.0),
                              params.delta_m * t))
        asym = 2.0 * z.real / (1.0 + (z.real * z.real + z.imag * z.imag))
        rows.append((t, p_same, p_flip, asym))
    return rows


def schrodinger_reference(state0, spec, t, dt):
    """The per-point Schrödinger residual of the 4 amplitudes state0 as
    schrodinger_residual formed it before it took stacks, its norm in
    norm_reference's order."""
    ahead, behind, now = propagator(spec, 0.0, [t + dt, t - dt, t]) @ state0
    deriv = 1j * (ahead - behind) / (2.0 * dt)
    h = envelope(t) * hamiltonian_generator(spec)
    return norm_reference((deriv - h @ now).tolist())


def r_vs_hamiltonian_reference(spec, t):
    """The per-point consistency residual, from one two-row unitary_r call,
    its norm in norm_reference's order."""
    r_t, r_0 = unitary_r(spec, [t, 0.0])
    return norm_reference((r_t @ r_0.conj().T - propagator(spec, 0.0, t)).ravel().tolist())


def random_states_reference(rng, n):
    """The per-state draws check_schrodinger made before stacks (the deleted
    verify.random_states), each normalized by its norm_reference."""
    out = []
    for _ in range(n):
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        out.append(v / norm_reference(v.tolist()))
    return out


def oscillation_check_reference(seed):
    """check_oscillation as it stood before its 50 parameter draws became one
    stack, and those draws' per-draw gaps, (50, 2) as amplitude_residuals."""
    pure = KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=0.474)
    t, _, p_flip, _ = oscillation_curve(pure, 12.0 * np.arange(500) / 499).T
    worst = float(np.max(np.abs(p_flip - (1.0 - elementwise(math.cos, pure.delta_m * t)) / 2.0)))
    params = KaonParams()
    t, p_same, p_flip, _ = oscillation_curve(params, 12.0 * np.arange(200) / 199).T
    flip_back = transition_probability(params, t, "Kbar", "K")
    ok = ((0.0 <= p_same) & (p_same <= 1.0) & (0.0 <= p_flip) & (p_flip <= 1.0)).all()
    total = np.abs(p_same + p_flip - survival_probability(params, t)).max()
    worst = max(worst, float(total), 0.0 if ok and (p_flip == flip_back).all() else 1.0)
    rng = np.random.default_rng(seed)
    gaps = []
    for _ in range(50):
        p = KaonParams(*rng.uniform(0.0, 2.0, 2), *rng.uniform(-2.0, 2.0, 2))
        t = float(rng.uniform(0.0, 5.0))
        amps = evolve_k(p, t)
        gaps.append([abs(abs(amps.c_k) ** 2 - transition_probability(p, t, "K", "K")),
                     abs(abs(amps.c_kbar) ** 2 - transition_probability(p, t, "K", "Kbar"))])
        worst = max(worst, *gaps[-1])
    return CheckResult("oscillation", worst, 1e-12), np.array(gaps)


def u_factors_real_parts(g, m, t):
    """(re, im) of e^{-(γ/2 + i·m)·t} for one point as u_factors built it in
    real arithmetic before its cmath.exp pass: l·cos y and l·sin y with
    l = e^{-(γ/2)·t} and y = -(m + 0)·t."""
    length, y = math.exp(-(g / 2.0) * t), -(m + 0.0) * t
    return length * math.cos(y), length * math.sin(y)


def cmath_u(p, t):
    """U_S, U_L = e^{-α·t} with α = γ/2 + i·m, by cmath.exp for one point."""
    return tuple(cmath.exp(-(g / 2.0 + 1j * m) * t)
                 for g, m in ((p.gamma_s, p.m_s), (p.gamma_l, p.m_l)))


def bits(a):
    """The IEEE bits of a number or array, zero signs included."""
    return np.atleast_1d(np.asarray(a)).view(np.uint64).tolist()


@st.composite
def kaon_params(draw):
    return KaonParams(draw(RATE), draw(RATE), draw(MASS), draw(MASS))


@st.composite
def kaon_param_stacks(draw):
    """Four (N,) parameter columns and an (N,) t, N in 1..30: rates in [0, 2]
    or {0, 1e300}, masses in [-2, 2], t in [0, 50]."""
    n = draw(st.integers(1, 30))
    fields = [draw(hnp.arrays(float, n, elements=e))
              for e in (PARAM_RATE, PARAM_RATE, PARAM_MASS, PARAM_MASS)]
    return fields, draw(hnp.arrays(float, n, elements=PARAM_T))


class TestStackEqualsRows:
    @settings(deadline=None)
    @given(psi=state_stacks())
    def test_concurrence(self, psi):
        stacked = concurrence(psi)
        for row, value in zip(psi, stacked):
            a0, a1, a2, a3 = row
            assert value == concurrence(row)[0] == min(1.0, 2.0 * abs(a0 * a3 - a1 * a2))

    @settings(deadline=None)
    @given(psi=state_stacks())
    def test_schmidt_coefficients_and_is_separable(self, psi):
        stacked, separable = schmidt_coefficients(psi), is_separable(psi, 1e-8)
        for row, s, sep in zip(psi, stacked, separable):
            reference = np.linalg.svd(row.reshape(2, 2), compute_uv=False)
            assert np.array_equal(s, schmidt_coefficients(row)[0])
            assert np.array_equal(s, reference)
            assert sep == is_separable(row, 1e-8)[0]

    @settings(deadline=None)
    @given(psi=state_stacks(), op_a=hermitian_2x2(), op_b=hermitian_2x2(),
           op_c=hermitian_2x2(), op_d=hermitian_2x2())
    def test_correlation(self, psi, op_a, op_b, op_c, op_d):
        stacked = correlation(psi, op_a, op_b)
        for row, value in zip(psi, stacked):
            reference = complex(np.vdot(row, np.kron(op_a, op_b) @ row)).real
            assert value == correlation(row, op_a, op_b)[0] == reference
        # a (2, 2, 2) stack of operator pairs: row k is pair k taken alone
        pairs = correlation(psi, np.stack([op_a, op_c]), np.stack([op_b, op_d]))
        assert pairs.shape == (2, len(psi))
        assert bits(pairs) == bits(np.stack([stacked, correlation(psi, op_c, op_d)]))

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, t=spectral_values(1e-3))
    def test_rho_check(self, sign, phi, t):
        spec = BraidSpec(sign, phi)
        ok, scalar, residual, _ = rho_check(spec, t)
        printed = rho_printed_formula(spec, t)
        for i, ti in enumerate(t.tolist()):
            reference = rho_reference(spec, ti)
            assert rho_check(spec, ti)[:3] == (ok[i], scalar[i], residual[i]) == reference
            assert bits(scalar[i]) == bits(reference[1])
            assert printed[i] == rho_printed_formula(spec, ti)
            # the dense product sums in the BLAS kernel's order: to rounding
            rho = yang_baxterize(spec, ti) @ yang_baxterize(spec, 1.0 / ti)
            dense = complex(np.trace(rho)) / 4.0
            tol = 4 * EPS * abs(scalar[i])
            assert abs(scalar[i] - dense) <= tol
            assert abs(residual[i] - np.linalg.norm(rho - dense * np.eye(4))) <= tol

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), t=spectral_values(1e-3), data=st.data())
    def test_scalar_inv_at_inverse_times(self, sign, t, data):
        """rho-report's ϱ(1/t) scalar, rho_check's fourth output, on an
        array-φ spec and a grid that holds points where 1/(1/t) != t."""
        assert (1.0 / (1.0 / INVERSION_GRID) != INVERSION_GRID).sum() == 5
        t = np.concatenate([t, INVERSION_GRID])
        spec = BraidSpec(sign, data.draw(hnp.arrays(float, len(t), elements=ANGLE)))
        assert bits(rho_check(spec, t)[3]) == bits(rho_check(spec, 1.0 / t)[1])

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, x=spectral_values(0.0))
    def test_yang_baxterize(self, sign, phi, x):
        spec = BraidSpec(sign, phi)
        stacked = yang_baxterize(spec, x)
        for xi, r in zip(x.tolist(), stacked):
            b = braid_matrix(spec)
            assert bits(r) == bits(yang_baxterize(spec, xi))
            # numpy's complex arithmetic, zero signs included
            assert bits(r) == bits(b + xi * b.conj().T)

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS),
           phi=hnp.arrays(float, st.integers(1, 50), elements=ANGLE))
    def test_braid_matrices_and_deformed_states_over_phi(self, sign, phi):
        specs = [BraidSpec(sign, p) for p in phi.tolist()]
        for stack, single in ((braid_matrix, braid_matrix), (unitary_braid, unitary_braid)):
            assert np.array_equal(stack(BraidSpec(sign, phi)), [single(s) for s in specs])
        q = [s.q for s in specs]
        assert np.array_equal(braid_matrix(BraidSpec(sign, phi))[:, 3, 0], [-1 / z for z in q])
        assert np.array_equal(deformed_bell(phi), [deformed_bell(p) for p in phi.tolist()])

    @settings(deadline=None)
    @given(m=hnp.arrays(complex, st.tuples(st.integers(1, 20), st.sampled_from([2, 4, 8]))
                        .map(lambda s: (s[0], s[1], s[1])),
                        elements=st.complex_numbers(max_magnitude=1e3)))
    def test_frobenius(self, m):
        reference = [norm_reference(x.ravel().tolist()) for x in m]
        assert frobenius(m).tolist() == [float(frobenius(x)) for x in m] == reference

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
            reference = norm_reference((row @ row.conj().T - np.eye(d)).ravel().tolist())
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
    # 1 + t0·t1 = 0 at t1 = -1: a quiet 1/0 in the entry that is dropped
    @example(sign="plus", phi=0.0, t0=1.0,
             t1=np.array([-1.0, 0.0, 1e200, 1e308, math.inf, -math.inf]))
    @example(sign="minus", phi=1.0, t0=-math.inf, t1=np.array([-math.inf, -2.0, 0.0, 3.0]))
    def test_propagator(self, sign, phi, t0, t1):
        spec = BraidSpec(sign, phi)
        stacked = propagator(spec, t0, t1)
        for ti, u in zip(t1.tolist(), stacked):
            assert np.array_equal(u, propagator(spec, t0, ti))
            assert np.array_equal(u, propagator_reference(spec, t0, ti))

    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE, t0=TIME,
           t1=hnp.arrays(float, st.integers(1, 50), elements=TIME),
           psi=state_stacks().map(lambda a: a[0]))
    @example(sign="plus", phi=0.0, t0=1.0,
             t1=np.array([-1.0, 0.0, 1e200, 1e308, math.inf, -math.inf]),
             psi=np.array([1.0, 0.0, 0.0, 0.0], dtype=complex))
    @example(sign="minus", phi=0.7, t0=-1.0, t1=np.array([-1.0, 0.0, 1.0, 2.0]),
             psi=np.array([0.5, 0.5j, -0.5, -0.5j]))
    def test_evolve_state(self, sign, phi, t0, t1, psi):
        spec = BraidSpec(sign, phi)
        stacked = dynamics.evolve_state(psi, spec, t0, t1)
        assert stacked.shape == (len(t1), 4)
        by_matrix = propagator(spec, t0, t1) @ psi
        for ti, row, u_psi in zip(t1.tolist(), stacked, by_matrix):
            assert bits(row) == bits(dynamics.evolve_state(psi, spec, t0, ti))
            assert bits(row) == bits(evolve_state_reference(psi.tolist(), spec, t0, ti))
            assert np.abs(row - u_psi).max() <= 4 * EPS

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
    @given(stack=kaon_param_stacks(), scalar_params=st.booleans())
    def test_flavor_stack(self, stack, scalar_params):
        fields, t = stack
        params = KaonParams(*(f[0] for f in fields) if scalar_params else fields)
        for frm in FLAVORS:
            stacked = transition_probability(params, t, frm, FLAVORS)
            assert stacked.shape == t.shape + (len(FLAVORS),)
            for j, to in enumerate(FLAVORS):
                assert bits(stacked[:, j]) == bits(transition_probability(params, t, frm, to))

    @settings(deadline=None)
    @given(stack=kaon_param_stacks())
    def test_parameter_stack(self, stack):
        fields, t = stack
        params = KaonParams(*fields)
        u_s, u_l = u_factors(params, t)
        c_k, c_kbar = evolve_k(params, t)
        same, flip = transition_probability(params, t, "K", FLAVORS).T
        survival = survival_probability(params, t)
        for i, ti in enumerate(t.tolist()):
            point = KaonParams(*(float(f[i]) for f in fields))
            exact = cmath_u(point, ti)
            assert bits([u_s[i], u_l[i]]) == bits(u_factors(point, ti)) == bits(exact)
            amps = (exact[0] + exact[1]) / 2.0, (exact[0] - exact[1]) / 2.0
            assert bits([c_k[i], c_kbar[i]]) == bits(evolve_k(point, ti)) == bits(amps)
            assert bits([same[i], flip[i]]) == bits(
                [transition_probability(point, ti, "K", to) for to in FLAVORS])
            assert bits(survival[i]) == bits(survival_probability(point, ti))

    def test_parameter_stack_signs_of_zero(self):
        """u_factors of 5000 drawn sets, with zero masses of both signs, zero
        and huge rates and t = 0 among them, against cmath.exp bit for bit."""
        rng = np.random.default_rng(11)
        rates = np.where(rng.random((2, 5000)) < 0.2, rng.choice([0.0, 1e300], (2, 5000)),
                         rng.uniform(0.0, 2.0, (2, 5000)))
        masses = np.where(rng.random((2, 5000)) < 0.2, rng.choice([0.0, -0.0], (2, 5000)),
                          rng.uniform(-2.0, 2.0, (2, 5000)))
        t = np.where(rng.random(5000) < 0.1, 0.0, rng.uniform(0.0, 50.0, 5000))
        u_s, u_l = u_factors(KaonParams(*rates, *masses), t)
        for i, ti in enumerate(t.tolist()):
            point = KaonParams(*rates[:, i].tolist(), *masses[:, i].tolist())
            exact = cmath_u(point, ti)
            assert bits([u_s[i], u_l[i]]) == bits(exact)

    def test_u_factors_match_real_arithmetic(self):
        """One cmath.exp pass per factor gives the bits of l·cos y + i·l·sin y,
        zero signs included, on rates, masses and times among ±0, the
        subnormals, 1e308 and the large exponents 700 and 1500."""
        values = [0.0, -0.0, 5e-324, 1e-310, 0.474, 2.0, 700.0, 1500.0, 1e308]
        rows = [(g, m, t) for g in values for m in values + [-v for v in values]
                for t in values if math.isfinite(m * t)]
        g, m, t = np.array(rows).T
        parts = [u_factors_real_parts(*row) for row in rows]
        # both factors from the same columns: U_S and U_L of a row are equal
        for u in u_factors(KaonParams(g, g, m, m), t):
            assert bits(u.real) == bits([re for re, _ in parts])
            assert bits(u.imag) == bits([im for _, im in parts])

    def test_check_oscillation_draws(self):
        """The stacked draws give, on 500 seeds, each gap the per-draw loop
        gave and so the same metric: low + (high - low)·u over one
        rng.random((50, 5)) is the stream of 5 rng.uniform calls per draw."""
        for seed in range(500):
            reference, gaps = oscillation_check_reference(seed)
            assert bits(amplitude_residuals(seed)) == bits(gaps)
            assert check_oscillation(seed) == reference

    @settings(deadline=None)
    @given(params=kaon_params(), t_max=st.floats(1e-3, 100.0), steps=st.integers(2, 300))
    def test_oscillation_curve(self, params, t_max, steps):
        curve = oscillation_curve(params, t_max * np.arange(steps) / (steps - 1))
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
                reference = schrodinger_reference(row, spec, tj, 1e-5)
                assert stacked[i, j] == schrodinger_residual(row, spec, tj)[0] == reference

    @settings(deadline=None)
    @given(psi=state_stacks(), data=st.data(), op_a=hermitian_2x2(), op_b=hermitian_2x2(),
           t=hnp.arrays(float, st.sampled_from([(), (3,)]), elements=st.floats(-50.0, 50.0)))
    def test_four_amplitudes_are_a_one_row_stack(self, psi, data, op_a, op_b, t):
        """4 amplitudes give a leading axis of length 1, the bits of their row
        in a stack."""
        i = data.draw(st.integers(0, len(psi) - 1))
        spec = BraidSpec("minus", 0.9)
        kernels = (concurrence, schmidt_coefficients, is_separable,
                   lambda a: correlation(a, op_a, op_b),
                   lambda a: schrodinger_residual(a, spec, t))
        for kernel in kernels:
            one, stack = kernel(psi[i]), kernel(psi)
            assert one.shape == (1,) + stack.shape[1:]
            assert one[0].tobytes() == stack[i].tobytes()
        assert schrodinger_residual(psi[i], spec, t).shape == (1,) + t.shape

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
            assert np.array_equal(psi, reference)
        assert metric == max(schrodinger_residual(state, spec, t)[0]
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


class TestSignStacks:
    """A spec over an array of signs broadcast against φ is the stack of the
    single specs: each kernel gives each element the bits, zero signs
    included, of the spec of that sign and φ taken alone."""

    @settings(deadline=None)
    @given(signs=st.lists(st.sampled_from(SIGNS), min_size=1, max_size=3),
           phi=hnp.arrays(float, st.integers(1, 5), elements=ANGLE),
           nodes=hnp.arrays(float, st.tuples(st.integers(1, 3), st.just(3)),
                            elements=st.floats(0.01, 10.0)),
           t0=TIME)
    @example(signs=list(SIGNS), phi=np.array([0.0, -0.0, 1e-300, -1e-300, math.pi]),
             nodes=np.array([[0.0, 0.0, 1.0], [1.0, 2.0, 0.5]]), t0=0.0)
    def test_kernels_match_their_single_specs(self, signs, phi, nodes, t0):
        stack = BraidSpec(np.array(signs)[:, None], phi)
        x, y, t = (a[:, None, None] for a in nodes.T)
        results = {
            "braid_matrix": braid_matrix(stack),
            "braid_relation": check_braid_relation(stack),
            "yang_baxterize": yang_baxterize(stack, x),
            "unitary_r": unitary_r(stack, x),
            "qybe": check_qybe(stack, x, y),
            "rho_check": np.stack(rho_check(stack, t)).astype(complex),
            "propagator": propagator(stack, t0, t),
        }
        for i, sign in enumerate(signs):
            for j, p in enumerate(phi.tolist()):
                single = BraidSpec(sign, p)
                assert (stack.q[i, j], stack.sigma[i, j]) == (single.q, single.sigma)
                assert bits(results["braid_matrix"][i, j].copy()) == bits(braid_matrix(single))
                assert bits(results["braid_relation"][i, j]) == bits(check_braid_relation(single))
                for k, (xk, yk, tk) in enumerate(zip(x.ravel().tolist(), y.ravel().tolist(),
                                                     t.ravel().tolist())):
                    for name, value in (
                            ("yang_baxterize", yang_baxterize(single, xk)),
                            ("unitary_r", unitary_r(single, xk)),
                            ("qybe", check_qybe(single, xk, yk)),
                            ("rho_check", np.array(rho_check(single, tk), complex)),
                            ("propagator", propagator(single, t0, tk))):
                        got = results[name][:, k, i, j] if name == "rho_check" else \
                            results[name][k, i, j]
                        assert bits(got.copy()) == bits(value), (name, sign, p, xk, yk, tk)

    @settings(deadline=None)
    @given(signs=st.lists(st.sampled_from(SIGNS), min_size=1, max_size=4), phi=ANGLE)
    def test_signs_against_one_phi(self, signs, phi):
        stack = BraidSpec(signs, phi)
        assert stack.q.shape == stack.sigma.shape == (len(signs),)
        assert bits(braid_matrix(stack)) == bits([braid_matrix(BraidSpec(s, phi)) for s in signs])

    def test_a_stack_holds_read_only_arrays(self):
        stack = BraidSpec(np.array(SIGNS)[:, None], np.array([0.0, 1.0, 2.0]))
        assert stack.q.shape == stack.sigma.shape == (2, 3)
        assert stack.sigma.tolist() == [[1, 1, 1], [-1, -1, -1]]
        for held in (stack.sign, stack.phi, stack.q, stack.sigma,
                     BraidSpec("plus", np.array([0.0, 1.0])).q):
            with pytest.raises(ValueError, match="read-only"):
                held[...] = 0

    @staticmethod
    def specs():
        """One spec, a φ stack and a sign × φ stack, at φ = ±0.0, ±1e-300 and π."""
        phi = np.array([0.0, -0.0, 1e-300, -1e-300, math.pi])
        yield from (BraidSpec(sign, p) for sign in SIGNS for p in phi.tolist())
        yield from (BraidSpec(sign, phi) for sign in SIGNS)
        yield BraidSpec(np.array(SIGNS)[:, None], phi)

    def test_spec_b_is_read_only_with_the_bits_of_braid_matrix(self):
        for spec in self.specs():
            assert spec.b.shape == np.shape(spec.q) + (4, 4)
            assert bits(spec.b) == bits(braid_matrix(spec))
            with pytest.raises(ValueError, match="read-only"):
                spec.b[..., 0, 0] = 0

    def test_each_call_returns_a_new_writable_array(self):
        for spec in self.specs():
            held = bits(spec.b)
            b = braid_matrix(spec)
            assert not np.shares_memory(b, spec.b)
            b[...] = 7
            assert bits(spec.b) == held == bits(braid_matrix(spec))

    def test_uncorrected_differs_only_at_the_stray_entry(self):
        for spec in self.specs():
            stray = braid_matrix(spec, corrected=False)
            assert (stray[..., 2, 3] == 1).all() and (spec.b[..., 2, 3] == 0).all()
            stray[..., 2, 3] = spec.b[..., 2, 3]
            assert bits(stray) == bits(spec.b)

    @pytest.mark.parametrize("signs,bad", [(np.array(["plus", "pm"]), "'pm'"),
                                           (["minus", "Plus", "x"], "'Plus'"),
                                           (np.array([[None], ["plus"]], dtype=object), "None")])
    def test_every_sign_is_validated(self, signs, bad):
        with pytest.raises(ValidationError, match=f"got {bad}$"):
            BraidSpec(signs, 0.0)


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
