"""Accuracy of the oscillation kernels, and of `evolve`'s amplitudes,
against mpmath at 50 digits or more.

The reference takes the same doubles the library gets (γ_S, γ_L, m_S, m_L
and t) and evaluates the probabilities as e^{-(γ_S+γ_L)t/2}·(sinh²(d/2) +
cos²(Δm·t/2)) and the same with sin², d = (γ_S - γ_L)·t/2.  That is
|U_S ± U_L|²/4 without its cancellation, so 50 digits stay 50 digits at
any t (test_reference_is_the_amplitude_definition checks the identity).
The measured error is then the library's own: the rounding of its inputs'
products such as γ·t and Δm·t, and of its arithmetic.

Bounds, in units of EPS = 2**-52:
- relative, both probabilities, where |Δm|·t <= 1: 8·(1 + (γ_S + γ_L)·t).
  The γ·t terms are the rounding of an exponent, which e^{-γ·t} scales by γ·t.
  Worst measured on 60,000 random points: 3.7.
- absolute, all columns of oscillation_curve, at any t: 4·(1 + |Δm|·t).
  The Δm·t term is the rounding of the phase.  Worst measured: 0.8.
The closed form P_flip = (e^{-γ_S t} + e^{-γ_L t} - 2e^{-(γ_S+γ_L)t/2}cos Δm·t)/4
fails the first bound near t = 0, where it is O(t²) from O(1) terms.

From a basis state e_k, `evolve` prints U(t0, t)·e_k = cos α·e_k - sin α·(b - I)·e_k
(H₀ = -i·(b - I)), α = arctan t - arctan t0: amplitude k is cos α, one
other is sin α times a unit-modulus constant, and the other two are 0.  The
bound on their moduli is relative, 8·EPS times 1 plus the condition number
of cos (|α·tan α|) or sin (|α/tan α|) at α: a rounding of α itself moves
cos α by that much near α = ±π/2.  Worst measured on this test's draws,
two runs of 10,200 random rows, in units of EPS·(1 + that condition
number): 0.92 for cos, 0.89 for sin.  arctan t - arctan t0 in floats fails
it at large, close times, by 11% at t0 = 1e8, t = 1e8 + 10.

`braid.rho_printed_formula`, the source's printed scalar q² + q⁻² - t - 1/t,
is checked against 40 digits near t = 1, φ = 0, where it goes to 0 as
(t - 1)² + 4φ².  The bound is relative, 4·EPS, plus 4 subnormal steps where
sin²φ underflows; worst measured on 20,000
random points with |t - 1| and φ from 1e-16 to 0.1: 1.47.  The sum as
printed, which the function took before, is 2.3e-11 relative off at
t = 1.001, φ = 0.001 and 0.11 at t = 1, φ = 1e-8.
"""

import contextlib
import io
import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaonbraid.braid import SIGNS, BraidSpec, rho_printed_formula
from kaonbraid.cli import main
from kaonbraid.oscillation import FLAVORS, KaonParams, oscillation_curve, transition_probability

EPS = 2.0 ** -52
SMALLEST_NORMAL = 2.0 ** -1022
RATE = st.floats(0.0, 10.0) | st.sampled_from([0.0, 1e300, 1e308])
MASS = st.floats(-10.0, 10.0)


def exact(params, t):
    """(P_{K->K}, P_{K->K̄}, asymmetry) at the doubles params and t, as mpf:
    the sums, products and halvings of the inputs exact (50 digits of 1 +
    1e300 would drop the 1), each function to 50 significant digits."""
    gs, gl, ms, ml, t = (mpmath.mpf(float(v)) for v in (
        params.gamma_s, params.gamma_l, params.m_s, params.m_l, t))
    rates = mpmath.fmul(mpmath.fadd(gs, gl, exact=True), t, exact=True)
    split = mpmath.fmul(mpmath.fsub(gs, gl, exact=True), t, exact=True)
    phase = mpmath.fmul(mpmath.fsub(ml, ms, exact=True), t, exact=True)
    half, quarter = (lambda x: mpmath.ldexp(x, -1)), (lambda x: mpmath.ldexp(x, -2))
    # mpmath rounds an argument to the working precision first, and e^x then
    # loses as many digits as x has before its point: add them back
    lost = max(0, *(mpmath.mag(x) for x in (rates, split, phase))) * 0.302
    with mpmath.workdps(50 + int(lost) + 1):
        damp = mpmath.exp(-half(rates))
        shared = mpmath.sinh(quarter(split)) ** 2
        return (damp * (shared + mpmath.cos(half(phase)) ** 2),
                damp * (shared + mpmath.sin(half(phase)) ** 2),
                mpmath.cos(phase) * mpmath.sech(half(split)))


def error(value, reference) -> float:
    with mpmath.workdps(50):
        return float(abs(mpmath.mpf(float(value)) - reference))


@st.composite
def kaon_params(draw):
    return KaonParams(draw(RATE), draw(RATE), draw(MASS), draw(MASS))


@st.composite
def near_start(draw):
    """A parameter set and up to 10 times t with |Δm|·t <= 1, many of them
    close to 0, subnormals included."""
    params = draw(kaon_params())
    u = draw(hnp.arrays(float, st.integers(1, 10),
                        elements=st.floats(0.0, 1.0) | st.floats(0.0, 1e-8)))
    return params, u / max(abs(params.delta_m), 1e-2)


def assert_relative(params, t, values, references):
    bound = 8 * EPS * (1 + params.gamma_s * t + params.gamma_l * t)
    for value, reference in zip(values, references):
        if reference >= SMALLEST_NORMAL:
            assert error(value, reference) <= bound * reference, (params, t)
        else:  # an underflowing result has no relative accuracy: a few of the smallest steps
            assert error(value, reference) <= 4 * 2.0 ** -1074, (params, t)


@settings(deadline=None)
@given(case=near_start())
def test_probabilities_relative_near_start(case):
    params, t = case
    table = transition_probability(params, t, "K", FLAVORS)
    for ti, row in zip(t.tolist(), table):
        assert_relative(params, ti, row, exact(params, ti)[:2])


def test_flip_near_start_default_params():
    """The default parameter set at times from 1e-9 to 1, where P_flip is
    about (Δm·t/2)²."""
    params = KaonParams()
    t = np.geomspace(1e-9, 1.0, 200)
    for ti, row in zip(t.tolist(), transition_probability(params, t, "K", FLAVORS)):
        assert_relative(params, ti, row, exact(params, ti)[:2])


@settings(deadline=None)
@given(params=kaon_params(),
       t=hnp.arrays(float, st.integers(1, 10),
                    elements=st.floats(0.0, 100.0) | st.floats(0.0, 1e-6)))
def test_curve_absolute_everywhere(params, t):
    curve = oscillation_curve(params, t)
    assert np.array_equal(curve[:, 0], t)
    for ti, row in zip(t.tolist(), curve):
        bound = 4 * EPS * (1 + abs(params.delta_m) * ti)
        for value, reference in zip(row[1:], exact(params, ti)):
            assert error(value, reference) <= bound, (params, ti)


@settings(deadline=None, max_examples=30)
@given(params=kaon_params(), t=st.floats(1e-3, 50.0))
def test_reference_is_the_amplitude_definition(params, t):
    """|U_S ± U_L|²/4 at 50 digits, where its cancellation costs at most a
    few of them, gives the reference's probabilities."""
    with mpmath.workdps(50):
        u_s, u_l = (mpmath.exp(-(mpmath.mpf(g) / 2 + 1j * mpmath.mpf(m)) * t)
                    for g, m in ((params.gamma_s, params.m_s), (params.gamma_l, params.m_l)))
        for amplitude, reference in zip((u_s + u_l, u_s - u_l), exact(params, t)[:2]):
            assert abs(abs(amplitude) ** 2 / 4 - reference) <= mpmath.mpf(10) ** -40


# U·e_k's one amplitude besides the k-th: the nonzero entry of column k of b - I
PARTNER = (3, 2, 1, 0)
LABELS = ("KK", "KKbar", "KbarK", "KbarKbar")
BIG = st.floats(-1e300, 1e300)
CLOSE = st.floats(-10.0, 10.0) | st.floats(-1e-6, 1e-6)


def exact_angle(t0, t1):
    """arctan t1 - arctan t0 at the doubles t0 and t1, with digits enough
    for the cancellation, which costs about log10|t0·t1| of them."""
    lost = sum(max(0.0, math.log10(abs(t))) for t in (t0, t1) if t)
    with mpmath.workdps(60 + int(lost)):
        return mpmath.atan(mpmath.mpf(t1)) - mpmath.atan(mpmath.mpf(t0))


def evolve_rows(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return np.loadtxt(io.StringIO(buf.getvalue()), delimiter=",", skiprows=1, ndmin=2)


# below the smallest normal double a part is rounded to the spacing 2**-1074,
# so an amplitude there is good to a few such spacings, not to a relative bound
TINY = 2.0 ** -1022
SUBNORMAL_FLOOR = 4 * 2.0 ** -1074


def close_to(re, im, reference, bound) -> bool:
    """|re + i·im| within the relative `bound` of |reference|, or, where
    |reference| is subnormal, within SUBNORMAL_FLOOR of it."""
    with mpmath.workdps(50):
        error = abs(mpmath.hypot(re, im) - abs(reference))
        return (float(error / abs(reference)) <= bound
                or abs(reference) < TINY and error <= SUBNORMAL_FLOOR)


@st.composite
def time_pairs(draw):
    """(t0, t1), often large and close: t1 is t0 plus a small step, t0 times
    1 plus a small ratio, or any time."""
    t0 = draw(st.floats(-1e9, 1e9) | BIG)
    return t0, draw(BIG | CLOSE.map(lambda d: t0 + d) | CLOSE.map(lambda r: t0 * (1.0 + r)))


@settings(deadline=None)
@given(k=st.integers(0, 3), sign=st.sampled_from(["plus", "minus"]),
       phi=st.floats(0.0, 7.0), times=time_pairs())
@example(k=0, sign="plus", phi=0.0, times=(1e8, 1e8 + 10))
@example(k=1, sign="minus", phi=2.0, times=(-1e6, -1e6 - 1))
# subnormal amplitudes, near 1.1e-313 and 1.6e-310: 8e-12 and 8.7e-15 off
# relatively, less than 2**-1074 absolutely
@example(k=0, sign="plus", phi=1.0, times=(2.2250738585e-313, 0.0))
@example(k=3, sign="minus", phi=1.0, times=(1.1125369292536007e-308, 1.129920318773188e-308))
def test_evolve_amplitudes_from_a_basis_state(k, sign, phi, times):
    t0, t1 = times
    rows = evolve_rows(["evolve", "--state", LABELS[k], "--sign", sign, "--phi", repr(phi),
                        "--t0", repr(t0), "--t1", repr(t1), "--steps", "3", "--format", "csv"])
    for t, *parts in rows.tolist():
        amplitudes = list(zip(parts[0:8:2], parts[1:8:2]))
        alpha = exact_angle(t0, t)
        with mpmath.workdps(50):
            cos, sin = mpmath.cos(alpha), mpmath.sin(alpha)
            tan_ratio = abs(alpha * sin / cos) if alpha else mpmath.mpf(0)
            cot_ratio = abs(alpha * cos / sin) if alpha else mpmath.mpf(1)
        assert close_to(*amplitudes[k], cos, 8 * EPS * (1 + tan_ratio)), (t0, t)
        j = PARTNER[k]
        if sin:
            assert close_to(*amplitudes[j], sin, 8 * EPS * (1 + cot_ratio)), (t0, t)
        else:
            assert amplitudes[j] == (0.0, 0.0)
        assert all(amplitudes[i] == (0.0, 0.0) for i in range(4) if i not in (k, j))


@settings(deadline=None)
@given(sign=st.sampled_from(SIGNS), t=st.floats(0.9, 1.1), phi=st.floats(0.0, 0.1))
@example(sign="plus", t=1.0, phi=0.0)
@example(sign="plus", t=1.0 + 2.0 ** -20, phi=0.0)
@example(sign="minus", t=1.0, phi=1e-8)
def test_printed_formula_near_its_zero(sign, t, phi):
    """rho-report's printed_formula column at t and φ near 1 and 0, where the
    printed sum cancels: 2·cos 2φ - t - 1/t = -((t - 1)²/t + 4·sin²φ)."""
    spec = BraidSpec(sign, phi)
    value = float(np.real(rho_printed_formula(spec, t)))
    with mpmath.workdps(40):
        t_, phi_ = mpmath.mpf(t), mpmath.mpf(spec.phi)
        reference = -((t_ - 1) ** 2 / t_ + 4 * mpmath.sin(phi_) ** 2)
        # plus a few of the smallest steps, for a sin²φ that underflows
        assert abs(value - reference) <= 4 * EPS * abs(reference) + 4 * 2.0 ** -1074, (t, phi)
