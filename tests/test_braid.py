import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaonbraid import braid
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
from kaonbraid.errors import DomainError, ValidationError
from kaonbraid.linalg import unitarity_residual

PHI_VALUES = [0.0, math.pi / 7, math.pi / 3, 1.0, math.pi / 2, 2.5]
ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
# outside the spectral domain x >= 0, finite: a number, or one entry of an array
BAD_X = {"negative": -1.0, "minus-inf": -math.inf, "nan": math.nan, "inf": math.inf,
         "array-with-negative": np.array([0.5, -1.0])}


def all_specs(phis=PHI_VALUES):
    return [BraidSpec(sign, phi) for sign in ("plus", "minus") for phi in phis]


class TestBraidSpec:
    def test_phi_canonicalized(self):
        assert BraidSpec("plus", -math.pi).phi == pytest.approx(math.pi)
        assert BraidSpec("plus", 3 * math.pi).phi == pytest.approx(math.pi)

    @given(phi=ANGLE)
    @example(phi=-5e-324)
    @example(phi=-1e-20)
    def test_phi_in_half_open_range(self, phi):
        # a tiny negative φ must not round up to 2π itself
        assert 0.0 <= BraidSpec("plus", phi).phi < 2 * math.pi
        assert 0.0 <= BraidSpec("plus", np.array([phi])).phi[0] < 2 * math.pi

    def test_rejects_bad_sign(self):
        with pytest.raises(ValidationError):
            BraidSpec("pm", 0.0)

    def test_rejects_nonfinite_phi(self):
        with pytest.raises(ValidationError):
            BraidSpec("plus", math.inf)


class TestBraidMatrix:
    def test_phi_zero_plus(self):
        expected = np.array(
            [[1, 0, 0, 1], [0, 1, 1, 0], [0, -1, 1, 0], [-1, 0, 0, 1]], dtype=complex
        )
        assert np.array_equal(braid_matrix(BraidSpec("plus", 0.0)), expected)

    def test_eigenvalues_one_plus_minus_i(self):
        for spec in all_specs():
            ev = np.linalg.eigvals(braid_matrix(spec))
            ev = ev[np.argsort(ev.imag)]
            expected = np.array([1 - 1j, 1 - 1j, 1 + 1j, 1 + 1j])
            assert np.max(np.abs(ev - expected)) < 1e-10

    def test_b_bdagger_is_2i(self):
        for spec in all_specs():
            b = braid_matrix(spec)
            assert np.linalg.norm(b @ b.conj().T - 2 * np.eye(4)) < 1e-12

    def test_unitary_braid_is_unitary(self):
        for spec in all_specs():
            assert unitarity_residual(unitary_braid(spec)) < 1e-14

    def test_unitary_braid_eigenvalues(self):
        bt = unitary_braid(BraidSpec("plus", 1.0))
        ev = np.sort(np.angle(np.linalg.eigvals(bt)))
        assert np.max(np.abs(ev - np.array([-np.pi / 4, -np.pi / 4, np.pi / 4, np.pi / 4]))) < 1e-12

    def test_unitary_braid_column_action(self):
        bt = unitary_braid(BraidSpec("plus", 0.0))
        image = bt @ np.array([1, 0, 0, 0], dtype=complex)
        expected = np.array([1, 0, 0, -1]) / math.sqrt(2)
        assert np.linalg.norm(image - expected) < 1e-15

    def test_unitary_braid_is_b_divided_by_sqrt2(self):
        # the bits, zero signs included, of numpy's complex division of b by √2
        phi = np.concatenate([np.linspace(0.0, 2 * math.pi, 577),
                              np.random.default_rng(5).uniform(-10.0, 10.0, 20_000),
                              [0.0, -0.0, 1e-300, -1e-300, math.pi / 2, math.pi]])
        for sign in SIGNS:
            spec = BraidSpec(sign, phi)
            expected = braid_matrix(spec) / math.sqrt(2.0)
            assert np.array_equal(unitary_braid(spec).view(np.uint64), expected.view(np.uint64))

    def test_det_unit_modulus(self):
        for spec in all_specs():
            assert abs(abs(np.linalg.det(unitary_braid(spec))) - 1.0) < 1e-12

    def test_fourth_power_is_minus_identity(self):
        for spec in all_specs():
            bt4 = np.linalg.matrix_power(unitary_braid(spec), 4)
            assert np.linalg.norm(bt4 + np.eye(4)) < 1e-12


class TestBraidRelation:
    @pytest.mark.parametrize("spec", all_specs(), ids=lambda s: f"{s.sign}-{s.phi:.3f}")
    def test_holds_for_corrected_matrix(self, spec):
        assert check_braid_relation(spec) < 1e-12

    def test_fails_for_uncorrected_matrix(self):
        assert check_braid_relation(BraidSpec("plus", 0.0), corrected=False) > 0.1
        assert check_braid_relation(BraidSpec("minus", math.pi / 3), corrected=False) > 0.1


class TestYangBaxterize:
    def test_r_at_zero_equals_b(self):
        for spec in all_specs():
            assert np.array_equal(yang_baxterize(spec, 0.0), braid_matrix(spec))

    def test_r_at_one_phi_zero_is_2i(self):
        r = yang_baxterize(BraidSpec("plus", 0.0), 1.0)
        assert np.linalg.norm(r - 2 * np.eye(4)) < 1e-15

    def test_entrywise_form(self):
        # direct substitution into the displayed entry pattern
        for spec in all_specs():
            for x in (0.3, 1.0, 2.0):
                q, s = spec.q, spec.sigma
                expected = np.array(
                    [
                        [1 + x, 0, 0, q * (1 - x)],
                        [0, 1 + x, s * (1 - x), 0],
                        [0, -s * (1 - x), 1 + x, 0],
                        [-(1 - x) / q, 0, 0, 1 + x],
                    ],
                    dtype=complex,
                )
                assert np.linalg.norm(yang_baxterize(spec, x) - expected) < 1e-14

    def test_corner_entry_example(self):
        r = yang_baxterize(BraidSpec("plus", math.pi / 2), 2.0)
        assert r[0, 3] == pytest.approx(-1j)  # q(1-x) = i * (-1)

    def test_rejects_negative_x(self):
        with pytest.raises(DomainError):
            yang_baxterize(BraidSpec("plus", 0.0), -0.5)


class TestQybe:
    def test_symmetric_point(self):
        assert check_qybe(BraidSpec("plus", 0.0), 1.0, 1.0) < 1e-12

    def test_random_sweep(self):
        rng = np.random.default_rng(7)
        for sign in ("plus", "minus"):
            for phi in (0.0, 1.1, math.pi / 2):
                spec = BraidSpec(sign, phi)
                for _ in range(25):
                    x, y = rng.uniform(0.0, 10.0, 2)
                    assert check_qybe(spec, x, y) < 1e-10

    @pytest.mark.parametrize("bad", BAD_X.values(), ids=BAD_X.keys())
    def test_rejects_bad_x_or_y(self, bad):
        spec = BraidSpec("plus", 0.0)
        for x, y in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DomainError, match="spectral parameter x must be finite and >= 0"):
                check_qybe(spec, x, y)

    @pytest.mark.parametrize("x, y, message", [
        (1e200, 1e200, "x·y must be finite"),  # both valid, the product overflows
        (math.inf, 0.0, "spectral parameter x must be finite"),  # inf·0 would be nan
        (np.array([1.0, 1e200]), np.array([1.0, 1e200]), "x·y must be finite"),
    ])
    def test_checks_x_and_y_before_forming_xy(self, x, y, message):
        # under filterwarnings = error a numpy RuntimeWarning would surface instead
        with pytest.raises(DomainError, match=message):
            check_qybe(BraidSpec("plus", 0.0), x, y)

    def test_degenerate_zero_reduces_to_braid_relation(self):
        spec = BraidSpec("minus", 1.0)
        assert check_qybe(spec, 0.0, 0.0) == pytest.approx(
            check_braid_relation(spec), abs=1e-12
        )

    @settings(deadline=None)
    @given(phis=st.lists(ANGLE, min_size=1, max_size=8))
    @example(phis=[0.0, -0.0, 1e-300, math.pi, np.nextafter(2 * math.pi, 0.0)])
    def test_zero_is_the_braid_relation_bit_for_bit(self, phis):
        # R(0) = b to the bit, so the QYBE at x = y = 0 is the braid relation
        spec = BraidSpec(np.array(SIGNS)[:, None], phis)
        r0, b = yang_baxterize(spec, 0.0), braid_matrix(spec)
        assert (r0.view(np.uint64) == b.view(np.uint64)).all()
        qybe, relation = check_qybe(spec, 0.0, 0.0), check_braid_relation(spec)
        assert qybe.shape == relation.shape == (2, len(phis))
        assert (qybe.view(np.uint64) == relation.view(np.uint64)).all()


class TestUnitaryR:
    @settings(deadline=None)
    @given(sign=st.sampled_from(SIGNS), phi=ANGLE)
    def test_theta_zero_is_unitary_braid(self, sign, phi):
        spec = BraidSpec(sign, phi)
        assert np.array_equal(unitary_r(spec, 0.0), unitary_braid(spec))

    def test_theta_parametrization(self):
        # θ = arctan x: cos θ = 1/√(1+x²), sin θ = x/√(1+x²)
        for spec in all_specs():
            bt = unitary_braid(spec)
            for x in (0.0, 0.5, 1.0, 7.3):
                cos, sin = 1.0 / math.sqrt(1 + x * x), x / math.sqrt(1 + x * x)
                expected = cos * bt + sin * bt.conj().T
                assert np.linalg.norm(unitary_r(spec, x) - expected) < 1e-15

    @pytest.mark.parametrize("bad", BAD_X.values(), ids=BAD_X.keys())
    def test_rejects_bad_x(self, bad):
        with pytest.raises(DomainError, match="spectral parameter x must be finite and >= 0"):
            unitary_r(BraidSpec("plus", 0.0), bad)

    def test_theta_pi4_phi_zero_is_identity(self):
        r = unitary_r(BraidSpec("plus", 0.0), 1.0)  # theta = pi/4
        assert np.linalg.norm(r - np.eye(4)) < 1e-15

    def test_unitary_on_grid(self):
        for sign in ("plus", "minus"):
            for theta in np.linspace(0.0, math.pi / 2, 20, endpoint=False):
                for phi in np.linspace(0.0, 2 * math.pi, 20, endpoint=False):
                    r = unitary_r(BraidSpec(sign, phi), math.tan(theta))
                    assert unitarity_residual(r) < 1e-12


class TestRhoCheck:
    def test_scalar_values(self):
        ok, scalar, _, _ = rho_check(BraidSpec("plus", 0.0), 1.0)
        assert ok and scalar == pytest.approx(4.0)
        ok, scalar, _, _ = rho_check(BraidSpec("plus", 0.0), 2.0)
        assert ok and scalar == pytest.approx(5.0)  # 2(t + 1/t)

    def test_closed_form_and_symmetry(self):
        for spec in all_specs((0.0, 1.0, 2.5)):
            for t in (0.5, 1.0, 2.0, 5.0):
                ok, scalar, residual, scalar_inv = rho_check(spec, t)
                assert ok and residual < 1e-12
                assert scalar == pytest.approx(2.0 * (t + 1.0 / t), abs=1e-12)
                assert scalar == pytest.approx(scalar_inv, abs=1e-12)

    def test_printed_formula_mismatch_is_reported(self):
        # the printed scalar differs from the computed one; both stay exposed
        spec = BraidSpec("plus", 0.0)
        scalar = rho_check(spec, 1.0)[1]
        assert scalar == pytest.approx(4.0)
        assert rho_printed_formula(spec, 1.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("phi", [0.0, 0.3, 2.5])
    @pytest.mark.parametrize("t", [1e4, 1e6, 1e100, 1e-6, 1e200, 1e-200, 1e300, 1e-300])
    def test_scalar_at_large_t(self, phi, t):
        # ϱ = 2(t + 1/t)·I holds to rounding, which grows with |ϱ|: judged
        # against 1e-12 absolute, φ = 0.3 read not scalar from t = 1e4 up, and
        # with the norm's squares overflowing, from about 1e154 up, where the
        # residual also read inf
        for spec in (BraidSpec(sign, phi) for sign in SIGNS):
            ok, scalar, residual, _ = rho_check(spec, t)
            assert ok and residual < 1e-12 * abs(scalar)
            stacked = rho_check(spec, np.array([1.0, t]))
            assert stacked[0].all()
            assert stacked[2].tolist() == [rho_check(spec, 1.0)[2], residual]

    def test_rejects_t_zero(self):
        with pytest.raises(DomainError):
            rho_check(BraidSpec("plus", 0.0), 0.0)

    @pytest.mark.parametrize("t, message", [(5e-324, "1/t overflows"),
                                            (math.inf, "out of range"), (1e308, "out of range")])
    @pytest.mark.parametrize("kernel", [rho_check, rho_printed_formula])
    def test_both_kernels_reject_t_out_of_range(self, kernel, t, message):
        # under filterwarnings = error a numpy RuntimeWarning would surface instead
        spec = BraidSpec("plus", 0.3)
        for ts in (t, np.array([1.0, t])):
            with pytest.raises(DomainError, match=message):
                kernel(spec, ts)

    @pytest.mark.parametrize("edge", [np.finfo(float).max / 8.0, 8.0 / np.finfo(float).max])
    def test_an_accepted_t_makes_its_inverse_accepted(self, edge):
        # scalar_inv is of ϱ(1/t), which rho_check does not validate apart:
        # over 40 ulps on each side of the largest and the smallest accepted
        # t, each t accepted makes 1/t accepted, with scalar_inv its scalar
        spec = BraidSpec("minus", 0.3)
        below, above = [edge], [edge]
        for _ in range(40):
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        accepted = 0
        for t in below + above[1:]:
            try:
                scalar_inv = rho_check(spec, t)[3]
            except DomainError:
                continue
            accepted += 1
            assert scalar_inv.tobytes() == rho_check(spec, 1.0 / t)[1].tobytes()
        assert 0 < accepted < 81


# the diagonal (i, i) and the anti-diagonal (i, 3 - i) of a 4x4 matrix
PATTERN = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
# one array-φ spec per sign, over the named φ and a grid with 0 and 2π - ulp
PATTERN_PHI = np.concatenate([PHI_VALUES, np.linspace(0.0, 2 * math.pi, 33),
                              [math.pi, np.nextafter(2 * math.pi, 0.0)]])
LARGE = 1e150


class TestPattern:
    """rho_check multiplies R(t)·R(1/t) on the pattern, the diagonal and the
    anti-diagonal, alone: off it both factors and the dense product hold exact
    zeros, and on it the dense product agrees to within 4 ulp of 2(t + 1/t)
    (2 ulp was the largest distance over 40,000 random t in 1e±300)."""

    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("x", [0.0, 1.0, LARGE])
    def test_yang_baxterize_is_zero_off_the_pattern(self, sign, x):
        r = yang_baxterize(BraidSpec(sign, PATTERN_PHI), x)
        assert (r[:, ~PATTERN] == 0).all()

    # t = 0 has no R(1/t); t and 1/t cover the large x
    @pytest.mark.parametrize("sign", SIGNS)
    @pytest.mark.parametrize("t", [1.0, LARGE, 1.0 / LARGE, 0.3])
    def test_dense_product_is_zero_off_the_pattern(self, sign, t):
        spec = BraidSpec(sign, PATTERN_PHI)
        dense = yang_baxterize(spec, t) @ yang_baxterize(spec, 1.0 / t)
        assert (dense[:, ~PATTERN] == 0).all()
        r_t, r_inv, _ = braid._rho_factors(spec, t)
        rho = braid._rho(r_t, r_inv, 2)
        i = np.arange(4)
        pattern = np.stack([dense[:, i, i], dense[:, i, 3 - i]])  # (half, φ, i)
        tol = 4 * np.spacing(2.0 * (t + 1.0 / t))
        assert np.abs(pattern.real - rho[0].swapaxes(-1, -2)).max() <= tol
        assert np.abs(pattern.imag - rho[1].swapaxes(-1, -2)).max() <= tol
