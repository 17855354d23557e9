import cmath
import math

import numpy as np
import pytest

from kaonbraid.braid import BraidSpec
from kaonbraid.errors import ValidationError
from kaonbraid.states import (
    TwoKaonState,
    bell_quartet,
    braid_action_images,
    canonical_basis,
    concurrence,
    correlation,
    cp_op,
    cp_s_eigentable,
    deformed_bell,
    is_separable,
    lift_two_kaon,
    schmidt_coefficients,
    strangeness_op,
)

RNG = np.random.default_rng(23)
SQ2 = math.sqrt(2.0)


def random_normalized():
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    return TwoKaonState(v / np.linalg.norm(v))


def random_product():
    u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    w = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    u /= np.linalg.norm(u)
    w /= np.linalg.norm(w)
    return TwoKaonState(np.kron(u, w))


def random_local_unitary():
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    return q


class TestCanonicalBasis:
    def test_first_element(self):
        assert canonical_basis()[0].amplitudes == (1, 0, 0, 0)

    def test_orthonormal(self):
        basis = canonical_basis()
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert a.overlap(b) == (1.0 if i == j else 0.0)

    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            TwoKaonState([1, 0, 0, 1])


class TestConcurrence:
    def test_uniform_state_separable(self):
        psi = TwoKaonState([0.5, 0.5, 0.5, 0.5])
        assert concurrence(psi) < 1e-12
        assert is_separable(psi, 1e-9)

    def test_middle_bell_state(self):
        psi = TwoKaonState([0, 1 / SQ2, 1 / SQ2, 0])
        assert concurrence(psi) == pytest.approx(1.0)
        assert not is_separable(psi, 1e-9)

    def test_product_states_have_zero_concurrence(self):
        for _ in range(50):
            assert concurrence(random_product()) < 1e-12

    def test_local_unitary_invariance(self):
        for _ in range(20):
            psi = random_normalized()
            u = np.kron(random_local_unitary(), random_local_unitary())
            rotated = TwoKaonState(u @ psi.vector)
            assert abs(concurrence(psi) - concurrence(rotated)) < 1e-10

    def test_matches_schmidt_oracle(self):
        # C = 2 * sigma1 * sigma2 of the amplitude matrix
        for _ in range(100):
            psi = random_normalized()
            s = schmidt_coefficients(psi)
            assert concurrence(psi) == pytest.approx(2.0 * s[0] * s[1], abs=1e-12)

    def test_separability_agrees_with_schmidt_rank(self):
        tol = 1e-8
        for i in range(1000):
            psi = random_product() if i % 2 else random_normalized()
            assert is_separable(psi, tol) == (schmidt_coefficients(psi)[1] <= tol)


class TestBellQuartet:
    def test_explicit_vectors(self):
        q = bell_quartet()
        assert np.allclose(q[0].vector, [1 / SQ2, 0, 0, 1 / SQ2])
        assert np.allclose(q[3].vector, [0, -1 / SQ2, 1 / SQ2, 0])

    def test_orthonormal_and_maximally_entangled(self):
        q = bell_quartet()
        gram = np.array([[a.overlap(b) for b in q] for a in q])
        assert np.linalg.norm(gram - np.eye(4)) < 1e-12
        for psi in q:
            assert concurrence(psi) == pytest.approx(1.0, abs=1e-12)


class TestBraidActionImages:
    def test_phi_zero_gives_bell_pattern(self):
        for sign in ("plus", "minus"):
            images = braid_action_images(BraidSpec(sign, 0.0))
            quartet = bell_quartet()
            for img in images:
                assert max(abs(img.overlap(b)) for b in quartet) == pytest.approx(1.0)

    def test_phi_pi_first_image(self):
        img = braid_action_images(BraidSpec("plus", math.pi))[0]
        expected = np.array([1, 0, 0, -1]) / SQ2
        overlap = abs(np.vdot(expected, img.vector))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_images_orthonormal_all_phi(self):
        for sign in ("plus", "minus"):
            for phi in (0.0, 0.7, 2.0, 5.5):
                images = braid_action_images(BraidSpec(sign, phi))
                gram = np.array([[a.overlap(b) for b in images] for a in images])
                assert np.linalg.norm(gram - np.eye(4)) < 1e-12

    def test_phi_phase_appears_on_outer_images(self):
        phi = 1.3
        images = braid_action_images(BraidSpec("plus", phi))
        assert images[0].amplitudes[3] == pytest.approx(cmath.exp(1j * phi) / SQ2)
        assert images[3].amplitudes[0] == pytest.approx(-cmath.exp(-1j * phi) / SQ2)


class TestOperators:
    def test_lift_on_bell_states(self):
        q = bell_quartet()
        s2 = lift_two_kaon(strangeness_op())
        cp2 = lift_two_kaon(cp_op())
        assert np.allclose(s2 @ q[0].vector, q[0].vector)
        assert np.allclose(cp2 @ q[1].vector, -q[1].vector)

    def test_strangeness_on_mixed_flavor(self):
        s2 = lift_two_kaon(strangeness_op())
        e1 = np.eye(4)[1]  # |K Kbar>
        assert np.array_equal(s2 @ e1, -e1)

    def test_lifted_operators_commute_and_square_to_identity(self):
        s2 = lift_two_kaon(strangeness_op())
        cp2 = lift_two_kaon(cp_op())
        assert np.linalg.norm(s2 @ cp2 - cp2 @ s2) < 1e-15
        assert np.array_equal(s2 @ s2, np.eye(4))
        assert np.allclose(cp2 @ cp2, np.eye(4))

    def test_eigentable(self):
        assert cp_s_eigentable() == [
            ("Phi1", 1.0, 1.0),
            ("Phi2", 1.0, -1.0),
            ("Phi3", -1.0, 1.0),
            ("Phi4", -1.0, -1.0),
        ]


class TestCorrelation:
    def test_cp_cp_on_deformed_bell(self):
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            psi = deformed_bell(phi)
            assert correlation(psi, cp_op(), cp_op()) == pytest.approx(
                math.cos(phi), abs=1e-12
            )

    def test_s_s_on_deformed_bell(self):
        for phi in (0.0, 1.0, math.pi):
            assert correlation(deformed_bell(phi), strangeness_op(), strangeness_op()) == pytest.approx(1.0)

    def test_s_s_on_phi3(self):
        q = bell_quartet()
        assert correlation(q[2], strangeness_op(), strangeness_op()) == pytest.approx(-1.0)

    def test_concurrence_phi_invariant(self):
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            assert concurrence(deformed_bell(phi)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            correlation(bell_quartet()[0], np.array([[0, 1], [0, 0]]), cp_op())
