import cmath
import math

import numpy as np
import pytest

from kaonbraid import states
from kaonbraid.braid import BraidSpec, unitary_braid
from kaonbraid.cli import parse_state
from kaonbraid.errors import ValidationError
from kaonbraid.linalg import tensor_product
from kaonbraid.states import (
    BASIS_LABELS,
    TwoKaonState,
    bell_quartet,
    concurrence,
    correlation,
    cp_op,
    cp_s_eigentable,
    deformed_bell,
    is_separable,
    schmidt_coefficients,
    strangeness_op,
)

RNG = np.random.default_rng(23)
SQ2 = math.sqrt(2.0)


def random_normalized():
    v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
    return v / np.linalg.norm(v)


def random_product():
    u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    w = RNG.normal(size=2) + 1j * RNG.normal(size=2)
    u /= np.linalg.norm(u)
    w /= np.linalg.norm(w)
    return np.kron(u, w)


def random_local_unitary():
    m = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    return q


class TestCanonicalBasis:
    def test_first_element(self):
        assert parse_state("KK").amplitudes == (1, 0, 0, 0)

    def test_orthonormal(self):
        basis = [parse_state(label).vector for label in BASIS_LABELS]
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert np.vdot(a, b) == (1.0 if i == j else 0.0)

    def test_norm_validation(self):
        with pytest.raises(ValidationError):
            TwoKaonState([1, 0, 0, 1])

    def test_overflowing_norm_is_not_normalized(self):
        # the squares overflow to inf; that is a rejected state, not a warning
        with pytest.raises(ValidationError, match=r"\|\|a\|\| = inf"):
            TwoKaonState([0, 0, 0, 1e308])


class TestConcurrence:
    def test_uniform_state_separable(self):
        psi = [0.5, 0.5, 0.5, 0.5]
        assert concurrence(psi)[0] < 1e-12
        assert is_separable(psi, 1e-9)[0]

    def test_middle_bell_state(self):
        psi = [0, 1 / SQ2, 1 / SQ2, 0]
        assert concurrence(psi)[0] == pytest.approx(1.0)
        assert not is_separable(psi, 1e-9)[0]

    def test_product_states_have_zero_concurrence(self):
        for _ in range(50):
            assert concurrence(random_product())[0] < 1e-12

    def test_local_unitary_invariance(self):
        for _ in range(20):
            psi = random_normalized()
            u = np.kron(random_local_unitary(), random_local_unitary())
            assert abs(concurrence(psi)[0] - concurrence(u @ psi)[0]) < 1e-10

    def test_matches_schmidt_oracle(self):
        # C = 2 * sigma1 * sigma2 of the amplitude matrix
        for _ in range(100):
            psi = random_normalized()
            s = schmidt_coefficients(psi)[0]
            assert concurrence(psi)[0] == pytest.approx(2.0 * s[0] * s[1], abs=1e-12)

    def test_separability_agrees_with_schmidt_rank(self):
        tol = 1e-8
        for i in range(1000):
            psi = random_product() if i % 2 else random_normalized()
            assert is_separable(psi, tol)[0] == (schmidt_coefficients(psi)[0, 1] <= tol)


class TestBellQuartet:
    def test_explicit_vectors(self):
        q = bell_quartet()
        assert q.shape == (4, 4)
        assert np.allclose(q[0], [1 / SQ2, 0, 0, 1 / SQ2])
        assert np.allclose(q[3], [0, -1 / SQ2, 1 / SQ2, 0])

    def test_orthonormal_and_maximally_entangled(self):
        q = bell_quartet()
        assert np.linalg.norm(q.conj() @ q.T - np.eye(4)) < 1e-12
        assert concurrence(q) == pytest.approx(np.ones(4), abs=1e-12)


class TestBraidActionImages:
    """Row i of b̃ is the image of basis state i under the unitary braid action."""

    def test_phi_zero_gives_bell_pattern(self):
        for sign in ("plus", "minus"):
            images = unitary_braid(BraidSpec(sign, 0.0))
            overlaps = np.abs(images.conj() @ bell_quartet().T)
            assert overlaps.max(axis=1) == pytest.approx(np.ones(4))

    def test_phi_pi_first_image(self):
        img = unitary_braid(BraidSpec("plus", math.pi))[0]
        expected = np.array([1, 0, 0, -1]) / SQ2
        overlap = abs(np.vdot(expected, img))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_images_orthonormal_all_phi(self):
        for sign in ("plus", "minus"):
            images = unitary_braid(BraidSpec(sign, np.array([0.0, 0.7, 2.0, 5.5])))
            grams = images.conj() @ images.swapaxes(-1, -2)
            assert np.linalg.norm(grams - np.eye(4), axis=(-2, -1)).max() < 1e-12

    def test_phi_phase_appears_on_outer_images(self):
        phi = 1.3
        images = unitary_braid(BraidSpec("plus", phi))
        assert images[0, 3] == pytest.approx(cmath.exp(1j * phi) / SQ2)
        assert images[3, 0] == pytest.approx(-cmath.exp(-1j * phi) / SQ2)


class TestOperators:
    def test_lift_on_bell_states(self):
        q = bell_quartet()
        s2 = tensor_product(strangeness_op(), strangeness_op())
        cp2 = tensor_product(cp_op(), cp_op())
        assert np.allclose(s2 @ q[0], q[0])
        assert np.allclose(cp2 @ q[1], -q[1])

    def test_strangeness_on_mixed_flavor(self):
        s2 = tensor_product(strangeness_op(), strangeness_op())
        e1 = np.eye(4)[1]  # |K Kbar>
        assert np.array_equal(s2 @ e1, -e1)

    def test_lifted_operators_commute_and_square_to_identity(self):
        s2 = tensor_product(strangeness_op(), strangeness_op())
        cp2 = tensor_product(cp_op(), cp_op())
        assert np.linalg.norm(s2 @ cp2 - cp2 @ s2) < 1e-15
        assert np.array_equal(s2 @ s2, np.eye(4))
        assert np.allclose(cp2 @ cp2, np.eye(4))

    def test_eigentable(self):
        # rows Φ₁..Φ₄, columns S⊗S and CP⊗CP
        table = cp_s_eigentable()
        assert table.dtype == float
        assert table.tolist() == [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]]

    def test_eigentable_rejects_a_non_eigenvector(self, monkeypatch):
        # (|KK⟩ + |KK̄⟩)/√2 is a unit vector with ⟨Ŝ⊗Ŝ⟩ = ⟨CP⊗CP⟩ = 0
        quartet = bell_quartet()
        quartet[0] = [1 / SQ2, 1 / SQ2, 0, 0]
        monkeypatch.setattr(states, "bell_quartet", lambda: quartet)
        with pytest.raises(ValidationError, match="^Phi1 is not an eigenvector"):
            cp_s_eigentable()


class TestCorrelation:
    def test_cp_cp_on_deformed_bell(self):
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            psi = deformed_bell(phi)
            assert correlation(psi, cp_op(), cp_op())[0] == pytest.approx(
                math.cos(phi), abs=1e-12
            )

    def test_s_s_on_deformed_bell(self):
        for phi in (0.0, 1.0, math.pi):
            s_s = correlation(deformed_bell(phi), strangeness_op(), strangeness_op())
            assert s_s[0] == pytest.approx(1.0)

    def test_s_s_on_phi3(self):
        q = bell_quartet()
        assert correlation(q[2], strangeness_op(), strangeness_op())[0] == pytest.approx(-1.0)

    def test_concurrence_phi_invariant(self):
        for phi in np.linspace(0.0, 2 * math.pi, 17):
            assert concurrence(deformed_bell(phi))[0] == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_hermitian(self):
        nan = np.array([[1.0, 0.0], [0.0, np.nan]])  # its Hermiticity residual is NaN
        for op in (np.array([[0, 1], [0, 0]]), np.eye(4), nan):
            for a, b in ((op, cp_op()), (cp_op(), op)):
                with pytest.raises(ValidationError):
                    correlation(bell_quartet()[0], a, b)

    def test_rejects_other_shapes(self):
        ops = np.stack([strangeness_op(), cp_op()])
        for a, b in ((ops, ops[:1]), (ops, cp_op()), (cp_op(), ops),
                     (ops[None], ops[None]), (np.eye(4)[None], np.eye(4)[None]),
                     (np.eye(2)[:, None], np.eye(2)[:, None])):
            with pytest.raises(ValidationError, match="requires 2x2 single-kaon operators"):
                correlation(bell_quartet(), a, b)
