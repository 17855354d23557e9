import numpy as np
import pytest

from kaonbraid.errors import DimensionError
from kaonbraid.linalg import hermiticity_residual, tensor_product, unitarity_residual

RNG = np.random.default_rng(42)


def random_complex(dim):
    return RNG.normal(size=(dim, dim)) + 1j * RNG.normal(size=(dim, dim))


class TestTensorProduct:
    def test_identity(self):
        assert np.array_equal(tensor_product(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        d = np.diag([1.0, -1.0])
        expected = np.diag([1.0, -1.0, -1.0, 1.0])
        assert np.array_equal(tensor_product(d, d), expected)

    def test_mixed_product_property(self):
        for _ in range(20):
            a, b, c, d = (random_complex(2) for _ in range(4))
            lhs = tensor_product(a, b) @ tensor_product(c, d)
            rhs = tensor_product(a @ c, b @ d)
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_acts_on_product_vectors(self):
        for _ in range(10):
            a, b = random_complex(2), random_complex(2)
            u = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            v = RNG.normal(size=2) + 1j * RNG.normal(size=2)
            lhs = tensor_product(a, b) @ np.kron(u, v)
            rhs = np.kron(a @ u, b @ v)
            assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_bilinear(self):
        a, b, c = random_complex(2), random_complex(2), random_complex(2)
        lhs = tensor_product(a + 2.0 * b, c)
        rhs = tensor_product(a, c) + 2.0 * tensor_product(b, c)
        assert np.linalg.norm(lhs - rhs) < 1e-12

    def test_unsupported_product_dim(self):
        with pytest.raises(DimensionError):
            tensor_product(np.eye(4), np.eye(4))
        with pytest.raises(DimensionError):
            tensor_product(np.eye(8), np.eye(2))


class TestPredicates:
    def test_identity_unitary(self):
        assert unitarity_residual(np.eye(4)) == 0.0

    def test_scaled_identity_not_unitary(self):
        assert unitarity_residual(2.0 * np.eye(4)) == pytest.approx(6.0)  # ||4I - I||_F = 3 * 2

    def test_identity_hermitian(self):
        assert hermiticity_residual(np.eye(4)) == 0.0

    def test_anti_hermitian_not_hermitian(self):
        assert hermiticity_residual(1j * np.eye(4)) == pytest.approx(4.0)  # ||2i I||_F

    def test_rejects_nonfinite(self):
        m = np.eye(4, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(DimensionError):
            unitarity_residual(m)
