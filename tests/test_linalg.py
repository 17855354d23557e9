import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from kaonbraid.linalg import (
    elementwise,
    hermiticity_residual,
    tensor_product,
    trace4,
    unitarity_residual,
)

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


class TestPredicates:
    def test_identity_unitary(self):
        assert unitarity_residual(np.eye(4)) == 0.0

    def test_scaled_identity_not_unitary(self):
        assert unitarity_residual(2.0 * np.eye(4)) == pytest.approx(6.0)  # ||4I - I||_F = 3 * 2

    def test_identity_hermitian(self):
        assert hermiticity_residual(np.eye(4)) == 0.0

    def test_anti_hermitian_not_hermitian(self):
        assert hermiticity_residual(1j * np.eye(4)) == pytest.approx(4.0)  # ||2i I||_F


class TestElementwise:
    def test_complex_in_complex_out(self):
        z = np.array([[complex(-0.0, -0.0), complex(-1e3, 2.0)], [complex(0.5, -3.0), 1j]])
        out = elementwise(cmath.exp, z)
        assert out.dtype == complex and out.shape == (2, 2)
        expected = np.array([cmath.exp(v) for v in z.ravel().tolist()]).reshape(2, 2)
        assert out.tobytes() == expected.tobytes()  # the zero signs too

    def test_real_input_stays_float(self):
        for a in (2, [0, 1], np.arange(3)):
            out = elementwise(math.exp, a)
            assert out.dtype == float and out.shape == np.shape(a)


# signed zeros and the smallest subnormals often enough that a diagonal of
# four -0.0 parts turns up; sums of four stay below overflow
PART = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1e300, -1e300])
        | st.floats(-1e300, 1e300))


@settings(deadline=None)
@given(m=hnp.arrays(complex,
                    st.sampled_from([(), (1,), (7,), (50,), (2, 3), (3, 1)])
                    .map(lambda lead: lead + (4, 4)),
                    elements=st.builds(complex, PART, PART)))
@example(m=np.full((4, 4), complex(-0.0, -0.0)))
@example(m=np.array([np.full((4, 4), complex(-0.0, 1.0)), np.full((4, 4), complex(2.0, -0.0))]))
def test_trace4_is_np_trace_bit_for_bit(m):
    expected = np.trace(m, axis1=-2, axis2=-1)
    got = trace4(m)
    assert type(got) is type(expected)
    assert np.atleast_1d(got).view(np.uint64).tolist() == \
        np.atleast_1d(expected).view(np.uint64).tolist()
