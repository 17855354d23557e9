"""The paper's identities, proved exactly with sympy for every φ, x and y.

The entries of b±(φ) are 0, ±1, q and -1/q with q = e^{iφ}.  On |q| = 1 the
conjugate of q is 1/q, so b† is bᵀ with q ↦ 1/q, and R(x) = b + x·b† has
entries in ℤ[x, q, 1/q].  Each identity below is then an equality of
Laurent polynomials with integer coefficients, which `expand` settles: where
`verify` checks them in floating point at the nodes of a grid, this states
them for all φ.  Only the last test ties the symbols to the library's own
matrices.
"""

import cmath

import numpy as np
import pytest
import sympy as sp

from kaonbraid.braid import BraidSpec, braid_matrix
from kaonbraid.verify import PHI_NODES

q = sp.Symbol("q", nonzero=True)
x, y, t = sp.symbols("x y t", positive=True)
I2, I4 = sp.eye(2), sp.eye(4)
SIGMA = {"plus": 1, "minus": -1}


def b_symbolic(sigma, corrected=True):
    """b±(φ) with q symbolic; corrected=False puts the misprinted 1 at (3, 4)."""
    return sp.Matrix([[1, 0, 0, q],
                      [0, 1, sigma, 0],
                      [0, -sigma, 1, 0 if corrected else 1],
                      [-1 / q, 0, 0, 1]])


def dagger(m):
    """m† for entries in ℤ[x, y, t, q, 1/q] with x, y, t real and conj(q) = 1/q."""
    return m.T.subs(q, 1 / q)


def is_zero(m):
    return sp.expand(m) == sp.zeros(*m.shape)


def braid_residual(b):
    b1, b2 = sp.kronecker_product(b, I2), sp.kronecker_product(I2, b)
    return b1 * b2 * b1 - b2 * b1 * b2


@pytest.fixture(params=sorted(SIGMA))
def sign(request):
    return request.param


@pytest.fixture
def b(sign):
    return b_symbolic(SIGMA[sign])


def r(b, z):
    """R(z) = b + z·b†, the Yang-Baxterization of b (2b⁻¹ = b†)."""
    return b + z * dagger(b)


def test_b_over_sqrt2_is_unitary(b):
    assert is_zero(b * dagger(b) - 2 * I4)


def test_b_plus_b_dagger(b):
    assert is_zero(b + dagger(b) - 2 * I4)


def test_minimal_polynomial(b):
    # so every eigenvalue of b is 1 + i or 1 - i
    assert is_zero(b * b - 2 * b + 2 * I4)


def test_trace(b):
    # with the minimal polynomial, two eigenvalues are 1 + i and two 1 - i
    assert sp.expand(b.trace()) == 4


def test_unitary_braid_fourth_power_and_generator_square(b):
    # b̃ = b/√2: b̃⁴ = -I, and H₀ = -i·b̃² squares to I
    assert is_zero(b**4 + 4 * I4)
    h0 = -sp.I * b * b / 2
    assert is_zero(h0 * h0 - I4)


def test_generator_is_b_minus_identity(b):
    # N = b - I is b̃² = b·b/2, so H₀ = -i·N and U = cos α·I - sin α·N
    n = b - I4
    assert is_zero(b * b / 2 - n)
    assert is_zero(n * n + I4)
    assert is_zero(dagger(n) + n)


def test_braid_relation(b):
    assert is_zero(braid_residual(b))


def test_qybe(b):
    def r1(z):
        return sp.kronecker_product(r(b, z), I2)

    def r2(z):
        return sp.kronecker_product(I2, r(b, z))

    assert is_zero(r1(x) * r2(x * y) * r1(y) - r2(y) * r1(x * y) * r2(x))


def test_inversion_relation(b):
    # rho-report's closed_form column
    assert is_zero(r(b, t) * r(b, 1 / t) - 2 * (t + 1 / t) * I4)


def test_misprinted_matrix_fails_the_braid_relation(sign):
    assert not is_zero(braid_residual(b_symbolic(SIGMA[sign], corrected=False)))


def test_symbols_are_the_library_matrices(sign):
    numeric = sp.lambdify(q, b_symbolic(SIGMA[sign]), "numpy")
    expected = np.array([numeric(cmath.exp(1j * phi)) for phi in PHI_NODES.tolist()])
    assert np.allclose(braid_matrix(BraidSpec(sign, PHI_NODES)), expected, rtol=0, atol=1e-15)
