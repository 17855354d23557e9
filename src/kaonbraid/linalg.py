"""Small-dimension complex linear algebra: tensor products, adjoints and
norm-based predicates.

Everything here works on plain numpy arrays of shape (d, d) with
d in {2, 4, 8}.  All functions are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError

ALLOWED_DIMS = (2, 4, 8)


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    """Validate and return m as a complex square matrix of an allowed dimension."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in ALLOWED_DIMS:
        raise DimensionError(f"unsupported dimension {a.shape[0]}; allowed: {ALLOWED_DIMS}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"expected dimension {dim}, got {a.shape[0]}")
    if not np.isfinite(a).all():
        raise DimensionError("matrix contains non-finite entries")
    return a


def dagger(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def frobenius(m):
    """Frobenius norm of a matrix, or an (N,) array of them for an (N, d, d) stack.

    sqrt(re·re + im·im) from one BLAS dot per part, as np.linalg.norm sums it,
    so a stack gets the bits of its matrices taken one by one."""
    a = np.asarray(m, dtype=complex)
    rows = a.reshape(a.shape[:-2] + (1, -1))
    re, im = rows.real, rows.imag
    norms = np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0]
    return norms if a.ndim > 2 else float(norms)


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices; the product dimension must be 4 or 8."""
    a = as_matrix(a)
    b = as_matrix(b)
    out_dim = a.shape[0] * b.shape[0]
    if out_dim not in (4, 8):
        raise DimensionError(
            f"tensor product of dims {a.shape[0]} and {b.shape[0]} gives "
            f"unsupported dimension {out_dim}"
        )
    return np.kron(a, b)


def unitarity_residual(m) -> float:
    """||m m† - I||_F."""
    m = as_matrix(m)
    return frobenius(m @ m.conj().T - np.eye(m.shape[0]))


def is_unitary(m, tol: float = 1e-12) -> tuple[bool, float]:
    """Predicate plus residual: (||m m† - I||_F <= tol, residual)."""
    r = unitarity_residual(m)
    return r <= tol, r


def hermiticity_residual(m) -> float:
    """||m - m†||_F."""
    m = as_matrix(m)
    return frobenius(m - m.conj().T)


def is_hermitian(m, tol: float = 1e-12) -> tuple[bool, float]:
    """Predicate plus residual: (||m - m†||_F <= tol, residual)."""
    r = hermiticity_residual(m)
    return r <= tol, r
