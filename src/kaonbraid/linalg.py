"""Small-dimension complex linear algebra: tensor products and Frobenius
residuals.

Everything here works on plain numpy arrays of shape (d, d) with
d in {2, 4, 8}, or on (N, d, d) stacks of them.  All functions are pure;
nothing mutates its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError, DomainError

ALLOWED_DIMS = (2, 4, 8)


def as_matrix(m, dim: int | None = None) -> np.ndarray:
    """Validate and return m as a complex square matrix of an allowed dimension,
    or as an (N, d, d) stack of them."""
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[-1]
    if d not in ALLOWED_DIMS:
        raise DimensionError(f"unsupported dimension {d}; allowed: {ALLOWED_DIMS}")
    if dim is not None and d != dim:
        raise DimensionError(f"expected dimension {dim}, got {d}")
    if not np.isfinite(a).all():
        raise DimensionError("matrix contains non-finite entries")
    return a


def elementwise(f, a):
    """A math-module function f of each element of a: a float for a number,
    an array of a's shape for an array.

    numpy's ufuncs are not math's bit for bit (numpy 2.4.6, 400,000 uniform
    draws: np.arctan differs from math.atan on 549 in [-10, 10], np.tan from
    math.tan on 2,022 in [-π/2, π/2]), so angles that a stack must share with
    its points taken one by one go through math."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 0:
        return f(a)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _nonnegative(a, name: str) -> np.ndarray:
    """a as a float array (0-d for a number); DomainError naming `name` and the
    first bad element unless every element is finite and >= 0."""
    a = np.asarray(a, dtype=float)
    bad = ~((a >= 0) & (a < math.inf))
    if bad.any():
        raise DomainError(f"{name} must be finite and >= 0, got {float(a[bad].flat[0])!r}")
    return a


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
    """Kronecker product of two matrices, or of two (N, ·, ·) stacks pair by pair
    (either side may be one matrix); the product dimension must be 4 or 8."""
    a = as_matrix(a)
    b = as_matrix(b)
    p, q = a.shape[-1], b.shape[-1]
    if p * q not in (4, 8):
        raise DimensionError(
            f"tensor product of dims {p} and {q} gives unsupported dimension {p * q}"
        )
    # entry (i·q + k, j·q + l) is a_ij·b_kl, the one multiply np.kron makes
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * q, p * q))


def unitarity_residual(m):
    """||m m† - I||_F, or an (N,) array of them for an (N, d, d) stack."""
    m = as_matrix(m)
    return frobenius(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]))


def hermiticity_residual(m):
    """||m - m†||_F, or an (N,) array of them for an (N, d, d) stack."""
    m = as_matrix(m)
    return frobenius(m - m.conj().swapaxes(-1, -2))
