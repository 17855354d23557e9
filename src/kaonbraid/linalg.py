"""Small-dimension complex linear algebra: tensor products and Frobenius
residuals, and the per-element functions that keep math's bits.

Everything here works on plain numpy arrays of shape (d, d), or on (N, d, d)
stacks of them, whose shapes the callers know; nothing checks them again.
All functions are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def elementwise(f, a):
    """A math-module function f of each element of a: an array of a's shape
    (0-d for a number).  A complex a takes a cmath function and gives a
    complex array; anything else is read as float.

    numpy's ufuncs are not math's bit for bit (numpy 2.4.6, 400,000 uniform
    draws: np.arctan differs from math.atan on 549 in [-10, 10]; 100,000
    draws: np.expm1 from math.expm1 on 6,747 in [-10, 10]), so atan, expm1
    and pow, which a stack must share with its points taken one by one, go
    through math.  exp, cos and sin go through cexp instead."""
    kind = complex if np.iscomplexobj(a) else float
    a = np.asarray(a, dtype=kind)
    return np.fromiter(map(f, a.ravel().tolist()), kind, a.size).reshape(a.shape)


def cexp(re, im) -> np.ndarray:
    """e^{re + i·im} as a complex array of the broadcast shape (0-d for two
    numbers), with the bits of cmath.exp(complex(re, im)) per element for
    every re <= 0 (-inf included) and finite im.  So cexp(x, 0.0).real is
    math.exp(x), and cexp(0.0, θ) is math.cos(θ) + i·math.sin(θ).

    numpy's complex exp is not its SIMD float exp: it calls the C library's
    cexp per element, in C, and glibc's cexp is exp(re)·(cos im + i·sin im)
    from the exp, cos and sin that math calls, as cmath.exp is.  Above
    re ≈ 708.4 the two rescale by e at different points (CPython above
    log(DBL_MAX/4), glibc above 709), so there the bits may differ.  The
    parts are set one by one: re + 1j·im would turn a -0.0 imaginary part
    into 0.0."""
    re, im = np.broadcast_arrays(re, im)
    z = np.empty(re.shape, complex)
    z.real, z.imag = re, im
    return np.exp(z, out=z)


def _nonnegative(a, name: str) -> np.ndarray:
    """a as a float array (0-d for a number); DomainError naming `name` and the
    first bad element unless every element is finite and >= 0."""
    a = np.asarray(a, dtype=float)
    bad = ~((a >= 0) & (a < math.inf))
    if bad.any():
        raise DomainError(f"{name} must be finite and >= 0, got {float(a[bad].flat[0])!r}")
    return a


def frobenius(m):
    """Frobenius norm of a matrix (0-d), or an (N,) array of them for an
    (N, d, d) stack.

    sqrt(re·re + im·im) from one BLAS dot per part, as np.linalg.norm sums it,
    so a stack gets the bits of its matrices taken one by one."""
    a = np.asarray(m, dtype=complex)
    rows = a.reshape(a.shape[:-2] + (1, -1))
    re, im = rows.real, rows.imag
    return np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0]


def trace4(m):
    """Trace of a 4x4 matrix (a complex scalar), or an array of them for a
    stack, with the bits of np.trace(m, axis1=-2, axis2=-1).

    np.trace reduces the strided diagonal through numpy's generic reduction:
    0.18 ms on a (1000, 4, 4) stack where these four adds take 0.01 ms (numpy
    2.4.6 on a 2-vCPU Xeon).  The order is fixed: np.trace starts from add's
    identity +0.0 and adds the four entries as numpy's pairwise sum does 8
    floats, (d0 + d1) + (d2 + d3) in each part.  ((d0 + d1) + d2) + d3, einsum, or a sum of the real and
    imaginary parts apart differ from it in the last bit, and without the
    leading 0.0 a part whose four entries are -0.0 would sum to -0.0."""
    d = m.diagonal(0, -2, -1)
    return 0.0 + ((d[..., 0] + d[..., 1]) + (d[..., 2] + d[..., 3]))


def tensor_product(a, b) -> np.ndarray:
    """Kronecker product of two matrices, or of two (N, ·, ·) stacks pair by pair
    (either side may be one matrix)."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    p, q = a.shape[-1], b.shape[-1]
    # entry (i·q + k, j·q + l) is a_ij·b_kl, the one multiply np.kron makes
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (p * q, p * q))


def unitarity_residual(m):
    """||m m† - I||_F, or an (N,) array of them for an (N, d, d) stack."""
    m = np.asarray(m, dtype=complex)
    return frobenius(m @ m.conj().swapaxes(-1, -2) - np.eye(m.shape[-1]))


def hermiticity_residual(m):
    """||m - m†||_F, or an (N,) array of them for an (N, d, d) stack."""
    m = np.asarray(m, dtype=complex)
    return frobenius(m - m.conj().swapaxes(-1, -2))
