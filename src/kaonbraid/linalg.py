"""Small-dimension complex linear algebra: tensor products, one fixed-order
Euclidean norm (of states, and of matrices as Frobenius residuals) with no
BLAS call, the per-element functions that keep math's bits, and the one
rotation (cos α, sin α) of α = arctan t1 - arctan t0, in closed form.

Everything here works on plain numpy arrays of shape (d, d) or (4,), or on
(N, d, d) or (N, 4) stacks of them, whose shapes the callers know; nothing
checks them again.
All functions are pure; nothing mutates its inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError


def elementwise(f, a):
    """A math-module function f of each element of a, read as float: a float
    array of a's shape (0-d for a number).

    numpy's ufuncs are not math's bit for bit (numpy 2.4.6, 400,000 uniform
    draws: np.arctan differs from math.atan on 549 in [-10, 10]), so pow,
    which a stack must share with its points taken one by one, goes through
    math.  exp, cos and sin go through cexp instead, and expm1 through
    expm1."""
    a = np.asarray(a, dtype=float)
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


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
    into 0.0.  np.broadcast gives the shape without broadcast_arrays' views
    (a ValueError for shapes that do not broadcast), and the two assignments
    broadcast each part themselves."""
    z = np.empty(np.broadcast(re, im).shape, complex)
    z.real, z.imag = re, im
    return np.exp(z, out=z)


def expm1(x) -> np.ndarray:
    """e^x - 1 as a float array of x's shape (0-d for a number), with the bits
    of math.expm1 per element for every x <= 0 (-0.0 and -inf included).

    numpy's float np.expm1 is not math's (100,000 uniform draws in [-10, 10]:
    6,747 differ).  This is the real part of its complex np.expm1 on x + 0i,
    which numpy computes per element in C as expm1(x)·cos 0 - 2·sin²(0/2):
    the C library's expm1, which math.expm1 calls, times 1, minus 0."""
    z = np.zeros(np.shape(x), complex)
    z.real = x
    return np.expm1(z, out=z).real


def _unit(t):
    """(u, e) = (t·2^-k, 2^-k), k = max(0, frexp exponent of t), so that t =
    u/e exactly and |u| < 1; (±1, 0.0) for t = ±∞, whose frexp exponent is
    0: the clip takes u = ±∞ to ±1, and e is 0 where t is not finite.
    Python floats for a float t, float arrays of its shape for an array."""
    if isinstance(t, float):
        k = max(0, math.frexp(t)[1])
        return max(-1.0, min(math.ldexp(t, -k), 1.0)), math.isfinite(t) * math.ldexp(1.0, -k)
    k = np.frexp(t)[1].clip(0)
    return np.ldexp(t, -k).clip(-1.0, 1.0), np.isfinite(t) * np.ldexp(1.0, -k)


def rotation(t0: float, t1):
    """(cos α, sin α) of α = arctan t1 - arctan t0, for a number t0 and a
    number or an array t1: two floats for a number, two float arrays of t1's
    shape for an array; DomainError if t0 or any t1 is NaN.  A time may be
    ±∞ (arctan ±∞ = ±π/2).

    e^{iα} = z/|z| with z = (1 - i·t0)(1 + i·t1) = (1 + t0·t1) + i(t1 - t0).
    With each t = u/e from _unit, n = e0·e1 + u0·u1 and d = u1·e0 - u0·e1
    are z's parts times e0·e1, and cos α = n/h, sin α = d/h with h = √(n² +
    d²), which lies in [1/4, 2): nothing overflows, and at large, close
    times d is exact (Sterbenz), so nothing cancels.  At t1 = t0 this is
    exactly (1.0, 0.0).  Only +, -, ·, / and √, each correctly rounded, and
    the exact frexp and ldexp: no libm call, so no C library or CPU
    variant moves the bits, and a number, in Python floats at a fraction of
    numpy's per-call cost, has the bits of the same time in a stack.
    """
    t1 = np.asarray(t1, dtype=float)
    nan = np.isnan(t1)
    if math.isnan(t0) or nan.any():
        raise DomainError(f"times must not be NaN: t0={t0}, t1={float(t1.flat[nan.argmax()])}")
    t1, sqrt = (t1, np.sqrt) if t1.ndim else (float(t1), math.sqrt)
    (u0, e0), (u1, e1) = _unit(float(t0)), _unit(t1)
    n, d = e0 * e1 + u0 * u1, u1 * e0 - u0 * e1
    h = sqrt(n * n + d * d)
    return n / h, d / h


def _nonnegative(a, name: str) -> np.ndarray:
    """a as a float array (0-d for a number); DomainError naming `name` and the
    first bad element unless every element is finite and >= 0."""
    a = np.asarray(a, dtype=float)
    bad = ~((a >= 0) & (a < math.inf))
    if bad.any():
        raise DomainError(f"{name} must be finite and >= 0, got {float(a[bad].flat[0])!r}")
    return a


def norm(z):
    """Euclidean norm over the last axis of a complex array (0-d for a vector).

    The squared parts re₀², im₀², re₁², ..., padded with exact zeros to a
    power of two, are summed in neighbouring pairs level by level, with no
    BLAS call: for 4 amplitudes sqrt(((re₀² + im₀²) + (re₁² + im₁²)) + ...).
    So a stack gets the bits of its rows taken one by one under any BLAS
    kernel.  Nothing is rescaled: squares must neither overflow nor all
    underflow.  An empty last axis is one zero part: its norm is 0.0."""
    parts = np.ascontiguousarray(z, dtype=complex).view(float)
    sq = parts * parts
    n = sq.shape[-1]
    if n & (n - 1) or not n:
        sq = np.concatenate([sq, np.zeros(sq.shape[:-1] + ((1 << n.bit_length()) - n,))], -1)
    while sq.shape[-1] > 1:
        sq = sq[..., 0::2] + sq[..., 1::2]
    return np.sqrt(sq[..., 0])


def frobenius(m):
    """Frobenius norm of a matrix (0-d), or an (N,) array of them for an
    (N, d, d) stack: the norm of its entries read row by row."""
    return norm(np.reshape(m, np.shape(m)[:-2] + (-1,)))


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
