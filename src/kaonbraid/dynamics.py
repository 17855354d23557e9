"""Time evolution of two-kaon states under the braid-derived Hamiltonians.

Let N = b - I.  Since b² - 2b + 2I = 0 and b + b† = 2I, N = b̃² (b̃ = b/√2),
N² = -I and N† = -N.  The generator is the constant Hermitian H₀ = -i·b̃²
= -i·N (so H₀² = I) with the even scalar envelope f(t) = 1/(1+t²):

    H±(t) = f(t)·H₀.

All H(t) commute and H₀² = I, so the exact propagator from t0 to t1 is

    U(t0, t1) = exp(-i·α·H₀) = cos α·I - sin α·N,  α = arctan t1 - arctan t0
    (taken without cancellation, see _rotation_angle),

which also coincides with the relative action R̃(θ(t))·R̃(0)⁻¹ of the unitary
spectral family (both equal exp(-θ·b̃²) since b̃⁴ = -I).  N's nonzero entries
are b's off-diagonal ones, all on the anti-diagonal: q and -1/q at (0, 3)
and (3, 0), ±1 at (1, 2) and (2, 1).  So a state evolves as
ψ(t) = cos α·ψ₀ - sin α·(N·ψ₀) on two real numbers per time (evolve_state),
and every matrix here is built from the one N of _generator.
"""

from __future__ import annotations

import math

import numpy as np

from . import braid
from .braid import BraidSpec, unitary_r
from .errors import DomainError
from .linalg import _nonnegative, cexp, elementwise, frobenius, norm
from .states import state_stack


def _generator(spec: BraidSpec) -> np.ndarray:
    """N = b - I, or the stack of them for an array-φ spec.  b comes through
    the braid module, so that a braid_matrix patched there reaches it."""
    return braid.braid_matrix(spec) - np.eye(4)


def hamiltonian_generator(spec: BraidSpec) -> np.ndarray:
    """H₀ = -i·N = -i·b̃±²(φ): Hermitian with H₀² = I."""
    return -1j * _generator(spec)


def envelope(t: float) -> float:
    """f(t) = 1/(1+t²); even in t."""
    # t² overflows for |t| > 1.3e154, and f is then 0, as with Python floats
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + t * t)


def hamiltonian_at(spec: BraidSpec, t) -> np.ndarray:
    """H±(t) = f(t)·H₀; Hermitian for all t, equal at ±t.  An array of t gives
    the stack of shape t.shape + H₀.shape, from one H₀."""
    return np.multiply.outer(envelope(np.asarray(t, dtype=float)), hamiltonian_generator(spec))


def _rotation_angle(t0: float, t1) -> np.ndarray:
    """α = arctan t1 - arctan t0 per element of t1, a number or an array (a
    float for a number); DomainError if t0 or any t1 is NaN.

    Where t0·t1 > 0 the difference cancels as both angles near ±π/2 (11%
    off at t0 = 1e8, t1 = 1e8 + 10), so α is arctan((t1 - t0)/(1 + t0·t1))
    there, which needs no branch as |α| < π/2.  Where t0·t1 overflows this is
    arctan(((t1 - t0)/t1)/t0), and where a time is infinite (arctan ±∞ =
    ±π/2) arctan(1/t0 - 1/t1), in which 1/∞ is 0.  Where t0·t1 <= 0,
    t0 = 0 included, the difference has no cancellation and stays.
    """
    t1 = np.asarray(t1, dtype=float)
    nan = np.isnan(t1)
    if math.isnan(t0) or nan.any():
        raise DomainError(f"times must not be NaN: t0={t0}, t1={float(t1.flat[nan.argmax()])}")
    if t1.ndim == 0:
        return _angle_of_floats(t0, float(t1))
    # math, not numpy, per element: each row then has the bits of its own call
    if t0 == 0:
        return elementwise(math.atan, t1) - math.atan(t0)
    # 0·∞, ∞ - ∞, ∞/∞ and 1/0 come up only where t0·t1 is not > 0 or is
    # infinite, and those entries are dropped or replaced
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        prod = t0 * t1
        arg = (t1 - t0) / (1.0 + prod)
        if prod.min(initial=math.inf) > 0 and prod.max(initial=0.0) < math.inf:
            return elementwise(math.atan, arg)
        same = prod > 0
        big = same & np.isinf(prod)
        tb = t1[big]
        arg[big] = np.where(np.isinf(tb) | math.isinf(t0), 1.0 / t0 - 1.0 / tb,
                            (tb - t0) / tb / t0)
    angle = elementwise(math.atan, np.where(same, arg, t1))
    return np.where(same, angle, angle - math.atan(t0))


def _angle_of_floats(t0: float, t1: float) -> float:
    """_rotation_angle at one t1, in Python floats: the same operations, so
    the same bits, without the per-call cost of a dozen numpy calls."""
    prod = t0 * t1
    if not prod > 0:
        return math.atan(t1) - math.atan(t0)
    if math.isinf(t0) or math.isinf(t1):
        return math.atan(1.0 / t0 - 1.0 / t1)
    if math.isinf(prod):
        return math.atan((t1 - t0) / t1 / t0)
    return math.atan((t1 - t0) / (1.0 + prod))


def propagator(spec: BraidSpec, t0: float, t1) -> np.ndarray:
    """Exact unitary propagator cos α·I - sin α·N, α = arctan t1 - arctan t0
    (_rotation_angle).

    An array of t1 that broadcasts against an array-φ spec gives the stack of
    shape broadcast(t1, φ) + (4, 4), from one N per φ.  Infinite times are
    allowed (arctan ±∞ = ±π/2); NaN raises DomainError.
    """
    rot = cexp(0.0, _rotation_angle(t0, t1))[..., None, None]
    return rot.real * np.eye(4) - rot.imag * _generator(spec)


def evolve_state(state0, spec: BraidSpec, t0: float, t1) -> np.ndarray:
    """U(t0, t1)·ψ₀ = cos α·ψ₀ - sin α·(N·ψ₀) for the 4 amplitudes ψ₀ = state0,
    which are not validated: 4 amplitudes for a number t1, shape
    t1.shape + (4,) for an array.  Times as in propagator.

    No matrix product: N·ψ₀ is the four products (q·ψ₃, σ·ψ₂, -σ·ψ₁, -ψ₀/q)
    of N's anti-diagonal with ψ₀ reversed, each with the parts of Python's
    complex product.  Each part of each row is then c·x - s·y from the parts
    c, s of cexp(0.0, α), plus 0.0 so that a zero is +0.0 and prints as 0.
    A row has the bits of its time taken alone.
    """
    rot = cexp(0.0, _rotation_angle(t0, t1))[..., None]
    psi0 = np.ascontiguousarray(state0, dtype=complex)
    n, p = _generator(spec)[..., ::-1].diagonal(0, -2, -1), psi0[::-1]
    # part by part: numpy's complex multiply may fuse a·c - b·d (FMA)
    n_psi0 = np.empty(n.shape, complex)
    n_psi0.real = n.real * p.real - n.imag * p.imag
    n_psi0.imag = n.real * p.imag + n.imag * p.real
    # a complex 4-vector read as float is its 8 parts: re_a0, im_a0, re_a1, ...
    parts = rot.real * psi0.view(float)
    parts -= rot.imag * n_psi0.view(float)
    parts += 0.0
    return parts.view(complex)


def schrodinger_residual(state0, spec: BraidSpec, t):
    """Central-difference check, with step dt = 1e-5, of i·dΨ/dt = H(t)·Ψ(t)
    along the propagated trajectory starting from state0 at time 0.

    One residual per row of state_stack(state0) and per point of t broadcast
    against an array-φ spec, as in propagator: an array of shape (N,) +
    broadcast(t, φ).  H(t) = f(t)·H₀ takes hamiltonian_at's products, one f
    per point."""
    dt = 1e-5
    psi, t = state_stack(state0), np.asarray(t, dtype=float)
    # the axis of the three times goes ahead of the spec's axes
    t = t.reshape((1,) * (np.ndim(spec.q) - t.ndim) + t.shape)
    # U @ (4, 1) column: numpy's matrix-vector path, as for one state vector
    ahead, behind, now = (propagator(spec, 0.0, [t + dt, t - dt, t])[..., None, :, :]
                          @ psi[:, :, None])[..., 0]
    deriv = 1j * (ahead - behind) / (2.0 * dt)
    h = envelope(t)[..., None, None] * hamiltonian_generator(spec)
    drift = deriv - (h[..., None, :, :] @ now[..., None])[..., 0]
    return np.moveaxis(norm(drift), -1, 0)


def r_vs_hamiltonian_consistency(spec: BraidSpec, t):
    """||R̃(θ(t))·R̃(0)⁻¹ - U(0, t)||_F: relative spectral-family evolution
    against the Hamiltonian propagator, for a finite t >= 0; an array of t
    that broadcasts against an array-φ spec gives an array of that shape."""
    t = _nonnegative(t, "time t")
    # R̃(t) and R̃(0) from one call: their axis goes ahead of the spec's axes
    x = np.stack([t, np.zeros(t.shape)])
    r_t, r_0 = unitary_r(spec, x.reshape((2,) + (1,) * (np.ndim(spec.q) - t.ndim) + t.shape))
    relative = r_t @ r_0.conj().swapaxes(-1, -2)
    return frobenius(relative - propagator(spec, 0.0, t))
