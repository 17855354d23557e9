"""Time evolution of two-kaon states under the braid-derived Hamiltonians.

Let N = b - I.  Since b² - 2b + 2I = 0 and b + b† = 2I, N = b̃² (b̃ = b/√2),
N² = -I and N† = -N.  The generator is the constant Hermitian H₀ = -i·b̃²
= -i·N (so H₀² = I) with the even scalar envelope f(t) = 1/(1+t²):

    H±(t) = f(t)·H₀.

All H(t) commute and H₀² = I, so the exact propagator from t0 to t1 is

    U(t0, t1) = exp(-i·α·H₀) = cos α·I - sin α·N,  α = arctan t1 - arctan t0,

which also coincides with the relative action R̃(θ(t))·R̃(0)⁻¹ of the unitary
spectral family (both equal exp(-θ·b̃²) since b̃⁴ = -I).  Only cos α and
sin α are used, and linalg.rotation takes them in closed form from t0 and
t1, with no arctan: α itself is never formed.  N's nonzero entries
are b's off-diagonal ones, all on the anti-diagonal: q and -1/q at (0, 3)
and (3, 0), ±1 at (1, 2) and (2, 1).  So a state evolves as
ψ(t) = cos α·ψ₀ - sin α·(N·ψ₀) on two real numbers per time (evolve_state),
and every matrix here is built from the one N of _generator.
"""

from __future__ import annotations

import numpy as np

from . import braid
from .braid import BraidSpec, unitary_r
from .linalg import _nonnegative, frobenius, norm, rotation
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


def propagator(spec: BraidSpec, t0: float, t1) -> np.ndarray:
    """Exact unitary propagator cos α·I - sin α·N, α = arctan t1 - arctan t0,
    from linalg.rotation's cos α and sin α.

    An array of t1 that broadcasts against an array-φ spec gives the stack of
    shape broadcast(t1, φ) + (4, 4), from one N per φ.  Infinite times are
    allowed (arctan ±∞ = ±π/2); NaN raises DomainError.
    """
    c, s = np.asarray(rotation(t0, t1))[..., None, None]
    return c * np.eye(4) - s * _generator(spec)


def evolve_state(state0, spec: BraidSpec, t0: float, t1) -> np.ndarray:
    """U(t0, t1)·ψ₀ = cos α·ψ₀ - sin α·(N·ψ₀) for the 4 amplitudes ψ₀ = state0,
    which are not validated: 4 amplitudes for a number t1, shape
    t1.shape + (4,) for an array.  Times as in propagator.

    No matrix product: N·ψ₀ is the four products (q·ψ₃, σ·ψ₂, -σ·ψ₁, -ψ₀/q)
    of N's anti-diagonal with ψ₀ reversed, each with the parts of Python's
    complex product.  Each part of each row is then c·x - s·y from c, s =
    cos α, sin α of linalg.rotation, plus 0.0 so that a zero is +0.0 and
    prints as 0.  A row has the bits of its time taken alone.
    """
    c, s = np.asarray(rotation(t0, t1))[..., None]
    psi0 = np.ascontiguousarray(state0, dtype=complex)
    n, p = _generator(spec)[..., ::-1].diagonal(0, -2, -1), psi0[::-1]
    # part by part: numpy's complex multiply may fuse a·c - b·d (FMA)
    n_psi0 = np.empty(n.shape, complex)
    n_psi0.real = n.real * p.real - n.imag * p.imag
    n_psi0.imag = n.real * p.imag + n.imag * p.real
    # a complex 4-vector read as float is its 8 parts: re_a0, im_a0, re_a1, ...
    parts = c * psi0.view(float)
    parts -= s * n_psi0.view(float)
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
