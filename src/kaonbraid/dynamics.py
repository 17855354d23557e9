"""Time evolution of two-kaon states under the braid-derived Hamiltonians.

The generator is the constant Hermitian H₀ = -i·b̃² (so H₀² = I) with the
even scalar envelope f(t) = 1/(1+t²):

    H±(t) = f(t)·H₀.

All H(t) commute and H₀² = I, so the exact propagator from t0 to t1 is

    U(t0, t1) = exp(-i·α·H₀) = cos α·I - i·sin α·H₀,  α = arctan t1 - arctan t0
    (taken without cancellation, see _rotation_angle),

which also coincides with the relative action R̃(θ(t))·R̃(0)⁻¹ of the unitary
spectral family (both equal exp(-θ·b̃²) since b̃⁴ = -I).
"""

from __future__ import annotations

import math

import numpy as np

from .braid import BraidSpec, unitary_braid, unitary_r
from .errors import DomainError
from .linalg import _nonnegative, cexp, elementwise, frobenius
from .states import state_stack


def hamiltonian_generator(spec: BraidSpec) -> np.ndarray:
    """H₀ = -i·b̃±²(φ): Hermitian with H₀² = I."""
    bt = unitary_braid(spec)
    return -1j * (bt @ bt)


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
    """α = arctan t1 - arctan t0 per element of the array t1 (a float for a
    0-d t1), for times that are not NaN.

    Where t0·t1 > 0 the difference cancels as both angles near ±π/2 (11%
    off at t0 = 1e8, t1 = 1e8 + 10), so α is arctan((t1 - t0)/(1 + t0·t1))
    there, which needs no branch as |α| < π/2.  Where t0·t1 overflows this is
    arctan(((t1 - t0)/t1)/t0), and where a time is infinite (arctan ±∞ =
    ±π/2) arctan(1/t0 - 1/t1), in which 1/∞ is 0.  Where t0·t1 <= 0,
    t0 = 0 included, the difference has no cancellation and stays.
    """
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
    """Exact unitary propagator cos α·I - i·sin α·H₀, α = arctan t1 - arctan t0
    (_rotation_angle).

    An array of t1 that broadcasts against an array-φ spec gives the stack of
    shape broadcast(t1, φ) + (4, 4), from one H₀ per φ.  Infinite times are
    allowed (arctan ±∞ = ±π/2); NaN raises DomainError.
    """
    t1 = np.asarray(t1, dtype=float)
    nan = np.isnan(t1)
    if math.isnan(t0) or nan.any():
        raise DomainError(f"times must not be NaN: t0={t0}, t1={float(t1.flat[nan.argmax()])}")
    angle = _rotation_angle(t0, t1)
    rot = cexp(0.0, angle)[..., None, None]
    return rot.real * np.eye(4) - (1j * rot.imag) * hamiltonian_generator(spec)


def schrodinger_residual(state0, spec: BraidSpec, t):
    """Central-difference check, with step dt = 1e-5, of i·dΨ/dt = H(t)·Ψ(t)
    along the propagated trajectory starting from state0 at time 0.

    One residual per row of state_stack(state0) and per time: an array of
    shape (N,) + t.shape."""
    dt = 1e-5
    psi, t = state_stack(state0), np.asarray(t, dtype=float)
    # U @ (4, 1) column: numpy's matrix-vector path, as for one state vector
    ahead, behind, now = (propagator(spec, 0.0, [t + dt, t - dt, t])[..., None, :, :]
                          @ psi[:, :, None])[..., 0]
    deriv = 1j * (ahead - behind) / (2.0 * dt)
    drift = deriv - (hamiltonian_at(spec, t)[..., None, :, :] @ now[..., None])[..., 0]
    return np.moveaxis(frobenius(drift[..., None, :]), -1, 0)


def r_vs_hamiltonian_consistency(spec: BraidSpec, t):
    """||R̃(θ(t))·R̃(0)⁻¹ - U(0, t)||_F: relative spectral-family evolution
    against the Hamiltonian propagator, for a finite t >= 0; an array of t
    that broadcasts against an array-φ spec gives an array of that shape."""
    t = _nonnegative(t, "time t")
    relative = unitary_r(spec, t) @ unitary_r(spec, 0.0).conj().swapaxes(-1, -2)
    return frobenius(relative - propagator(spec, 0.0, t))
