"""Time evolution of two-kaon states under the braid-derived Hamiltonians.

The generator is the constant Hermitian H₀ = -i·b̃² (so H₀² = I) with the
even scalar envelope f(t) = 1/(1+t²):

    H±(t) = f(t)·H₀.

All H(t) commute and H₀² = I, so the exact propagator from t0 to t1 is

    U(t0, t1) = exp(-i·α·H₀) = cos α·I - i·sin α·H₀,  α = arctan t1 - arctan t0,

which also coincides with the relative action R̃(θ(t))·R̃(0)⁻¹ of the unitary
spectral family (both equal exp(-θ·b̃²) since b̃⁴ = -I).
"""

from __future__ import annotations

import math

import numpy as np

from .braid import BraidSpec, unitary_braid, unitary_r
from .errors import DomainError
from .linalg import _nonnegative, elementwise, frobenius
from .states import TwoKaonState, state_stack


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


def propagator(spec: BraidSpec, t0: float, t1) -> np.ndarray:
    """Exact unitary propagator cos α·I - i·sin α·H₀, α = arctan t1 - arctan t0.

    An array of t1 gives the (N, 4, 4) stack, from one H₀.  Infinite times are
    allowed (arctan ±∞ = ±π/2); NaN raises DomainError.
    """
    t1 = np.asarray(t1, dtype=float)
    nan = np.isnan(t1)
    if math.isnan(t0) or nan.any():
        raise DomainError(f"times must not be NaN: t0={t0}, t1={float(t1.flat[nan.argmax()])}")
    # math, not numpy, per element: each row then has the bits of its own call
    angle = elementwise(math.atan, t1) - math.atan(t0)
    cos, sin = elementwise(math.cos, angle), elementwise(math.sin, angle)
    h0 = hamiltonian_generator(spec)
    return np.multiply.outer(cos, np.eye(4)) - np.multiply.outer(1j * sin, h0)


def evolve_state(
    state: TwoKaonState, spec: BraidSpec, t0: float, t1: float
) -> TwoKaonState:
    """Apply the propagator from t0 to t1; norm is preserved."""
    return TwoKaonState(propagator(spec, t0, t1) @ state.vector)


def schrodinger_residual(state0, spec: BraidSpec, t, dt: float = 1e-5):
    """Central-difference check of i·dΨ/dt = H(t)·Ψ(t) along the propagated
    trajectory starting from state0 at time 0.

    A TwoKaonState and a number t give a float; amplitudes (see state_stack)
    give one residual per state and an array of t one per time, in an array
    of shape (N,) + t.shape (t.shape for a TwoKaonState)."""
    if not 0 < dt <= 1e-3:
        raise ValueError("dt must satisfy 0 < dt <= 1e-3")
    psi, t = state_stack(state0), np.asarray(t, dtype=float)
    # U @ (4, 1) column: numpy's matrix-vector path, as for one state vector
    ahead, behind, now = (propagator(spec, 0.0, [t + dt, t - dt, t])[..., None, :, :]
                          @ psi[:, :, None])[..., 0]
    deriv = 1j * (ahead - behind) / (2.0 * dt)
    drift = deriv - (hamiltonian_at(spec, t)[..., None, :, :] @ now[..., None])[..., 0]
    residual = np.moveaxis(frobenius(drift[..., None, :]), -1, 0)
    residual = residual[0] if isinstance(state0, TwoKaonState) else residual
    return residual if residual.ndim else float(residual)


def r_vs_hamiltonian_consistency(spec: BraidSpec, t):
    """||R̃(θ(t))·R̃(0)⁻¹ - U(0, t)||_F: relative spectral-family evolution
    against the Hamiltonian propagator, for a finite t >= 0; an array of t
    gives an array."""
    t = _nonnegative(t, "time t")
    relative = unitary_r(spec, t) @ unitary_r(spec, 0.0).conj().T
    return frobenius(relative - propagator(spec, 0.0, t))


def hamiltonian_action_report(spec: BraidSpec) -> list[tuple[str, complex, complex]]:
    """Diagnostic for the printed basis-action claim at t = 1.

    The claimed image pattern has a single nonzero component per basis state
    with coefficients (-e^{-iφ}, ∓1, ±1, e^{-iφ}) on (K̄K̄, K̄K, KK̄, KK) up to
    an overall constant.  Returns, per basis state, the label of the claimed
    target component together with (computed coefficient / (1/2), claimed
    coefficient); discrepancies are reported, never absorbed.
    """
    from .states import BASIS_LABELS

    h1 = hamiltonian_at(spec, 1.0)
    q = spec.q
    s = spec.sigma
    # claimed (target index, coefficient) for basis states 0..3
    claimed = [(3, -1.0 / q), (2, -s + 0j), (1, s + 0j), (0, 1.0 / q)]
    rows = []
    for col, (target, coeff) in enumerate(claimed):
        image = h1 @ np.eye(4)[col]
        rows.append((BASIS_LABELS[target], 2.0 * complex(image[target]), coeff))
    return rows
