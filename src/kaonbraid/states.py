"""Two-kaon states, Bell structure, entanglement and symmetry operators.

Canonical basis order everywhere: (|KK⟩, |KK̄⟩, |K̄K⟩, |K̄K̄⟩).  Amplitude
vectors (a0, a1, a2, a3) refer to this order; conventions that label the
middle components the other way round are translated at the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .linalg import cexp, hermiticity_residual, norm, tensor_product

BASIS_LABELS = ("KK", "KKbar", "KbarK", "KbarKbar")

NORM_TOL = 1e-9

_SQ2 = math.sqrt(2.0)


def state_stack(psi) -> np.ndarray:
    """Validate 4 amplitudes or an (N, 4) stack of them once (shape, finite, unit
    norm); return the (N, 4) array (N = 1 for 4 amplitudes)."""
    a = np.asarray(psi, dtype=complex)
    if a.ndim not in (1, 2) or a.shape[-1] != 4:
        raise ValidationError("a two-kaon state needs exactly 4 amplitudes")
    a = a.reshape(-1, 4)
    # an amplitude past ~1e154 squares to inf, and the norm check below fails it
    with np.errstate(over="ignore"):
        norms = norm(a)
    off = np.abs(norms - 1.0)
    if not off.max(initial=0.0) <= NORM_TOL:  # a NaN or inf amplitude fails here too
        if not np.isfinite(a).all():
            raise ValidationError("amplitudes must be finite")
        raise ValidationError(f"state is not normalized: ||a|| = {norms[off > NORM_TOL][0]:.12g}")
    return a


@dataclass(frozen=True)
class TwoKaonState:
    """Unit vector of four complex amplitudes over the canonical basis: the
    parsed initial state of `evolve`.  The kernels take amplitude arrays."""

    amplitudes: tuple

    def __init__(self, amplitudes):
        a = state_stack(np.asarray(amplitudes, dtype=complex).reshape(-1))
        object.__setattr__(self, "amplitudes", tuple(a[0]))

    @property
    def vector(self) -> np.ndarray:
        return np.array(self.amplitudes, dtype=complex)


def strangeness_op() -> np.ndarray:
    """Single-kaon strangeness: Ŝ|K⟩ = +|K⟩, Ŝ|K̄⟩ = -|K̄⟩."""
    return np.diag([1.0 + 0j, -1.0 + 0j])


def cp_op() -> np.ndarray:
    """Single-kaon CP: (CP)|K⟩ = -|K̄⟩, (CP)|K̄⟩ = -|K⟩."""
    return np.array([[0, -1], [-1, 0]], dtype=complex)


def concurrence(psi) -> np.ndarray:
    """C = 2|a0·a3 - a1·a2| in canonical order, one per row of state_stack(psi):
    an (N,) array; 0 iff decomposable, 1 for Bell states."""
    a = state_stack(psi).T
    re, im = a.real, a.imag
    # a0·a3 - a1·a2 in real arithmetic, then np.hypot: numpy's complex multiply
    # and complex abs (SIMD) can differ in the last bit from Python's
    det_re = (re[0] * re[3] - im[0] * im[3]) - (re[1] * re[2] - im[1] * im[2])
    det_im = (re[0] * im[3] + im[0] * re[3]) - (re[1] * im[2] + im[1] * re[2])
    return np.minimum(1.0, 2.0 * np.hypot(det_re, det_im))


def is_separable(psi, tol: float = 1e-9) -> np.ndarray:
    """(N,) booleans: True iff a row's concurrence is at most tol."""
    return concurrence(psi) <= tol


def schmidt_coefficients(psi) -> np.ndarray:
    """(N, 2) singular values of each row's amplitude matrix [[a0, a1], [a2, a3]]
    (first-kaon index = row), an independent separability oracle."""
    return np.linalg.svd(state_stack(psi).reshape(-1, 2, 2), compute_uv=False)


def bell_quartet() -> np.ndarray:
    """Φ₁..Φ₄ as the rows of a (4, 4) array: (|KK⟩ ± |K̄K̄⟩)/√2 and
    (|K̄K⟩ ± |KK̄⟩)/√2."""
    signs = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, -1, 1, 0]], dtype=float)
    # a real division, then the cast: numpy's complex division may differ in the last bit
    return (signs / _SQ2).astype(complex)


def deformed_bell(phi) -> np.ndarray:
    """(|KK⟩ + e^{iφ}|K̄K̄⟩)/√2, the φ-deformed first Bell state: its 4
    amplitudes, or the (N, 4) stack for an array of φ."""
    phi = np.asarray(phi, dtype=float)
    a = np.zeros(phi.shape + (4,), dtype=complex)
    a[..., 0] = 1 / _SQ2
    # e^{iφ}/√2 part by part: numpy's complex division may differ in the last bit
    a.view(float)[..., 6:] = cexp(0.0, phi)[..., None].view(float) / _SQ2
    return a


def cp_s_eigentable() -> np.ndarray:
    """Simultaneous Ŝ⊗Ŝ and CP⊗CP eigenvalues of the Bell quartet: a (4, 2)
    array, rows Φ₁..Φ₄, columns Ŝ⊗Ŝ and CP⊗CP.

    λ = ⟨Φᵢ|op⊗op|Φᵢ⟩, from one correlation call.  op⊗op is a Hermitian
    involution, so ||(op⊗op)Φᵢ − λΦᵢ||² = 1 − λ²: an eigenvector iff |λ| = 1.
    """
    ops = np.stack([strangeness_op(), cp_op()])
    lam = correlation(bell_quartet(), ops, ops)
    # eigenvalues are exactly +-1; snap off the fp dust from the products
    snapped = np.round(lam)
    bad = (np.abs(lam - snapped) > 1e-12) | (np.abs(snapped) != 1.0)
    if bad.any():
        i = bad.any(axis=0).argmax() + 1
        raise ValidationError(f"Phi{i} is not an eigenvector with eigenvalue +-1; internal error")
    return snapped.T


def correlation(psi, op_a, op_b):
    """⟨Ψ| A⊗B |Ψ⟩ for Hermitian single-kaon operators A, B, one per row of
    state_stack(psi): an (N,) array; for two (K, 2, 2) operator stacks, the
    (K, N) array whose row k has the bits of the pair (A[k], B[k]) alone."""
    op_a, op_b = np.asarray(op_a, dtype=complex), np.asarray(op_b, dtype=complex)
    if op_a.shape != op_b.shape or op_a.ndim not in (2, 3) or op_a.shape[-2:] != (2, 2):
        raise ValidationError("correlation requires 2x2 single-kaon operators")
    # `<=`, not `> 1e-12`, so that a NaN or infinite entry fails too
    if not (hermiticity_residual(np.stack([op_a, op_b])) <= 1e-12).all():
        raise ValidationError("correlation requires Hermitian operators")
    v = state_stack(psi)
    # stacked matmul, not einsum: each row then sums in np.vdot's order
    w = tensor_product(op_a, op_b)[..., None, :, :] @ v[:, :, None]
    return (v.conj()[:, None, :] @ w)[..., 0, 0].real
