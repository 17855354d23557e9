"""Eight-vertex braid matrices, Yang-Baxterization and their verification.

The two-parameter family b±(φ) (with q = e^{iφ} on the unit circle) generates

  * R±(x) = b + 2x b⁻¹          (spectral-parameter family, R(0) = b),
  * b̃± = b/√2                   (unitary normalization, b̃⁴ = -I),
  * R̃±(θ, φ) = cosθ·b̃ + sinθ·b̃⁻¹  with θ = arctan x (unitary for all θ, φ).

The printed source of the matrix family carries a stray entry at position
(3, 4); the corrected matrix (entry 0) is the one that actually satisfies the
braid relation and has eigenvalues 1±i.  The uncorrected variant is kept
behind a flag purely as a diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import _nonnegative, elementwise, frobenius, tensor_product

SIGNS = ("plus", "minus")

_I2 = np.eye(2, dtype=complex)


@dataclass(frozen=True)
class BraidSpec:
    """Sign variant (plus/minus) and deformation phase φ, canonicalized to [0, 2π);
    an array of φ stands for the stack of specs sharing the sign.  Such a spec
    can be neither hashed nor compared with ==."""

    sign: str
    phi: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.sign not in SIGNS:
            raise ValidationError(f"sign must be one of {SIGNS}, got {self.sign!r}")
        phi = np.asarray(self.phi, dtype=float)
        if not np.isfinite(phi).all():
            raise ValidationError("phi must be finite")
        phi = (phi if phi.ndim else float(phi)) % (2.0 * math.pi)
        # a tiny negative φ rounds φ mod 2π up to 2π itself
        object.__setattr__(self, "phi", phi * (phi < 2.0 * math.pi))

    @property
    def q(self):
        """e^{iφ}: a Python complex, or a complex array for an array of φ."""
        if isinstance(self.phi, float):
            return complex(math.cos(self.phi), math.sin(self.phi))
        return np.cos(self.phi) + 1j * np.sin(self.phi)

    @property
    def sigma(self) -> int:
        return 1 if self.sign == "plus" else -1


# b±(φ) without its φ-dependent corners (1, 4) and (4, 1), keyed by (sigma, corrected)
_FIXED = {(s, c): np.array([[1, 0, 0, 0], [0, 1, s, 0], [0, -s, 1, 0 if c else 1], [0, 0, 0, 1]],
                           dtype=complex) for s in (1, -1) for c in (True, False)}


def braid_matrix(spec: BraidSpec, corrected: bool = True) -> np.ndarray:
    """The unnormalized 4x4 braid matrix b±(φ), or the (N, 4, 4) stack for an
    array of φ; satisfies b b† = 2I.

    corrected=False reproduces the misprinted variant with a stray 1 at
    (3, 4), which fails the braid relation (diagnostic use only).
    """
    q, shape = spec.q, getattr(spec.phi, "shape", ())
    b = np.empty(shape + (4, 4), dtype=complex)
    b[...] = _FIXED[spec.sigma, corrected]
    b[..., 0, 3] = q
    # Python's complex division: numpy's multiplies by a reciprocal and can
    # differ in the last bit, so a stack would not match its specs one by one
    b[..., 3, 0] = [-1 / z for z in q.tolist()] if shape else -1 / q
    return b


def unitary_braid(spec: BraidSpec) -> np.ndarray:
    """b̃± = b±/√2: unitary, eigenvalues e^{±iπ/4}, b̃⁴ = -I."""
    return braid_matrix(spec) / math.sqrt(2.0)


def check_braid_relation(spec: BraidSpec, corrected: bool = True):
    """Braid-relation residual ||b₁b₂b₁ - b₂b₁b₂||_F of b±(φ) on the 8-dimensional
    embedding b₁ = b⊗I, b₂ = I⊗b; an array-φ spec gives the (N,) residuals."""
    b = braid_matrix(spec, corrected=corrected)
    b1, b2 = tensor_product(b, _I2), tensor_product(_I2, b)
    return frobenius(b1 @ b2 @ b1 - b2 @ b1 @ b2)


def yang_baxterize(spec: BraidSpec, x) -> np.ndarray:
    """R±(x) = b + x·λ₁λ₂·b⁻¹ with λ₁λ₂ = (1+i)(1-i) = 2; R(0) = b exactly.

    Since b b† = 2I we have 2 b⁻¹ = b†, so R(x) = b + x b†.  An array of x
    gives the (N, 4, 4) stack.
    """
    x = _nonnegative(x, "spectral parameter x")
    b = braid_matrix(spec)
    return b + x[..., None, None] * b.conj().swapaxes(-1, -2)


def check_qybe(spec: BraidSpec, x, y):
    """Residual ||R₁(x)R₂(xy)R₁(y) - R₂(y)R₁(xy)R₂(x)||_F on (C²)⊗³; arrays of
    x and y give the (N,) residuals, from one R stack per argument."""
    x, y = (_nonnegative(z, "spectral parameter x") for z in (x, y))
    with np.errstate(over="ignore"):
        xy = x * y
    if np.isinf(xy).any():
        raise DomainError("x·y must be finite: the product of the spectral parameters overflows")
    r_x, r_y, r_xy = (yang_baxterize(spec, z) for z in (x, y, xy))
    # stacked matmul makes the BLAS call of each 8x8 product taken alone;
    # einsum sums in another order and differs in the last bit
    lhs = tensor_product(r_x, _I2) @ tensor_product(_I2, r_xy) @ tensor_product(r_y, _I2)
    rhs = tensor_product(_I2, r_y) @ tensor_product(r_xy, _I2) @ tensor_product(_I2, r_x)
    return frobenius(lhs - rhs)


def unitary_r(spec: BraidSpec, x) -> np.ndarray:
    """R̃±(θ, φ) = cosθ·b̃ + sinθ·b̃⁻¹ with θ = arctan x, built from the unitary
    b̃ (b̃⁻¹ = b̃†).

    Unitary for all x >= 0 and φ; equals b̃ at x = 0.  An array of x that
    broadcasts against an array-φ spec gives the stack of shape
    broadcast(x, φ) + (4, 4), from one b̃ per φ.
    """
    theta = elementwise(math.atan, _nonnegative(x, "spectral parameter x"))
    bt = unitary_braid(spec)
    cos, sin = (np.asarray(elementwise(f, theta))[..., None, None] for f in (math.cos, math.sin))
    return cos * bt + sin * bt.conj().swapaxes(-1, -2)


def _positive_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise DomainError(f"t must be > 0, got t = {float(t[~(t > 0)].flat[0])!r}")
    return t


def rho_check(spec: BraidSpec, t):
    """Inversion relation ϱ = R(t)·R(1/t) from the unnormalized R.

    Returns (is_scalar, scalar, residual) where scalar is the mean diagonal
    entry and residual = ||ϱ - scalar·I||_F.  The closed form is
    ϱ = 2(t + 1/t)·I, independent of φ.  A number t gives (bool, complex,
    float); an array of t gives three arrays, and any t <= 0 raises.
    """
    t = _positive_t(t)
    with np.errstate(over="ignore"):
        t_inv = 1.0 / t
    if np.isinf(t_inv).any():
        tiny = float(t[np.isinf(t_inv)].flat[0])
        raise DomainError(f"t = {tiny!r} is too small: 1/t overflows")
    rho = yang_baxterize(spec, t) @ yang_baxterize(spec, t_inv)
    diag = np.diagonal(rho, axis1=-2, axis2=-1)
    scalar = np.trace(rho, axis1=-2, axis2=-1) / 4.0
    residual = frobenius(rho - scalar[..., None, None] * np.eye(4))
    off = frobenius(rho - diag[..., None] * np.eye(4))
    spread = np.max(np.abs(diag - scalar[..., None]), axis=-1)
    ok = (off < 1e-12) & (spread < 1e-12)
    return (ok, scalar, residual) if t.ndim else (bool(ok), complex(scalar), residual)


def rho_printed_formula(spec: BraidSpec, t):
    """The scalar q² + q⁻² - t - 1/t as printed in the source; kept for the
    side-by-side discrepancy report (direct computation gives 2(t + 1/t)).
    An array of t gives an array."""
    t = _positive_t(t)
    q = spec.q
    value = q**2 + q**-2 - t - 1.0 / t
    return value if t.ndim else complex(value)
