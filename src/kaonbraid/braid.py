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
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import _nonnegative, cexp, elementwise, frobenius, tensor_product

SIGNS = ("plus", "minus")

_I2 = np.eye(2, dtype=complex)
# b₊(φ) but for its corners (1, 4) and (4, 1); σ = −1 negates (2, 3) and (3, 2)
_B_PLUS = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, -1, 1, 0], [0, 0, 0, 1]], dtype=complex)


@dataclass(frozen=True)
class BraidSpec:
    """Sign variant (plus/minus) and deformation phase φ, canonicalized to [0, 2π).
    An array of φ, or of signs, or of both broadcasting together, stands for
    the stack of specs of the broadcast shape; such a spec can be neither
    hashed nor compared with ==.

    q = e^{iφ}, σ = ±1 and b are formed once, here: q and σ a Python complex
    and int for one spec, for a stack arrays of its shape (σ stays an int for
    one sign); b the 4x4 matrix, or the stack, that braid_matrix copies.  The
    arrays a spec holds are all read-only."""

    sign: str | np.ndarray
    phi: float | np.ndarray = 0.0
    q: complex | np.ndarray = field(init=False, repr=False, compare=False)
    sigma: int | np.ndarray = field(init=False, repr=False, compare=False)
    b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sign = self.sign
        if isinstance(sign, str):
            if sign not in SIGNS:
                raise ValidationError(f"sign must be one of {SIGNS}, got {sign!r}")
            sigma = 1 if sign == "plus" else -1
        else:
            sign = np.array(sign)
            plus, minus = sign == "plus", sign == "minus"
            bad = ~(plus | minus)
            if bad.any():
                raise ValidationError(f"sign must be one of {SIGNS}, got {sign[bad].tolist()[0]!r}")
            sigma = np.where(plus, 1, -1)
        phi = np.asarray(self.phi, dtype=float)
        phi = phi if phi.ndim else float(phi)
        if not (math.isfinite(phi) if isinstance(phi, float) else np.isfinite(phi).all()):
            raise ValidationError("phi must be finite")
        phi = phi % (2.0 * math.pi)
        # a tiny negative φ rounds φ mod 2π up to 2π itself
        phi = phi * (phi < 2.0 * math.pi)
        if isinstance(phi, float):
            q = complex(math.cos(phi), math.sin(phi))
        else:
            q = cexp(0.0, phi)
            phi.flags.writeable = q.flags.writeable = False
        if not isinstance(sign, str):
            shape = np.broadcast_shapes(sign.shape, np.shape(phi))
            q, sigma = np.broadcast_to(q, shape), np.broadcast_to(sigma, shape)
            sign.flags.writeable = False
        b = np.empty(np.shape(q) + (4, 4), dtype=complex)
        b[...] = _B_PLUS
        b[..., 1, 2], b[..., 2, 1] = sigma, -sigma
        b[..., 0, 3] = q
        # Python's complex division per element: numpy's multiplies by a
        # reciprocal, and a stack would not match its specs one by one
        b[..., 3, 0] = -1 / np.asarray(q, dtype=object)
        b.flags.writeable = False
        # frozen: the fields are set past __setattr__
        self.__dict__.update(sign=sign, phi=phi, q=q, sigma=sigma, b=b)


def braid_matrix(spec: BraidSpec, corrected: bool = True) -> np.ndarray:
    """The unnormalized 4x4 braid matrix b±(φ), or the stack of shape S +
    (4, 4) for a spec of stack shape S; satisfies b b† = 2I.  A new, writable
    copy of spec.b on every call.

    corrected=False reproduces the misprinted variant with a stray 1 at
    (3, 4), which fails the braid relation (diagnostic use only).
    """
    b = spec.b.copy()
    if not corrected:
        b[..., 2, 3] = 1
    return b


def unitary_braid(spec: BraidSpec) -> np.ndarray:
    """b̃± = b±/√2: unitary, eigenvalues e^{±iπ/4}, b̃⁴ = -I."""
    b = braid_matrix(spec)
    # numpy's complex b / √2 multiplies each part by 1/√2 too: the same bits
    b.view(float)[...] *= 1.0 / math.sqrt(2.0)
    return b


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
    # b + x·b† part by part: numpy's complex x·b† casts x to x + 0i and gives
    # x times each part of b†, up to the sign of a zero product, which adding
    # b's +0.0 or nonzero part erases; so these are its bits, with no cast
    bh = np.ascontiguousarray(b.conj().swapaxes(-1, -2))
    r = x[..., None, None] * bh.view(float)
    r += b.view(float)
    return r.view(complex)


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
    rot = cexp(0.0, theta)[..., None, None]
    return rot.real * bt + rot.imag * bt.conj().swapaxes(-1, -2)


def _checked_t(t):
    """t as a float array and 1/t, once every t is > 0 and both 1/t and
    8·max(t, 1/t) are finite (else DomainError): each entry of R(t)·R(1/t),
    and the trace of ϱ, is at most 8·max(t, 1/t).  1/t then passes the same
    checks."""
    t = np.asarray(t, dtype=float)
    if not (t > 0).all():
        raise DomainError(f"t must be > 0, got t = {float(t[~(t > 0)].flat[0])!r}")
    with np.errstate(over="ignore"):
        t_inv = 1.0 / t
        huge = np.isinf(8.0 * np.maximum(t, t_inv))
    if np.isinf(t_inv).any():
        tiny = float(t[np.isinf(t_inv)].flat[0])
        raise DomainError(f"t = {tiny!r} is too small: 1/t overflows")
    if huge.any():
        raise DomainError(f"t = {float(t[huge].flat[0])!r} is out of range: "
                          "the trace of ϱ = 2(t + 1/t)·I overflows")
    return t, t_inv


# The diagonal (i, i) and anti-diagonal (i, 3 - i) of a 4x4 matrix, i = 0..3,
# as flat indices: the entries that a matrix built from b can have nonzero.
# _PARTS are the columns of their real parts, then of their imaginary parts,
# in the float view of the matrix.
_PATTERN = (0, 5, 10, 15, 3, 6, 9, 12)
_PARTS = [2 * f + part for part in (0, 1) for f in _PATTERN]


def _pattern_rows(r) -> np.ndarray:
    """The 8 pattern entries of a 4x4 matrix or stack as entries-major float
    rows of shape (2, 8) + the stack's shape: [0] the real parts, [1] the
    imaginary; entries 0..3 are (i, i), entries 4..7 are (i, 3 - i)."""
    return r.view(float).reshape(-1, 32).T[_PARTS].reshape((2, 8) + r.shape[:-2])


def _rho_factors(spec: BraidSpec, t):
    """The pattern rows of R(t), R(1/t) and R(1/(1/t)), from one yang_baxterize
    stack, for a t that _checked_t accepts."""
    t, t_inv = _checked_t(t)
    # the stack's axis goes ahead of the spec's
    x = np.array([t, t_inv, 1.0 / t_inv]).reshape(3, *[1] * (np.ndim(spec.q) - t.ndim), *t.shape)
    rows = _pattern_rows(yang_baxterize(spec, x))
    return rows[:, :, 0], rows[:, :, 1], rows[:, :, 2]


# R₁ = R(t) and R₂ = R(1/t) are zero off their diagonal and anti-diagonal, so
# ϱ = R₁·R₂ is too, its other 8 entries exact zeros, and each pattern entry is
# a sum of two products: ϱᵢᵢ = R₁ᵢᵢ·R₂ᵢᵢ + R₁ᵢ,₃₋ᵢ·R₂₃₋ᵢ,ᵢ and ϱᵢ,₃₋ᵢ =
# R₁ᵢᵢ·R₂ᵢ,₃₋ᵢ + R₁ᵢ,₃₋ᵢ·R₂₃₋ᵢ,₃₋ᵢ.  In pattern rows R₂₃₋ᵢ,ᵢ is entry 7 − i and
# R₂₃₋ᵢ,₃₋ᵢ entry 3 − i, so the second factors are R₂'s rows in order (y) and
# reversed (w).
def _rho(r1, r2, halves: int) -> np.ndarray:
    """ϱ's diagonal (halves = 1), or its diagonal and anti-diagonal (halves =
    2), from the pattern rows of R₁ and R₂, as float rows of shape (2,
    halves, 4) + S: [0] the real parts, [1] the imaginary.  Each product is
    Python's complex product, (ar·br − ai·bi) + i(ar·bi + ai·br) unfused
    (numpy's complex * fuses them and differs in the last bit), and the two
    are summed part by part."""
    shape = (2, 2, 4) + r2.shape[2:]
    y, w = r2.reshape(shape)[:, :halves], r2[:, ::-1].reshape(shape)[:, :halves]
    # p[j, k] is part j of R₁ᵢᵢ times part k of its second factor
    p = r1[:, None, None, :4] * y
    q = r1[:, None, None, 4:] * w
    rho = np.empty(p.shape[1:])
    np.subtract(p[0, 0], p[1, 1], out=rho[0])
    rho[0] += q[0, 0] - q[1, 1]
    np.add(p[0, 1], p[1, 0], out=rho[1])
    rho[1] += q[0, 1] + q[1, 0]
    return rho


def _mean(d) -> np.ndarray:
    """tr ϱ/4 in each part from ϱ's (2, 4) + S diagonal rows d, summed as
    np.trace sums a complex 4x4 matrix: +0.0 + ((d₀ + d₁) + (d₂ + d₃)).
    Without the leading 0.0 a part whose four entries are −0.0 would sum to
    −0.0."""
    return (0.0 + ((d[:, 0] + d[:, 1]) + (d[:, 2] + d[:, 3]))) / 4.0


def _complex(parts):
    """The complex array, or numpy scalar for shape (), with real part
    parts[0] and imaginary part parts[1]."""
    z = np.empty(parts.shape[1:], complex)
    z.real, z.imag = parts
    return z[()]


def rho_check(spec: BraidSpec, t):
    """Inversion relation ϱ = R(t)·R(1/t) from the unnormalized R.

    Returns (is_scalar, scalar, residual, scalar_inv): scalar is the mean
    diagonal entry and residual = ||ϱ - scalar·I||_F; is_scalar holds when
    residual / |scalar| is below 1e-12, at any t accepted here; scalar_inv is
    rho_check(spec, 1/t)'s scalar, bit for bit, from the R(1/t) built here.
    The closed form is ϱ = 2(t + 1/t)·I, independent of φ.  An array of t
    gives four arrays of its shape (0-d for a number); a t that _checked_t
    rejects raises DomainError.

    ϱ is the product of R's actual entries, taken on the 8 entries where it
    can be nonzero, in fixed-order real arithmetic with no BLAS call, so its
    bits depend on no BLAS kernel.
    """
    r_t, r_inv, r_back = _rho_factors(spec, t)
    rho = _rho(r_t, r_inv, 2)
    parts = _mean(rho[:, 0])
    scalar = _complex(parts)
    magnitude = np.abs(scalar)
    # ϱ − scalar·I, scaled by 2^-k ~ 1/|scalar| so that no square overflows,
    # then back: exact
    k = np.frexp(magnitude)[1]
    rho[:, 0] -= parts[:, None]
    rho *= np.ldexp(1.0, -k)
    rho *= rho
    # row i's two squared moduli, then the rows summed as _mean sums: fixed order
    m = (rho[0, 0] + rho[1, 0]) + (rho[0, 1] + rho[1, 1])
    scaled = np.sqrt((m[0] + m[1]) + (m[2] + m[3]))
    residual = np.ldexp(scaled, k)
    # relative to |ϱ| >= 4, which grows like t + 1/t, as does its rounding error
    ok = scaled < 1e-12 * np.ldexp(magnitude, -k)
    return ok, scalar, residual, _complex(_mean(_rho(r_inv, r_back, 1)[:, 0]))


def rho_printed_formula(spec: BraidSpec, t):
    """The scalar q² + q⁻² - t - 1/t as printed in the source; kept for the
    side-by-side discrepancy report (direct computation gives 2(t + 1/t)).
    It is real, 2·cos 2φ - t - 1/t, and taken as 0.0 - ((t - 1)²/t + 4·sin²φ):
    two terms >= 0, with no cancellation near t = 1, φ = 0, and +0.0 there.
    An array of t gives an array of its shape (0-d for a number); a t that
    rho_check rejects raises the same DomainError."""
    t = _checked_t(t)[0]
    d, s = t - 1.0, spec.q.imag
    # (t - 1)·((t - 1)/t), as (t - 1)² would overflow from t ~ 1e154
    return 0.0 - (d * (d / t) + 4.0 * (s * s))
