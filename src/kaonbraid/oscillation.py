"""Neutral-kaon mixing phenomenology: decaying evolution and flavor
oscillation probabilities.

Natural units (hbar = c = 1); rates and masses are user-supplied numbers per
unit time.  The bundled default parameter set scales the short lifetime to
one (gamma_s = 1, gamma_l = 0.00175, delta_m = 0.474) — PDG-like magnitudes
chosen as a well-conditioned configuration default, not derived values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import _nonnegative, cexp, expm1

FLAVORS = ("K", "Kbar")


@dataclass(frozen=True)
class KaonParams:
    """Decay rates and masses of the short/long eigenstates.

    A field may be an array: a stack of parameter sets that broadcasts against
    t.  Numbers stay as given, so a single set keeps its bits."""

    gamma_s: float | np.ndarray = 1.0
    gamma_l: float | np.ndarray = 0.00175
    m_s: float | np.ndarray = 0.0
    m_l: float | np.ndarray = 0.474

    def __post_init__(self):
        for name in ("gamma_s", "gamma_l", "m_s", "m_l"):
            v = np.asarray(getattr(self, name), dtype=float)
            rate = name.startswith("gamma")
            bad = ~((v >= 0) & (v < math.inf)) if rate else ~np.isfinite(v)
            if bad.any():
                rule = "finite and >= 0" if rate else "finite"
                raise ValidationError(f"{name} must be {rule}, got {float(v[bad].flat[0])!r}")
            if v.ndim:
                object.__setattr__(self, name, v)

    @property
    def delta_m(self) -> float:
        return self.m_l - self.m_s


class FlavorAmplitudes(NamedTuple):
    """Amplitudes on (|K⟩, |K̄⟩) at a given time, or arrays of them."""

    c_k: complex | np.ndarray
    c_kbar: complex | np.ndarray


def _finite_phase(name: str, m, t, phase) -> None:
    """DomainError naming `name` = m and the first t at which m·t overflowed."""
    finite = np.isfinite(phase)
    if not finite.all():
        i = finite.argmin()
        m, t = (float(np.broadcast_to(a, finite.shape).flat[i]) for a in (m, t))
        raise DomainError(f"{name}*t overflows: {name} = {m!r}, t = {t!r}")


def _exponents(params: KaonParams, t):
    """(Δm·t, y) with y = |γ_S - γ_L|·t/2 for a validated t; DomainError if
    Δm·t overflows, as e^{i·Δm·t} then has no value.  Quiet, as Python floats are:
    Δm itself may overflow, inf·0 is nan, and y may overflow to inf, which
    makes e^{-y} = 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        phase = params.delta_m * t
        y = np.abs(params.gamma_s - params.gamma_l) * t / 2.0
    _finite_phase("delta_m", params.delta_m, t, phase)
    return phase, y


def u_factors(params: KaonParams, t):
    """Decaying phases U_{S,L}(t) = e^{-alpha_{S,L}·t} for finite t >= 0.

    Two complex arrays of the broadcast shape of t and the parameters (0-d
    for a number t and a single parameter set).  Each factor is one
    linalg.cexp of x + i·y with x = -(γ/2)·t and y = -(m + 0)·t: the bits of
    cmath.exp per element, as x <= 0.  Those are the
    parts of Python's complex product -alpha·t but for the sign of a zero: on
    13 of the 36 (γ, m, t) in {0.0, -0.0, 1.0} × {±0.0, ±0.474} × {0, 1, 2.5}
    y is -0.0 where that product's imaginary part is +0.0, so U's imaginary
    part is -0.0 where cmath.exp(-alpha·t) gives +0.0.  No output prints it.
    """
    t = _nonnegative(t, "time t")
    factors = []
    for name, g, m in (("m_s", params.gamma_s, params.m_s), ("m_l", params.gamma_l, params.m_l)):
        with np.errstate(over="ignore"):
            x, y = -(g / 2.0) * t, -(m + 0.0) * t
        _finite_phase(name, m, t, y)
        factors.append(cexp(x, y))
    return tuple(factors)


def evolve_k(params: KaonParams, t) -> FlavorAmplitudes:
    """Flavor content at time t of a state that was |K⟩ at t = 0; arrays of t
    or stacked parameters give arrays of amplitudes."""
    u_s, u_l = u_factors(params, t)
    return FlavorAmplitudes((u_s + u_l) / 2.0, (u_s - u_l) / 2.0)


def transition_probability(params: KaonParams, t, frm: str, to):
    """P(frm -> to) at time t, closed form; arrays of t or stacked parameters
    give an array of their broadcast shape.

    With y = |γ_S - γ_L|·t/2, h = Δm·t/2, a = e^{-γ_min·t/2}, E = e^{-y} - 1
    and w = e^{-y/2 + i·h}:
        P_same(t) = a²·(E²/4 + (Re w)²),  P_flip(t) = a²·(E²/4 + (Im w)²),
    which is (e^{-γ_S t} + e^{-γ_L t} ± 2 e^{-(γ_S+γ_L)t/2} cos Δm·t)/4 as
    sums of non-negative terms: no cancellation near t = 0, and a product
    that would overflow is e^{-inf} = 0.  `to` may also be a sequence of
    flavors, such as FLAVORS: the result then gains a last axis, one column
    per flavor, all from two linalg.cexp calls (a = cexp(-γ_min·t/2, 0).real
    and w) and one linalg.expm1 call (E).  Every t must be
    finite and >= 0; each exponential has the bits of math's or cmath's per
    element, so an array gives the bits of its points taken one by one.
    """
    flavors = (to,) if isinstance(to, str) else tuple(to)
    if frm not in FLAVORS or not flavors or not set(flavors) <= set(FLAVORS):
        raise ValidationError(f"flavors must be in {FLAVORS}")
    t = _nonnegative(t, "time t")
    phase, y = _exponents(params, t)
    with np.errstate(over="ignore"):
        a = cexp(-np.minimum(params.gamma_s, params.gamma_l) * t / 2.0, 0.0).real
    e = expm1(-y)
    w = cexp(-y / 2.0, phase / 2.0)
    a2, quarter = a * a, e * e / 4.0
    same, flip = a2 * (quarter + w.real * w.real), a2 * (quarter + w.imag * w.imag)
    columns = [same if frm == f else flip for f in flavors]
    return columns[0] if isinstance(to, str) else np.stack(columns, axis=-1)


def survival_probability(params: KaonParams, t):
    """P(frm -> K) + P(frm -> K̄) = (e^{-γ_S t} + e^{-γ_L t})/2 for either flavor;
    arrays of t or stacked parameters give an array."""
    t = _nonnegative(t, "time t")
    with np.errstate(over="ignore"):
        es, el = [cexp(-g * t, 0.0).real for g in (params.gamma_s, params.gamma_l)]
    return (es + el) / 2.0


def oscillation_curve(params: KaonParams, t) -> np.ndarray:
    """(N, 4) table of (t, P_{K->K}, P_{K->K̄}, asymmetry) on the N times t.

    asymmetry = (P_same - P_flip)/(P_same + P_flip) = cos(Δm·t)·sech(y) with
    y = |γ_S - γ_L|·t/2, evaluated as 2·Re z/(1 + |z|²) with
    z = e^{-y + i·Δm·t} (one linalg.cexp call): the ratio is 0/0 once both
    probabilities underflow, and cosh overflows.
    The table is of one parameter set: a stacked KaonParams raises.
    """
    if any(np.ndim(v) for v in (params.gamma_s, params.gamma_l, params.m_s, params.m_l)):
        raise ValidationError("oscillation_curve takes one parameter set, not a stack")
    # first: it rejects a bad t and an overflowing Δm·t
    probabilities = transition_probability(params, t, "K", FLAVORS)
    t = np.asarray(t, dtype=float)
    phase, y = _exponents(params, t)
    z = cexp(-y, phase)
    asym = 2.0 * z.real / (1.0 + (z.real * z.real + z.imag * z.imag))
    return np.column_stack([t, probabilities, asym])
