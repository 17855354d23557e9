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
from .linalg import _nonnegative, elementwise

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


def u_factors(params: KaonParams, t):
    """Decaying phases U_{S,L}(t) = e^{-alpha_{S,L}·t} for finite t >= 0.

    Two complex arrays of the broadcast shape of t and the parameters (0-d
    for a number t and a single parameter set).  Each factor is
    l·cos y + i·l·sin y with l = e^{-(γ/2)·t} and y = -(m + 0)·t, math's exp,
    cos and sin per element: cmath.exp's formula for a real part <= 0, on the
    parts Python's complex product -alpha·t gives (m + 0 turns -0.0 into 0.0).
    """
    t = _nonnegative(t, "time t")
    masses = (params.m_s, params.m_l)
    with np.errstate(over="ignore"):
        phases = [-(m + 0.0) * t for m in masses]
        decays = [elementwise(math.exp, -(g / 2.0) * t) for g in (params.gamma_s, params.gamma_l)]
    for name, m, y in zip(("m_s", "m_l"), masses, phases):
        _finite_phase(name, m, t, y)
    factors = []
    for length, y in zip(decays, phases):
        parts = [length * elementwise(f, y) for f in (math.cos, math.sin)]
        # re + 1j·im would turn a -0.0 part into 0.0
        factors.append(np.stack(parts, axis=-1).view(complex)[..., 0])
    return tuple(factors)


def evolve_k(params: KaonParams, t) -> FlavorAmplitudes:
    """Flavor content at time t of a state that was |K⟩ at t = 0; arrays of t
    or stacked parameters give arrays of amplitudes."""
    u_s, u_l = u_factors(params, t)
    return FlavorAmplitudes((u_s + u_l) / 2.0, (u_s - u_l) / 2.0)


def transition_probability(params: KaonParams, t, frm: str, to):
    """P(frm -> to) at time t, closed form; arrays of t or stacked parameters
    give an array of their broadcast shape.

    P_same(t) = (e^{-γ_S t} + e^{-γ_L t} + 2 e^{-(γ_S+γ_L)t/2} cos Δm·t)/4,
    P_flip(t) = same with the cosine term negated.  `to` may also be a
    sequence of flavors, such as FLAVORS: the result then gains a last axis,
    one column per flavor, all from one evaluation of the exponentials and
    the cosine.  Every t must be finite and >= 0; exp and cos are math's per
    element (linalg.elementwise), so an array gives the bits of its points
    taken one by one.
    """
    flavors = (to,) if isinstance(to, str) else tuple(to)
    if frm not in FLAVORS or not flavors or not set(flavors) <= set(FLAVORS):
        raise ValidationError(f"flavors must be in {FLAVORS}")
    t = _nonnegative(t, "time t")
    gs, gl = params.gamma_s, params.gamma_l
    # quiet, as Python floats are: γ·t and Δm·t may overflow, Δm itself may,
    # and inf·0 is nan.  The halves of γ_S + γ_L are summed, as it may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        es, el = elementwise(math.exp, -gs * t), elementwise(math.exp, -gl * t)
        damp = elementwise(math.exp, -(gs / 2.0 + gl / 2.0) * t)
        phase = params.delta_m * t
    _finite_phase("delta_m", params.delta_m, t, phase)
    cross = 2.0 * damp * elementwise(math.cos, phase)
    columns = [(es + el + cross) / 4.0 if frm == f else (es + el - cross) / 4.0 for f in flavors]
    return columns[0] if isinstance(to, str) else np.stack(columns, axis=-1)


def survival_probability(params: KaonParams, t):
    """P(frm -> K) + P(frm -> K̄) = (e^{-γ_S t} + e^{-γ_L t})/2 for either flavor;
    arrays of t or stacked parameters give an array."""
    t = _nonnegative(t, "time t")
    with np.errstate(over="ignore"):
        es, el = [elementwise(math.exp, -g * t) for g in (params.gamma_s, params.gamma_l)]
    return (es + el) / 2.0


def oscillation_curve(params: KaonParams, t) -> np.ndarray:
    """(N, 4) table of (t, P_{K->K}, P_{K->K̄}, asymmetry) on the N times t.

    asymmetry = (P_same - P_flip)/(P_same + P_flip) = cos(Δm·t)·sech(d) with
    d = (γ_S - γ_L)·t/2, evaluated as sech(d) = 2e^{-|d|}/(1 + e^{-2|d|}): the
    ratio is 0/0 once both probabilities underflow, and cosh overflows.
    The table is of one parameter set: a stacked KaonParams raises.
    """
    if any(np.ndim(v) for v in (params.gamma_s, params.gamma_l, params.m_s, params.m_l)):
        raise ValidationError("oscillation_curve takes one parameter set, not a stack")
    # first: it rejects a bad t and an overflowing Δm·t, on which math.cos raises
    probabilities = transition_probability(params, t, "K", FLAVORS)
    t = np.asarray(t, dtype=float)
    half_dgamma = abs(params.gamma_s - params.gamma_l) / 2.0
    with np.errstate(over="ignore"):
        e = elementwise(math.exp, -half_dgamma * t)  # e^{-|d|}
    asym = elementwise(math.cos, params.delta_m * t) * (2.0 * e / (1.0 + e * e))
    return np.column_stack([t, probabilities, asym])
