"""Neutral-kaon mixing phenomenology: decaying evolution and flavor
oscillation probabilities.

Natural units (hbar = c = 1); rates and masses are user-supplied numbers per
unit time.  The bundled default parameter set scales the short lifetime to
one (gamma_s = 1, gamma_l = 0.00175, delta_m = 0.474) — PDG-like magnitudes
chosen as a well-conditioned configuration default, not derived values.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, ValidationError
from .linalg import _nonnegative, elementwise

FLAVORS = ("K", "Kbar")


@dataclass(frozen=True)
class KaonParams:
    """Decay rates and masses of the short/long eigenstates."""

    gamma_s: float = 1.0
    gamma_l: float = 0.00175
    m_s: float = 0.0
    m_l: float = 0.474

    def __post_init__(self):
        for name in ("gamma_s", "gamma_l", "m_s", "m_l"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
        if self.gamma_s < 0 or self.gamma_l < 0:
            raise ValidationError("decay rates must be >= 0")

    @property
    def alpha_s(self) -> complex:
        return self.gamma_s / 2.0 + 1j * self.m_s

    @property
    def alpha_l(self) -> complex:
        return self.gamma_l / 2.0 + 1j * self.m_l

    @property
    def delta_m(self) -> float:
        return self.m_l - self.m_s


class FlavorAmplitudes(NamedTuple):
    """Amplitudes on (|K⟩, |K̄⟩) at a given time."""

    c_k: complex
    c_kbar: complex


def u_factors(params: KaonParams, t: float) -> tuple[complex, complex]:
    """Decaying phases U_{S,L}(t) = e^{-alpha_{S,L}·t} for finite t >= 0."""
    t = float(_nonnegative(t, "time t"))
    for name, m in (("m_s", params.m_s), ("m_l", params.m_l)):
        if not math.isfinite(m * t):
            raise DomainError(f"{name}*t overflows: {name} = {m!r}, t = {t!r}")
    return cmath.exp(-params.alpha_s * t), cmath.exp(-params.alpha_l * t)


def evolve_k(params: KaonParams, t: float) -> FlavorAmplitudes:
    """Flavor content at time t of a state that was |K⟩ at t = 0."""
    u_s, u_l = u_factors(params, t)
    return FlavorAmplitudes((u_s + u_l) / 2.0, (u_s - u_l) / 2.0)


def transition_probability(params: KaonParams, t, frm: str, to: str):
    """P(frm -> to) at time t, closed form; an array of t gives an array.

    P_same(t) = (e^{-γ_S t} + e^{-γ_L t} + 2 e^{-(γ_S+γ_L)t/2} cos Δm·t)/4,
    P_flip(t) = same with the cosine term negated.  Every t must be finite
    and >= 0; exp and cos are math's per element (linalg.elementwise), so an
    array gives the bits of its points taken one by one.
    """
    if frm not in FLAVORS or to not in FLAVORS:
        raise ValidationError(f"flavors must be in {FLAVORS}")
    t = _nonnegative(t, "time t")
    gs, gl = params.gamma_s, params.gamma_l
    # quiet, as Python floats are: γ·t and Δm·t may overflow, Δm itself may,
    # and inf·0 is nan.  The halves of γ_S + γ_L are summed, as it may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        es, el = elementwise(math.exp, -gs * t), elementwise(math.exp, -gl * t)
        damp = elementwise(math.exp, -(gs / 2.0 + gl / 2.0) * t)
        phase = params.delta_m * t
    finite = np.isfinite(phase)
    if not finite.all():
        bad = float(t.flat[finite.argmin()])
        raise DomainError(f"delta_m*t overflows: delta_m = {params.delta_m!r}, t = {bad!r}")
    cross = 2.0 * damp * elementwise(math.cos, phase)
    if frm == to:
        return (es + el + cross) / 4.0
    return (es + el - cross) / 4.0


def survival_probability(params: KaonParams, t):
    """P(frm -> K) + P(frm -> K̄) = (e^{-γ_S t} + e^{-γ_L t})/2 for either flavor;
    an array of t gives an array."""
    t = _nonnegative(t, "time t")
    with np.errstate(over="ignore"):
        es, el = [elementwise(math.exp, -g * t) for g in (params.gamma_s, params.gamma_l)]
    return (es + el) / 2.0


def oscillation_curve(params: KaonParams, t_max: float, steps: int) -> np.ndarray:
    """Uniform (steps, 4) table of (t, P_{K->K}, P_{K->K̄}, asymmetry) on [0, t_max].

    asymmetry = (P_same - P_flip)/(P_same + P_flip) = cos(Δm·t)·sech(d) with
    d = (γ_S - γ_L)·t/2, evaluated as sech(d) = 2e^{-|d|}/(1 + e^{-2|d|}): the
    ratio is 0/0 once both probabilities underflow, and cosh overflows.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValidationError("t_max must be positive and finite")
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    if not math.isfinite(params.delta_m * t_max):
        raise ValidationError(f"delta_m * t_max must be finite: {params.delta_m!r} * {t_max!r}")
    if not math.isfinite(t_max * (steps - 1)):
        raise ValidationError(f"t_max {t_max!r} is too large for {steps} steps: "
                              "t_max·(steps - 1) overflows")
    t = t_max * np.arange(steps) / (steps - 1)
    half_dgamma = abs(params.gamma_s - params.gamma_l) / 2.0
    with np.errstate(over="ignore"):
        e = elementwise(math.exp, -half_dgamma * t)  # e^{-|d|}
    asym = elementwise(math.cos, params.delta_m * t) * (2.0 * e / (1.0 + e * e))
    p_same, p_flip = (transition_probability(params, t, "K", to) for to in FLAVORS)
    return np.column_stack([t, p_same, p_flip, asym])
