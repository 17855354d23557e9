"""Neutral-kaon mixing phenomenology: S/L basis, decaying evolution and
flavor oscillation probabilities.

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

from .errors import DomainError, ValidationError

_SQ2 = math.sqrt(2.0)

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


def sl_basis(c_k: complex, c_kbar: complex) -> tuple[complex, complex]:
    """Flavor -> (S, L) amplitudes: |S⟩ = (|K⟩+|K̄⟩)/√2, |L⟩ = (|K⟩-|K̄⟩)/√2.

    The transform is orthogonal and its own inverse.
    """
    return (c_k + c_kbar) / _SQ2, (c_k - c_kbar) / _SQ2


def u_factors(params: KaonParams, t: float) -> tuple[complex, complex]:
    """Decaying phases U_{S,L}(t) = e^{-alpha_{S,L}·t} for t >= 0."""
    if t < 0:
        raise DomainError("time must be >= 0")
    return cmath.exp(-params.alpha_s * t), cmath.exp(-params.alpha_l * t)


def evolve_k(params: KaonParams, t: float) -> FlavorAmplitudes:
    """Flavor content at time t of a state that was |K⟩ at t = 0."""
    u_s, u_l = u_factors(params, t)
    return FlavorAmplitudes((u_s + u_l) / 2.0, (u_s - u_l) / 2.0)


def evolve_kbar(params: KaonParams, t: float) -> FlavorAmplitudes:
    """Flavor content at time t of a state that was |K̄⟩ at t = 0."""
    u_s, u_l = u_factors(params, t)
    return FlavorAmplitudes((u_s - u_l) / 2.0, (u_s + u_l) / 2.0)


def transition_probability(params: KaonParams, t: float, frm: str, to: str) -> float:
    """P(frm -> to) at time t, closed form.

    P_same(t) = (e^{-γ_S t} + e^{-γ_L t} + 2 e^{-(γ_S+γ_L)t/2} cos Δm·t)/4,
    P_flip(t) = same with the cosine term negated.
    """
    if frm not in FLAVORS or to not in FLAVORS:
        raise ValidationError(f"flavors must be in {FLAVORS}")
    if t < 0:
        raise DomainError("time must be >= 0")
    es = math.exp(-params.gamma_s * t)
    el = math.exp(-params.gamma_l * t)
    cross = 2.0 * math.exp(-(params.gamma_s + params.gamma_l) * t / 2.0) * math.cos(
        params.delta_m * t
    )
    if frm == to:
        return (es + el + cross) / 4.0
    return (es + el - cross) / 4.0


def survival_probability(params: KaonParams, t: float) -> float:
    """P(frm -> K) + P(frm -> K̄) = (e^{-γ_S t} + e^{-γ_L t})/2 for either flavor."""
    if t < 0:
        raise DomainError("time must be >= 0")
    return (math.exp(-params.gamma_s * t) + math.exp(-params.gamma_l * t)) / 2.0


def oscillation_curve(
    params: KaonParams, t_max: float, steps: int
) -> list[tuple[float, float, float, float]]:
    """Uniform table of (t, P_{K->K}, P_{K->K̄}, asymmetry) on [0, t_max].

    asymmetry = (P_same - P_flip)/(P_same + P_flip).
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ValidationError("t_max must be positive and finite")
    if steps < 2:
        raise ValidationError("steps must be >= 2")
    rows = []
    for i in range(steps):
        t = t_max * i / (steps - 1)
        p_same = transition_probability(params, t, "K", "K")
        p_flip = transition_probability(params, t, "K", "Kbar")
        asym = (p_same - p_flip) / (p_same + p_flip)
        rows.append((t, p_same, p_flip, asym))
    return rows
