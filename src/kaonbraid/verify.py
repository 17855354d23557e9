"""Aggregated verification suite.

Every check returns a CheckResult with the worst observed metric, the
tolerance it is held to, and a short detail string.  run_suite() composes
the full battery used by `kaonbraid verify`; the acceptance tests call the
individual check functions directly.

The checks of b±, R(x), R̃, H and ϱ run on SPEC, one stack of both signs at
the 7 φ nodes, built once: each makes one call per kernel, whose every
element has the bits of its sign and φ taken alone.  The Schrödinger check
makes one call on SCHRODINGER_SPEC, a stack of ("plus", 0.0) and ("minus",
1.0), with its times on an axis in front; the Bell check stacks the quartet
and both φ = 0 b̃'s, and the oscillation check its two parameter sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import braid, dynamics, oscillation, states
from .braid import BraidSpec
from .linalg import elementwise, frobenius, hermiticity_residual, norm, unitarity_residual

# The identities checked over a spectral parameter and φ are polynomial ones.
# R(x) = b + x·b† is affine in x, and every entry of b lies in span{1, q, 1/q}
# with q = e^{iφ} and conj(q) = 1/q.  So each residual has degree <= 3 in q
# and 1/q (braid relation, QYBE; <= 2 for R̃R̃† - I, R̃(θ)R̃(0)† - U, t·ϱ and
# H₀ - H₀†) and vanishes for every φ iff it vanishes at 7 distinct q; and it
# has degree <= 2 in each of x and y (QYBE), in t (t·ϱ) or in cos θ, sin θ
# (θ = arctan x), so 3 x-nodes with θ distinct mod π suffice.  At these
# nodes each check proves its identity up to rounding.
X_NODES = np.array([0.0, 1.0, 2.0])
PHI_NODES = 2 * math.pi * np.arange(7) / 7
# both signs at every φ node, shape (2, 7); a node array of x, y or t takes
# an axis in front of it, as X_NODES[:, None, None] does
SPEC = BraidSpec(np.array(braid.SIGNS)[:, None], PHI_NODES)
SCHRODINGER_SPEC = BraidSpec(np.array(braid.SIGNS), np.array([0.0, 1.0]))


@dataclass(frozen=True)
class CheckResult:
    name: str
    metric: float
    tol: float
    detail: str = ""


def check_braid_relation(uncorrected: bool = False) -> CheckResult:
    worst = float(braid.check_braid_relation(SPEC, corrected=not uncorrected).max())
    label = "uncorrected (3,4)=1 matrix" if uncorrected else "corrected matrix"
    return CheckResult("braid_relation", worst, 1e-12, label)


def check_uncorrected_diagnostic() -> CheckResult:
    """The misprinted matrix must clearly fail the braid relation."""
    least = float(braid.check_braid_relation(SPEC, corrected=False).min())
    # pass iff the minimum residual exceeds 0.1
    fails = least > 0.1
    return CheckResult("uncorrected_braid_fails", 0.0 if fails else 1.0, 0.0,
                       f"min residual {least:.3g} {'>' if fails else '<='} 0.1")


def check_eigenvalues() -> CheckResult:
    # b² - 2b + 2I = 0 puts every eigenvalue at a root 1 ± i of z² - 2z + 2,
    # and tr b = 4 then puts two at each
    b = braid.braid_matrix(SPEC)
    worst = max(frobenius(b @ b - 2.0 * b + 2.0 * np.eye(4)).max(),
                np.abs(np.trace(b, axis1=-2, axis2=-1) - 4.0).max())
    return CheckResult("braid_eigenvalues", float(worst), 1e-10, "multiset {1+i, 1-i} twice")


def check_qybe() -> CheckResult:
    # (9, 1, 1) columns of (x, y) against the (2, 7) signs and φ
    x, y = (g.reshape(-1, 1, 1) for g in np.meshgrid(X_NODES, X_NODES))
    worst = float(braid.check_qybe(SPEC, x, y).max())
    return CheckResult("qybe", worst, 1e-10, "all x, y, phi: 3x3 (x, y) nodes x 7 phi nodes")


def check_asymptotic() -> CheckResult:
    worst = float(np.max(np.abs(braid.yang_baxterize(SPEC, 0.0) - braid.braid_matrix(SPEC))))
    return CheckResult("asymptotic_r0_equals_b", worst, 0.0, "exact entrywise")


def check_unitarity_grid() -> CheckResult:
    worst = float(unitarity_residual(braid.unitary_r(SPEC, X_NODES[:, None, None])).max())
    return CheckResult("unitary_r_grid", worst, 1e-12, "all theta, phi: 3 x nodes x 7 phi nodes")


def check_hamiltonian_hermitian() -> CheckResult:
    t = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 10.0, -10.0])
    worst = float(hermiticity_residual(dynamics.hamiltonian_at(SPEC, t)).max())
    return CheckResult("hamiltonian_hermitian", worst, 1e-12)


def check_hamiltonian_even() -> CheckResult:
    t = np.array([0.5, 1.0, 10.0])
    h = dynamics.hamiltonian_at(SPEC, [t, -t])
    worst = float(np.max(np.abs(h[0] - h[1])))
    return CheckResult("hamiltonian_even_in_t", worst, 0.0, "H(t) = H(-t) exactly")


def check_hamiltonian_t1_printed() -> CheckResult:
    """H(t=1) against the printed closed-form matrix (i/2)·[[0,0,0,-q],...],
    and the paper's f(1)·(-i·b̃·b̃) built here against the printed form too:
    H₀ = -i·(b - I) has the printed entries, so H(1) alone would be compared
    with the same formula and read 0."""
    q, s = SPEC.q, SPEC.sigma
    printed = np.zeros(q.shape + (4, 4), dtype=complex)
    printed[..., 0, 3], printed[..., 1, 2], printed[..., 2, 1] = -q, -s, s
    # Python's complex division per element
    printed[..., 3, 0] = 1 / np.asarray(q, dtype=object)
    bt = braid.unitary_braid(SPEC)
    defined = dynamics.envelope(1.0) * (-1j * (bt @ bt))
    worst = max(float(np.max(np.abs(h - (1j / 2) * printed)))
                for h in (dynamics.hamiltonian_at(SPEC, 1.0), defined))
    return CheckResult("hamiltonian_t1_printed_form", worst, 1e-14)


def check_schrodinger(seed: int) -> CheckResult:
    # 10 seeded unit states from one draw of 8 normals each: 4 real parts, then 4 imaginary
    d = np.random.default_rng(seed).normal(size=(10, 8))
    v = d[:, :4] + 1j * d[:, 4:]
    psi = v / norm(v)[:, None]
    t = np.array([0.2, 0.5, 1.0, 2.0, 5.0])[:, None]
    worst = float(dynamics.schrodinger_residual(psi, SCHRODINGER_SPEC, t).max())
    return CheckResult("schrodinger_residual", worst, 1e-6, "dt = 1e-5, 10 states x 5 times")


def check_r_hamiltonian_consistency() -> CheckResult:
    worst = float(dynamics.r_vs_hamiltonian_consistency(SPEC, X_NODES[:, None, None]).max())
    return CheckResult("r_vs_hamiltonian", worst, 1e-11)


def check_bell_structure() -> CheckResult:
    quartet = states.bell_quartet()
    # the quartet, then b̃± at φ = 0 (SPEC's first φ node); row i of b̃ is the
    # image of basis state i
    rows = np.concatenate([quartet[None], braid.unitary_braid(SPEC)[:, 0]])
    # overlaps[k, i, j] = ⟨row i|Φ_j⟩ and gram[k, i, j] = ⟨row i|row j⟩ of matrix k
    overlaps, gram = (rows.conj() @ other.swapaxes(-1, -2) for other in (quartet, rows))
    # each φ = 0 image must coincide with a Bell state up to phase
    best = np.hypot(overlaps.real, overlaps.imag).max(axis=-1)
    worst = max(frobenius(gram - np.eye(4)).max(), np.abs(best - 1.0).max(),
                np.abs(states.concurrence(rows.reshape(-1, 4)) - 1.0).max())
    return CheckResult("bell_structure", float(worst), 1e-12)


def check_eigentable() -> CheckResult:
    # rows Φ₁..Φ₄, columns S⊗S and CP⊗CP
    expected = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    metric = 0.0 if np.array_equal(states.cp_s_eigentable(), expected) else 1.0
    return CheckResult(
        "cp_strangeness_table", metric, 0.0, "printed S*Phi_{3,4} line corrected to -Phi_{3,4}"
    )


def separability_states(rng, pairs: int) -> np.ndarray:
    """(2·pairs, 4) seeded unit states: even rows products u⊗v of random
    single-kaon states, odd rows generic.  One draw of 16 normals per pair,
    the numbers and order of the draws of the rows taken one at a time."""
    d = rng.normal(size=(pairs, 16))
    u, v = d[:, 0:2] + 1j * d[:, 2:4], d[:, 4:6] + 1j * d[:, 6:8]
    amp = d[:, 8:12] + 1j * d[:, 12:16]
    u, v, amp = (z / norm(z)[:, None] for z in (u, v, amp))
    psi = np.empty((2 * pairs, 4), dtype=complex)
    psi[0::2] = (u[:, :, None] * v[:, None, :]).reshape(pairs, 4)
    psi[1::2] = amp
    return psi


def check_separability(seed: int) -> CheckResult:
    tol = 1e-8
    psi = separability_states(np.random.default_rng(seed), 500)
    by_concurrence = states.is_separable(psi, tol)
    by_schmidt = states.schmidt_coefficients(psi)[:, 1] <= tol
    disagreements = np.count_nonzero(by_concurrence != by_schmidt)
    equal = states.concurrence([0.5, 0.5, 0.5, 0.5])[0]
    metric = float(disagreements) + (0.0 if equal < 1e-12 else 1.0)
    return CheckResult("separability_oracle", metric, 0.0, "1000 seeded states vs Schmidt rank")


def check_deformation_sweep() -> CheckResult:
    ops = np.stack([states.cp_op(), states.strangeness_op()])
    phi = np.linspace(0.0, 2 * math.pi, 41)
    psi = states.deformed_bell(phi)
    corr_cp, corr_s = states.correlation(psi, ops, ops)
    worst = float(max(np.max(np.abs(corr_cp - elementwise(math.cos, phi))),
                      np.max(np.abs(corr_s - 1.0)),
                      np.max(np.abs(states.concurrence(psi) - 1.0))))
    return CheckResult(
        "deformation_sweep",
        worst,
        1e-12,
        "<CPxCP> = cos(phi), <SxS> = 1, concurrence = 1 for all phi",
    )


def check_rho() -> CheckResult:
    t = np.array([0.5, 1.0, 2.0, 5.0])[:, None, None]  # t > 0, and 4 nodes for degree 2
    ok, scalar, residual, scalar_inv = braid.rho_check(SPEC, t)
    # ϱ(1/t)'s scalar has the same closed form: 2(t + 1/t) is even under t → 1/t
    gap = np.stack([scalar, scalar_inv]) - 2.0 * (t + 1.0 / t)
    worst = max(residual.max(), np.hypot(gap.real, gap.imag).max(), 0.0 if ok.all() else 1.0)
    printed = braid.rho_printed_formula(BraidSpec("plus", 0.0), 1.0)
    detail = f"computed 2(t+1/t); printed formula gives {printed:g} at t=1, phi=0"
    return CheckResult("rho_inversion", worst, 1e-12, detail)


def _abs_squared(z):
    """|z|² per element as Python's abs(z) ** 2 forms it: libm hypot, then libm
    pow (h·h differs from pow(h, 2.0) in the last bit on some inputs)."""
    return elementwise(lambda h: math.pow(h, 2.0), np.hypot(z.real, z.imag))


def amplitude_residuals(seed: int) -> np.ndarray:
    """(50, 2) gaps between |c_K|², |c_K̄|² from evolve_k and the closed-form
    P(K→K), P(K→K̄), on 50 seeded random parameter sets and times, as one
    stack.

    Row i takes the 5 uniforms (γ_S, γ_L, m_S, m_L, t) of draw i in turn, as
    rng.uniform drew them one set at a time: low + (high - low)·u is its
    arithmetic."""
    low, high = np.array([0.0, 0.0, -2.0, -2.0, 0.0]), np.array([2.0, 2.0, 2.0, 2.0, 5.0])
    u = np.random.default_rng(seed).random((50, 5))
    *fields, t = (low + (high - low) * u).T
    params = oscillation.KaonParams(*fields)
    amps = np.stack(oscillation.evolve_k(params, t), axis=-1)
    return np.abs(_abs_squared(amps)
                  - oscillation.transition_probability(params, t, "K", oscillation.FLAVORS))


def check_oscillation(seed: int) -> CheckResult:
    pure = oscillation.KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=0.474)
    params = oscillation.KaonParams()
    t_pure, t = 12.0 * np.arange(500) / 499, 12.0 * np.arange(200) / 199
    # both sets as one stack of 700 per-point sets, each point with the bits
    # of its set taken alone: the pure limit at its 500 times, then the defaults
    fields = np.repeat([[p.gamma_s, p.gamma_l, p.m_s, p.m_l] for p in (pure, params)],
                       [500, 200], axis=0).T
    flavors = oscillation.transition_probability(
        oscillation.KaonParams(*fields), np.concatenate([t_pure, t]), "K", oscillation.FLAVORS)
    # pure-oscillation limit, against (1 - cos Δm·t)/2: at γ = 0 the closed
    # form is the square of math.sin(Δm·t/2) itself, which would read 0
    closed = (1.0 - elementwise(math.cos, pure.delta_m * t_pure)) / 2.0
    worst = float(np.max(np.abs(flavors[:500, 1] - closed)))
    # decaying defaults
    p_same, p_flip = flavors[500:].T
    flip_back = oscillation.transition_probability(params, t, "Kbar", "K")
    ok = ((0.0 <= p_same) & (p_same <= 1.0) & (0.0 <= p_flip) & (p_flip <= 1.0)).all()
    total = np.abs(p_same + p_flip - oscillation.survival_probability(params, t)).max()
    worst = max(worst, float(total), 0.0 if ok and (p_flip == flip_back).all() else 1.0)
    # amplitude path vs closed form on random parameter draws
    worst = max(worst, float(amplitude_residuals(seed).max()))
    return CheckResult("oscillation", worst, 1e-12)


def run_suite(seed: int = 0, uncorrected: bool = False) -> list[CheckResult]:
    """The full battery, in reporting order."""
    return [
        check_braid_relation(uncorrected=uncorrected),
        check_uncorrected_diagnostic(),
        check_eigenvalues(),
        check_qybe(),
        check_asymptotic(),
        check_unitarity_grid(),
        check_hamiltonian_hermitian(),
        check_hamiltonian_even(),
        check_hamiltonian_t1_printed(),
        check_schrodinger(seed),
        check_r_hamiltonian_consistency(),
        check_bell_structure(),
        check_eigentable(),
        check_separability(seed),
        check_deformation_sweep(),
        check_rho(),
        check_oscillation(seed),
    ]
