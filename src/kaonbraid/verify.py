"""Aggregated verification suite.

Every check returns a CheckResult with the worst observed metric, the
tolerance it is held to, and a short detail string.  run_suite() composes
the full battery used by `kaonbraid verify`; the acceptance tests call the
individual check functions directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import braid, dynamics, oscillation, states
from .braid import BraidSpec
from .linalg import elementwise, frobenius, hermiticity_residual, unitarity_residual

PHI_SET = (0.0, math.pi / 7, math.pi / 3, 1.0, math.pi / 2, 2.5)
QYBE_PHI_SET = (0.0, 1.1, math.pi / 2)
CONSISTENCY_T = (0.1, 0.5, 1.0, 2.0, 10.0)
CONSISTENCY_PHI = (0.0, 1.0, math.pi / 2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    metric: float
    tol: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.metric <= self.tol


def _specs(phis=PHI_SET):
    """One spec per sign over the array of φ: the stacks the checks run on."""
    return [BraidSpec(sign, np.array(phis)) for sign in braid.SIGNS]


def check_braid_relation(uncorrected: bool = False) -> CheckResult:
    worst = max(float(braid.check_braid_relation(s, corrected=not uncorrected).max())
                for s in _specs())
    label = "uncorrected (3,4)=1 matrix" if uncorrected else "corrected matrix"
    return CheckResult("braid_relation", worst, 1e-12, label)


def check_uncorrected_diagnostic() -> CheckResult:
    """The misprinted matrix must clearly fail the braid relation."""
    least = min(float(braid.check_braid_relation(s, corrected=False).min()) for s in _specs())
    # pass iff the minimum residual exceeds 0.1
    metric = 0.0 if least > 0.1 else 1.0
    return CheckResult(
        "uncorrected_braid_fails", metric, 0.0, f"min residual {least:.3g} > 0.1"
    )


def check_eigenvalues() -> CheckResult:
    expected = np.array([1 - 1j, 1 - 1j, 1 + 1j, 1 + 1j])
    worst = 0.0
    for spec in _specs():
        ev = np.linalg.eigvals(braid.braid_matrix(spec))
        ev = np.take_along_axis(ev, np.argsort(ev.imag), axis=-1)
        worst = max(worst, float(np.max(np.abs(ev - expected))))
    return CheckResult("braid_eigenvalues", worst, 1e-10, "multiset {1+i, 1-i} twice")


def check_qybe(seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    draws = rng.uniform(0.0, 10.0, size=(100, 2))
    draws[draws == 0.0] = 10.0  # open interval (0, 10]
    # one (sign, φ) at a time: each stack of 100 8x8 products stays small
    worst = max(float(braid.check_qybe(BraidSpec(sign, phi), draws[:, 0], draws[:, 1]).max())
                for sign in braid.SIGNS for phi in QYBE_PHI_SET)
    return CheckResult("qybe", worst, 1e-10, "100 seeded (x,y) per sign and phi")


def check_asymptotic() -> CheckResult:
    worst = max(float(np.max(np.abs(braid.yang_baxterize(spec, 0.0) - braid.braid_matrix(spec))))
                for spec in _specs())
    return CheckResult("asymptotic_r0_equals_b", worst, 0.0, "exact entrywise")


def check_unitarity_grid() -> CheckResult:
    thetas = np.linspace(0.0, math.pi / 2, 20, endpoint=False)
    phis = np.linspace(0.0, 2 * math.pi, 20, endpoint=False)
    # θ down, φ across; math.tan per element, as the points were built one by one
    x = elementwise(math.tan, thetas)[:, None]
    worst = max(float(unitarity_residual(braid.unitary_r(BraidSpec(sign, phis), x)).max())
                for sign in braid.SIGNS)
    return CheckResult("unitary_r_grid", worst, 1e-12, "20x20 (theta, phi) grid")


def check_hamiltonian_hermitian() -> CheckResult:
    t = np.array([0.0, 0.5, -0.5, 1.0, -1.0, 10.0, -10.0])
    worst = max(float(hermiticity_residual(dynamics.hamiltonian_at(spec, t)).max())
                for spec in _specs())
    return CheckResult("hamiltonian_hermitian", worst, 1e-12)


def check_hamiltonian_even() -> CheckResult:
    t = np.array([0.5, 1.0, 10.0])
    h = dynamics.hamiltonian_at
    worst = max(float(np.max(np.abs(h(s, t) - h(s, -t)))) for s in _specs())
    return CheckResult("hamiltonian_even_in_t", worst, 0.0, "H(t) = H(-t) exactly")


def check_hamiltonian_t1_printed() -> CheckResult:
    """H(t=1) against the printed closed-form matrix (i/2)·[[0,0,0,-q],...]."""
    worst = 0.0
    for spec in _specs():
        q, s = spec.q, spec.sigma
        printed = np.zeros(q.shape + (4, 4), dtype=complex)
        printed[:, 0, 3], printed[:, 1, 2], printed[:, 2, 1] = -q, -s, s
        printed[:, 3, 0] = [1 / z for z in q.tolist()]  # Python's complex division
        diff = dynamics.hamiltonian_at(spec, 1.0) - (1j / 2) * printed
        worst = max(worst, float(np.max(np.abs(diff))))
    return CheckResult("hamiltonian_t1_printed_form", worst, 1e-14)


def check_schrodinger(seed: int) -> CheckResult:
    # 10 seeded unit states from one draw of 8 normals each: 4 real parts, then 4 imaginary
    d = np.random.default_rng(seed).normal(size=(10, 8))
    v = d[:, :4] + 1j * d[:, 4:]
    psi = v / frobenius(v[:, None, :])[:, None]
    t = np.array([0.2, 0.5, 1.0, 2.0, 5.0])
    worst = max(float(dynamics.schrodinger_residual(psi, spec, t, dt=1e-5).max())
                for spec in (BraidSpec("plus", 0.0), BraidSpec("minus", 1.0)))
    return CheckResult("schrodinger_residual", worst, 1e-6, "dt = 1e-5, 10 states x 5 times")


def check_r_hamiltonian_consistency() -> CheckResult:
    t = np.array(CONSISTENCY_T)
    worst = max(float(dynamics.r_vs_hamiltonian_consistency(BraidSpec(sign, phi), t).max())
                for sign in braid.SIGNS for phi in CONSISTENCY_PHI)
    return CheckResult("r_vs_hamiltonian", worst, 1e-11)


def check_bell_structure() -> CheckResult:
    worst = 0.0
    quartet = states.bell_quartet()
    gram = np.array([[a.overlap(b) for b in quartet] for a in quartet])
    worst = max(worst, frobenius(gram - np.eye(4)))
    worst = max(worst, max(abs(states.concurrence(s) - 1.0) for s in quartet))
    for sign in braid.SIGNS:
        images = states.braid_action_images(BraidSpec(sign, 0.0))
        g = np.array([[a.overlap(b) for b in images] for a in images])
        worst = max(worst, frobenius(g - np.eye(4)))
        for img in images:
            worst = max(worst, abs(states.concurrence(img) - 1.0))
            # each phi=0 image must coincide with a Bell state up to phase
            best = max(abs(img.overlap(b)) for b in quartet)
            worst = max(worst, abs(best - 1.0))
    return CheckResult("bell_structure", worst, 1e-12)


def check_eigentable() -> CheckResult:
    expected = [
        ("Phi1", 1.0, 1.0),
        ("Phi2", 1.0, -1.0),
        ("Phi3", -1.0, 1.0),
        ("Phi4", -1.0, -1.0),
    ]
    table = states.cp_s_eigentable()
    metric = 0.0 if table == expected else 1.0
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
    u, v, amp = (z / frobenius(z[:, None, :])[:, None] for z in (u, v, amp))
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
    eq4 = states.TwoKaonState([0.5, 0.5, 0.5, 0.5])
    metric = float(disagreements) + (0.0 if states.concurrence(eq4) < 1e-12 else 1.0)
    return CheckResult("separability_oracle", metric, 0.0, "1000 seeded states vs Schmidt rank")


def check_deformation_sweep(grid: int = 41) -> CheckResult:
    s_op, cp = states.strangeness_op(), states.cp_op()
    phi = np.linspace(0.0, 2 * math.pi, grid)
    psi = states.deformed_bell(phi)
    worst = float(max(np.max(np.abs(states.correlation(psi, cp, cp) - np.cos(phi))),
                      np.max(np.abs(states.correlation(psi, s_op, s_op) - 1.0)),
                      np.max(np.abs(states.concurrence(psi) - 1.0))))
    return CheckResult(
        "deformation_sweep",
        worst,
        1e-12,
        "<CPxCP> = cos(phi), <SxS> = 1, concurrence = 1 for all phi",
    )


def check_rho() -> CheckResult:
    worst = 0.0
    notes = []
    t = np.array([0.5, 1.0, 2.0, 5.0])
    for spec in _specs((0.0, 1.0, math.pi / 2)):
        ok, scalar, residual = braid.rho_check(spec, t[:, None])
        gap = scalar - 2.0 * (t[:, None] + 1.0 / t[:, None])
        worst = max(worst, residual.max(), np.hypot(gap.real, gap.imag).max(),
                    0.0 if ok.all() else 1.0)
    printed = braid.rho_printed_formula(BraidSpec("plus", 0.0), 1.0)
    notes.append(f"computed 2(t+1/t); printed formula gives {printed.real:g} at t=1, phi=0")
    return CheckResult("rho_inversion", worst, 1e-12, "; ".join(notes))


def check_oscillation(seed: int) -> CheckResult:
    # pure-oscillation limit
    pure = oscillation.KaonParams(gamma_s=0.0, gamma_l=0.0, m_s=0.0, m_l=0.474)
    t, _, p_flip, _ = oscillation.oscillation_curve(pure, 12.0, 500).T
    worst = float(np.max(np.abs(p_flip - elementwise(math.sin, pure.delta_m * t / 2.0) ** 2)))
    # decaying defaults
    params = oscillation.KaonParams()
    t, p_same, p_flip, _ = oscillation.oscillation_curve(params, 12.0, 200).T
    flip_back = oscillation.transition_probability(params, t, "Kbar", "K")
    ok = ((0.0 <= p_same) & (p_same <= 1.0) & (0.0 <= p_flip) & (p_flip <= 1.0)).all()
    total = np.abs(p_same + p_flip - oscillation.survival_probability(params, t)).max()
    worst = max(worst, float(total), 0.0 if ok and (p_flip == flip_back).all() else 1.0)
    # amplitude path vs closed form on random parameter draws
    rng = np.random.default_rng(seed)
    for _ in range(50):
        p = oscillation.KaonParams(*rng.uniform(0.0, 2.0, 2), *rng.uniform(-2.0, 2.0, 2))
        t = float(rng.uniform(0.0, 5.0))
        amps = oscillation.evolve_k(p, t)
        worst = max(worst, abs(abs(amps.c_k) ** 2 - oscillation.transition_probability(p, t, "K", "K")))
        worst = max(worst, abs(abs(amps.c_kbar) ** 2 - oscillation.transition_probability(p, t, "K", "Kbar")))
    return CheckResult("oscillation", worst, 1e-12)


def run_suite(seed: int = 0, uncorrected: bool = False) -> list[CheckResult]:
    """The full battery, in reporting order."""
    return [
        check_braid_relation(uncorrected=uncorrected),
        check_uncorrected_diagnostic(),
        check_eigenvalues(),
        check_qybe(seed),
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
