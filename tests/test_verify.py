"""The node grid behind `verify`'s spectral-family checks: it detects a broken
identity, each check equals its kernel taken point by point at the nodes,
and no row but the seeded ones depends on --seed."""

import contextlib
import functools
import io
import itertools

import numpy as np
import pytest

from kaonbraid import braid, dynamics, states, verify
from kaonbraid.braid import SIGNS, BraidSpec
from kaonbraid.cli import main
from kaonbraid.linalg import frobenius, hermiticity_residual, unitarity_residual


X = verify.X_NODES.tolist()


def node_specs():
    return [BraidSpec(sign, phi) for sign in SIGNS for phi in verify.PHI_NODES.tolist()]


def rho_point(spec, t):
    _, scalar, residual, scalar_inv = braid.rho_check(spec, t)
    closed_form = 2.0 * (t + 1.0 / t)
    return max(residual, abs(scalar - closed_form), abs(scalar_inv - closed_form))


def minimal_polynomial_point(spec):
    """check_eigenvalues' metric at one spec."""
    b = braid.braid_matrix(spec)
    return max(frobenius(b @ b - 2.0 * b + 2.0 * np.eye(4)), abs(np.trace(b) - 4.0))


def bell_rows(rows):
    """check_bell_structure's metric on one 4x4 set of rows."""
    quartet = states.bell_quartet()
    overlaps, gram = (rows.conj() @ other.T for other in (quartet, rows))
    best = np.hypot(overlaps.real, overlaps.imag).max(axis=1)
    return max(frobenius(gram - np.eye(4)), np.abs(best - 1.0).max(),
               np.abs(states.concurrence(rows) - 1.0).max())


# check -> its metric as the max of the kernel's calls at each node taken alone
POINTWISE = {
    verify.check_braid_relation: lambda: max(braid.check_braid_relation(s) for s in node_specs()),
    verify.check_eigenvalues: lambda: max(minimal_polynomial_point(s) for s in node_specs()),
    verify.check_qybe: lambda: max(braid.check_qybe(s, x, y)
                                   for s in node_specs() for x, y in itertools.product(X, X)),
    verify.check_unitarity_grid: lambda: max(unitarity_residual(braid.unitary_r(s, x))
                                             for s in node_specs() for x in X),
    verify.check_hamiltonian_hermitian: lambda: max(
        hermiticity_residual(dynamics.hamiltonian_at(s, t))
        for s in node_specs() for t in (0.0, 0.5, -0.5, 1.0, -1.0, 10.0, -10.0)),
    verify.check_r_hamiltonian_consistency: lambda: max(
        dynamics.r_vs_hamiltonian_consistency(s, t) for s in node_specs() for t in X),
    verify.check_rho: lambda: max(rho_point(s, t)
                                  for s in node_specs() for t in (0.5, 1.0, 2.0, 5.0)),
    verify.check_bell_structure: lambda: max(
        bell_rows(rows) for rows in [states.bell_quartet()]
        + [braid.unitary_braid(BraidSpec(s, 0.0)) for s in SIGNS]),
}


@pytest.mark.parametrize("check", POINTWISE, ids=lambda c: c.__name__)
def test_node_check_equals_its_points(check):
    assert check().metric == POINTWISE[check]()


def test_misprinted_matrix_fails_qybe_at_the_nodes(monkeypatch):
    monkeypatch.setattr(braid, "braid_matrix",
                        functools.partial(braid.braid_matrix, corrected=False))
    assert verify.check_qybe().metric == pytest.approx(92, rel=0.01)


def test_misprinted_matrix_fails_the_minimal_polynomial(monkeypatch):
    # the stray 1 keeps the eigenvalues 1 ± i, two each, but b is then not
    # diagonalizable: b² - 2b + 2I has σ at (1, 3) and -1/q at (2, 0), where
    # np.linalg.eigvals read the eigenvalues off by only 1.8e-8
    monkeypatch.setattr(braid, "braid_matrix",
                        functools.partial(braid.braid_matrix, corrected=False))
    result = verify.check_eigenvalues()
    assert result.metric == pytest.approx(2 ** 0.5, rel=1e-12) and result.metric > result.tol


@pytest.mark.parametrize("check", [
    verify.check_braid_relation,
    verify.check_eigenvalues,
    verify.check_qybe,
    verify.check_unitarity_grid,
    verify.check_r_hamiltonian_consistency,
    verify.check_rho,
    verify.check_hamiltonian_hermitian,
], ids=lambda c: c.__name__)
def test_nodes_detect_a_perturbed_entry(monkeypatch, check):
    # b's σ entry at (1, 2) off by one part in a million breaks each identity
    exact = braid.braid_matrix

    def perturbed(spec, corrected=True):
        b = exact(spec, corrected)
        b[..., 1, 2] *= 1 + 1e-6
        return b

    monkeypatch.setattr(braid, "braid_matrix", perturbed)
    result = check()
    assert result.metric > result.tol


def test_uncorrected_diagnostic_fails_on_small_residuals(monkeypatch):
    # a misprinted matrix that came within 0.1 of the braid relation
    monkeypatch.setattr(braid, "check_braid_relation",
                        lambda spec, corrected=True: np.full(np.shape(spec.q), 0.05))
    result = verify.check_uncorrected_diagnostic()
    assert result.metric == 1.0 > result.tol
    assert result.detail == "min residual 0.05 <= 0.1"


def test_rho_checks_the_scalar_at_inverse_times(monkeypatch):
    # R(1/t)·R(1/(1/t))'s scalar off by one part in a billion, all else exact
    exact = braid.rho_check

    def perturbed(spec, t):
        ok, scalar, residual, scalar_inv = exact(spec, t)
        return ok, scalar, residual, scalar_inv * (1 + 1e-9)

    monkeypatch.setattr(braid, "rho_check", perturbed)
    result = verify.check_rho()
    assert result.metric > result.tol


def test_only_seeded_rows_depend_on_the_seed():
    rows = []
    for seed in ("0", "12345"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["verify", "--seed", seed]) == 0
        rows.append({line.split()[1]: line for line in buf.getvalue().splitlines()[:-1]})
    seeded = {"schrodinger_residual", "separability_oracle", "oscillation"}
    assert rows[0].keys() == rows[1].keys() and seeded <= rows[0].keys()
    assert all(rows[0][name] == rows[1][name] for name in rows[0].keys() - seeded)
