"""The node grid behind `verify`'s spectral-family checks: it detects a broken
identity, each check equals its kernel taken point by point at the nodes,
and no row but the seeded ones depends on --seed."""

import contextlib
import functools
import io
import itertools

import pytest

from kaonbraid import braid, dynamics, verify
from kaonbraid.braid import SIGNS, BraidSpec
from kaonbraid.cli import main
from kaonbraid.linalg import hermiticity_residual, unitarity_residual


X = verify.X_NODES.tolist()


def node_specs():
    return [BraidSpec(sign, phi) for sign in SIGNS for phi in verify.PHI_NODES.tolist()]


def rho_point(spec, t):
    _, scalar, residual, scalar_inv = braid.rho_check(spec, t)
    closed_form = 2.0 * (t + 1.0 / t)
    return max(residual, abs(scalar - closed_form), abs(scalar_inv - closed_form))


# check -> its metric as the max of the kernel's calls at each node taken alone
POINTWISE = {
    verify.check_braid_relation: lambda: max(braid.check_braid_relation(s) for s in node_specs()),
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
}


@pytest.mark.parametrize("check", POINTWISE, ids=lambda c: c.__name__)
def test_node_check_equals_its_points(check):
    assert check().metric == POINTWISE[check]()


def test_misprinted_matrix_fails_qybe_at_the_nodes(monkeypatch):
    monkeypatch.setattr(braid, "braid_matrix",
                        functools.partial(braid.braid_matrix, corrected=False))
    assert verify.check_qybe().metric == pytest.approx(92, rel=0.01)


@pytest.mark.parametrize("check", [
    verify.check_braid_relation,
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
