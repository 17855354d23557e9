"""Independent output oracles for the benchmark workloads.

They use only numpy and the paper's formulas and never import the library
under test.  Each check takes the invocation and the text it produced and
returns the number of output rows, or raises OracleError.

The braid matrix is the paper's b±(φ) with q = e^{iφ} and the (3, 4) entry
corrected to 0 (the printed 1 breaks the braid relation).  Identities used:

* H₀ = -i·b̃², b̃ = b/√2, and H₀² = I, so
  U(t0, t) = cos α·I - i·sin α·H₀ with α = arctan t - arctan t0;
* ϱ = R(t)·R(1/t) = 2(t + 1/t)·I, printed as q² + q⁻² - t - 1/t;
* P(K→K) = (e^{-γ_S t} + e^{-γ_L t} + 2e^{-(γ_S+γ_L)t/2}·cos Δm·t)/4 and
  P(K→K̄) the same with the cosine term negated; their sum is
  (e^{-γ_S t} + e^{-γ_L t})/2 and the flavour asymmetry is
  cos(Δm·t)/cosh((γ_S - γ_L)·t/2).
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import BASIS_LABELS

# Every quantity checked here is O(1) or is compared relative to its size; the
# library computes each to within a few ulps, so 1e-12 leaves a wide margin.
TOL = 1e-12

AMPLITUDE_COLUMNS = ["re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2", "re_a3", "im_a3"]


class OracleError(AssertionError):
    """An output disagrees with the paper's closed form."""


def braid_matrices(sign: str, phi) -> np.ndarray:
    """b±(φ) for an array of φ, shape (n, 4, 4)."""
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    q = np.exp(1j * phi)
    s = 1.0 if sign == "plus" else -1.0
    b = np.zeros((phi.size, 4, 4), dtype=complex)
    b[:, 0, 0] = b[:, 1, 1] = b[:, 2, 2] = b[:, 3, 3] = 1.0
    b[:, 0, 3] = q
    b[:, 1, 2] = s
    b[:, 2, 1] = -s
    b[:, 3, 0] = -1.0 / q
    return b


def _close(name, got, want, rel=False):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise OracleError(f"{name}: shape {got.shape}, expected {want.shape}")
    scale = np.maximum(1.0, np.abs(want)) if rel else 1.0
    err = np.abs(got - want) / scale
    if not np.all(err <= TOL):  # also catches NaN
        worst = int(np.nanargmax(np.where(np.isnan(err), np.inf, err)))
        raise OracleError(f"{name}: row {worst} is {got.flat[worst]!r}, expected {want.flat[worst]!r}")


def _table(text: str, fmt_name: str):
    """(columns, rows as strings) of a CSV or JSON table."""
    if fmt_name == "json":
        doc = json.loads(text)
        return doc["columns"], doc["rows"]
    lines = text.split("\n")
    if lines[-1] != "":
        raise OracleError("CSV output does not end with a newline")
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]]


def _numeric(text, fmt_name, want_columns, n_rows):
    """Named numeric columns of a table with exactly n_rows rows."""
    columns, rows = _table(text, fmt_name)
    missing = [c for c in want_columns if c not in columns]
    if missing:
        raise OracleError(f"missing columns {missing}")
    if len(rows) != n_rows:
        raise OracleError(f"{len(rows)} rows, expected {n_rows}")
    data = np.array(rows, dtype=float).reshape(n_rows, len(columns))
    return {c: data[:, columns.index(c)] for c in want_columns}


def _grid(start, stop, n):
    return start + (stop - start) * np.arange(n) / (n - 1)


def _initial_state(text: str) -> np.ndarray:
    if text in BASIS_LABELS:
        return np.eye(4, dtype=complex)[BASIS_LABELS.index(text)]
    parts = [float(p) for p in text.split(",")]
    return np.array(parts[::2]) + 1j * np.array(parts[1::2])


def check_evolve(inv, stdout, report):
    p = inv.params
    n = p["steps"]
    col = _numeric(stdout, p["format"], ["t", *AMPLITUDE_COLUMNS, "norm"], n)
    _close("t", col["t"], _grid(p["t0"], p["t1"], n), rel=True)
    bt = braid_matrices(p["sign"], p["phi"])[0] / math.sqrt(2.0)
    h0 = -1j * (bt @ bt)
    psi0 = _initial_state(p["state"])
    alpha = np.arctan(col["t"]) - math.atan(p["t0"])
    psi = np.cos(alpha)[:, None] * psi0 - 1j * np.sin(alpha)[:, None] * (h0 @ psi0)
    for k in range(4):
        _close(f"re_a{k}", col[f"re_a{k}"], psi[:, k].real)
        _close(f"im_a{k}", col[f"im_a{k}"], psi[:, k].imag)
    _close("norm", col["norm"], np.ones(n))
    return n


def check_sweep_phi(inv, stdout, report):
    p = inv.params
    n = p["grid"]
    col = _numeric(stdout, p["format"], ["phi", "c1", "c2", "c3", "c4", "corr_cp", "corr_s"], n)
    phi = _grid(0.0, 2.0 * math.pi, n)
    _close("phi", col["phi"], phi)
    bt = braid_matrices(p["sign"], phi) / math.sqrt(2.0)
    for r in range(4):
        a = bt[:, r, :]  # image r of the basis, read along row r
        conc = np.minimum(1.0, 2.0 * np.abs(a[:, 0] * a[:, 3] - a[:, 1] * a[:, 2]))
        _close(f"c{r + 1}", col[f"c{r + 1}"], conc)
        if np.any((col[f"c{r + 1}"] < 0.0) | (col[f"c{r + 1}"] > 1.0)):
            raise OracleError(f"c{r + 1} outside [0, 1]")
    _close("corr_cp", col["corr_cp"], np.cos(phi))
    _close("corr_s", col["corr_s"], np.ones(n))
    return n


def check_rho_report(inv, stdout, report):
    p = inv.params
    n = p["steps"]
    names = ["t", "is_scalar", "scalar", "closed_form", "printed_formula",
             "discrepancy", "inversion_symmetry"]
    col = _numeric(stdout, p["format"], names, n)
    t = col["t"]
    _close("t", t, _grid(p["t0"], p["t1"], n), rel=True)
    rho = 2.0 * (t + 1.0 / t)
    printed = 2.0 * math.cos(2.0 * p["phi"]) - t - 1.0 / t
    _close("is_scalar", col["is_scalar"], np.ones(n))
    _close("scalar", col["scalar"], rho, rel=True)
    _close("closed_form", col["closed_form"], rho, rel=True)
    _close("printed_formula", col["printed_formula"], printed, rel=True)
    _close("discrepancy", col["discrepancy"], np.abs(rho - printed), rel=True)
    _close("inversion_symmetry", col["inversion_symmetry"] / rho, np.zeros(n))
    return n


def check_oscillate(inv, stdout, report):
    p = inv.params
    n = p["steps"]
    col = _numeric(stdout, p["format"], ["t", "p_k_to_k", "p_k_to_kbar", "asymmetry"], n)
    t = col["t"]
    _close("t", t, _grid(0.0, p["t1"], n), rel=True)
    gs, gl = p["gamma_s"], p["gamma_l"]
    survival = (np.exp(-gs * t) + np.exp(-gl * t)) / 2.0
    cross = np.exp(-(gs + gl) * t / 2.0) * np.cos(p["dm"] * t) / 2.0
    _close("p_k_to_k", col["p_k_to_k"], survival / 2.0 + cross)
    _close("p_k_to_kbar", col["p_k_to_kbar"], survival / 2.0 - cross)
    _close("p_k_to_k + p_k_to_kbar", col["p_k_to_k"] + col["p_k_to_kbar"], survival)
    _close("asymmetry", col["asymmetry"], np.cos(p["dm"] * t) / np.cosh((gs - gl) * t / 2.0))
    return n


def check_verify(inv, stdout, report):
    lines = stdout.splitlines()
    checks = lines[:-1]
    if not checks or any(not line.startswith("PASS ") for line in checks):
        failed = [line for line in checks if not line.startswith("PASS ")]
        raise OracleError(f"verify reported {failed or 'no checks'}")
    if lines[-1] != f"OK: {len(checks)}/{len(checks)} checks passed":
        raise OracleError(f"verify summary {lines[-1]!r}")
    columns, rows = _table(report, inv.params["format"])
    if len(rows) != len(checks):
        raise OracleError(f"report has {len(rows)} rows for {len(checks)} checks")
    passed = [float(r[columns.index("passed")]) for r in rows]
    metric = [float(r[columns.index("metric")]) for r in rows]
    tol = [float(r[columns.index("tol")]) for r in rows]
    if passed != [1.0] * len(rows) or any(not m <= t for m, t in zip(metric, tol)):
        raise OracleError("report marks a check as failed")
    return len(checks)


CHECKS = {
    "evolve": check_evolve,
    "sweep-phi": check_sweep_phi,
    "rho-report": check_rho_report,
    "oscillate": check_oscillate,
    "verify": check_verify,
}


def check(inv, stdout: str, report: str | None) -> int:
    """Check one invocation's output; returns its row count (checks for verify)."""
    try:
        return CHECKS[inv.command](inv, stdout, report)
    except (KeyError, IndexError, ValueError, TypeError) as exc:  # malformed output
        raise OracleError(f"unreadable output: {type(exc).__name__}: {exc}") from exc
