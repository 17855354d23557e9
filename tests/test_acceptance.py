"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line
with the observed metric and its pinned tolerance."""

import subprocess
import sys

from kaonbraid import verify
from kaonbraid.cli import main as cli_main

SEED = 0


def report(name, metric, tol, passed):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: metric={metric:.3g} tol={tol:.3g}")
    assert passed, f"{name}: metric {metric} exceeds tolerance {tol}"


def run_check(name, result):
    report(name, result.metric, result.tol, result.metric <= result.tol)


def test_01_braid_relation():
    run_check("01 braid relation", verify.check_braid_relation())
    run_check("01 uncorrected matrix fails", verify.check_uncorrected_diagnostic())


def test_02_eigenvalues():
    run_check("02 eigenvalue multiset {1+-i}", verify.check_eigenvalues())


def test_03_qybe():
    run_check("03 QYBE on the node grid", verify.check_qybe())


def test_04_asymptotic():
    run_check("04 R(0) = b exactly", verify.check_asymptotic())


def test_05_unitarity_grid():
    run_check("05 unitary R grid", verify.check_unitarity_grid())


def test_06_hamiltonian():
    run_check("06 Hamiltonian Hermitian", verify.check_hamiltonian_hermitian())
    run_check("06 Hamiltonian even in t", verify.check_hamiltonian_even())
    run_check("06 t=1 printed form", verify.check_hamiltonian_t1_printed())


def test_07_schrodinger():
    run_check("07 Schrodinger residual", verify.check_schrodinger(SEED))


def test_08_r_vs_hamiltonian():
    run_check("08 R-tilde vs propagator", verify.check_r_hamiltonian_consistency())


def test_09_bell_structure():
    run_check("09 Bell structure", verify.check_bell_structure())


def test_10_eigentable():
    run_check("10 CP/strangeness table", verify.check_eigentable())


def test_11_separability():
    run_check("11 separability oracle", verify.check_separability(SEED))


def test_12_deformation():
    run_check("12 deformation sweep", verify.check_deformation_sweep())


def test_13_rho():
    run_check("13 rho inversion relation", verify.check_rho())


def test_14_oscillation():
    run_check("14 oscillation phenomenology", verify.check_oscillation(SEED))


class TestCriterion15CliContract:
    def test_verify_exit_codes(self, capsys):
        ok = cli_main(["verify", "--seed", str(SEED)])
        bad = cli_main(["verify", "--uncorrected-b", "--seed", str(SEED)])
        capsys.readouterr()
        report("15 verify exit codes (0 / nonzero)", float(ok != 0 or bad == 0), 0.0,
               ok == 0 and bad != 0)

    def test_byte_identical_csv(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli_main(["sweep-phi", "--grid", "25", "--seed", "9",
                             "--out", str(path)]) == 0
        capsys.readouterr()
        identical = a.read_bytes() == b.read_bytes()
        report("15 byte-identical CSV for fixed seed", float(not identical), 0.0, identical)

    def test_csv_round_trip_17_digits(self, tmp_path, capsys):
        out = tmp_path / "osc.csv"
        assert cli_main(["oscillate", "--steps", "100", "--out", str(out)]) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        worst = 0.0
        from kaonbraid.oscillation import KaonParams, oscillation_curve

        # the grid oscillate --steps 100 builds: 0.0 + 12·i/99 is 12·i/99
        rows = oscillation_curve(KaonParams(), [12.0 * i / 99 for i in range(100)])
        for line, row in zip(lines[1:], rows):
            parsed = [float(v) for v in line.split(",")]
            worst = max(worst, max(abs(p - r) for p, r in zip(parsed, row)))
        report("15 CSV numeric round trip", worst, 0.0, worst == 0.0)

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "kaonbraid.cli", "bell"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("index,")
