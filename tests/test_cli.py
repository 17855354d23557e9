import json
import math
import subprocess
import sys

import numpy as np
import pytest

from kaonbraid.cli import FLAGS, build_parser, fmt, load_config_file, main, parse_state, resolve
from kaonbraid.errors import KaonbraidError


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFormatting:
    def test_round_trip_17_digits(self):
        rng = np.random.default_rng(3)
        for x in rng.normal(scale=1e3, size=200):
            assert float(fmt(x)) == x

    def test_int_and_bool(self):
        assert fmt(True) == "1"
        assert fmt(False) == "0"
        assert fmt(7) == "7"


class TestConfig:
    def test_file_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phi = 1.5\nsign = minus\n# comment\nsteps = 7\n")
        assert load_config_file(cfg) == {"phi": "1.5", "sign": "minus", "steps": "7"}

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 3\ngamma-s = 0\ngamma-l = 0\n")
        code, out, _ = run_cli(
            capsys, "oscillate", "--config", str(cfg), "--steps", "2", "--t1", "1"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 3  # header + 2 rows

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(capsys, "oscillate", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_bad_flag_value(self, capsys):
        code, _, _ = run_cli(capsys, "oscillate", "--steps", "1")
        assert code == 2

    @pytest.mark.parametrize("text, value", [("yes", True), ("No", False), ("1", True),
                                             ("FALSE", False), ("maybe", None)])
    def test_boolean_spellings(self, tmp_path, text, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"uncorrected_b = {text}\n")
        args = build_parser().parse_args(["verify", "--config", str(cfg)])
        if value is None:
            with pytest.raises(KaonbraidError, match=f"'uncorrected_b'.*'{text}'"):
                resolve(args)
        else:
            assert resolve(args)["uncorrected_b"] is value

    def test_malformed_number_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = abc\n")
        code, _, err = run_cli(capsys, "oscillate", "--config", str(cfg))
        assert code == 2
        assert "'steps'" in err and "'abc'" in err


class TestParseState:
    def test_label(self):
        assert parse_state("KK").amplitudes == (1, 0, 0, 0)

    def test_real_amplitudes(self):
        psi = parse_state("0.5,0.5,0.5,0.5")
        assert psi.amplitudes == (0.5, 0.5, 0.5, 0.5)

    def test_complex_pairs(self):
        s = 1 / math.sqrt(2)
        psi = parse_state(f"{s},0,0,0,0,0,0,{s}")
        assert psi.amplitudes[1] == 0 and abs(psi.amplitudes[3] - 1j * s) < 1e-15

    def test_malformed_amplitude_rejected(self, capsys):
        code, _, err = run_cli(capsys, "evolve", "--state", "1,x,0,0")
        assert code == 2
        assert err.startswith("error:") and "'x'" in err


class TestVerifyCommand:
    def test_default_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "0")
        assert code == 0
        assert "OK:" in out and "FAIL" not in out

    def test_uncorrected_fails_on_braid_relation(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--uncorrected-b")
        assert code == 1
        assert any(
            line.startswith("FAIL") and "braid_relation" in line
            for line in out.splitlines()
        )

    def test_deterministic_report(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--seed", "17")
        _, out2, _ = run_cli(capsys, "verify", "--seed", "17")
        assert out1 == out2

    def test_csv_out(self, tmp_path, capsys):
        out_path = tmp_path / "r.csv"
        code, _, _ = run_cli(capsys, "verify", "--seed", "0", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "check,metric,tol,passed"
        assert len(lines) == 18
        assert lines[1].startswith("braid_relation,")

    def test_json_out_meta_echoes_every_flag(self, tmp_path, capsys):
        out_path = tmp_path / "r.json"
        code, _, _ = run_cli(capsys, "verify", "--format", "json", "--out", str(out_path))
        assert code == 0
        meta = json.loads(out_path.read_text())["meta"]
        assert list(meta) == ["command", "version", *(k for k in FLAGS if k != "out")]
        assert meta["tol"] is None and meta["uncorrected_b"] == 0


class TestTables:
    def test_oscillate_csv_round_trip(self, tmp_path, capsys):
        out_path = tmp_path / "osc.csv"
        code, _, _ = run_cli(
            capsys, "oscillate", "--steps", "50", "--out", str(out_path)
        )
        assert code == 0
        lines = out_path.read_text().split("\n")
        header = lines[0].split(",")
        assert header == ["t", "p_k_to_k", "p_k_to_kbar", "asymmetry"]
        rows = [[float(v) for v in line.split(",")] for line in lines[1:] if line]
        assert len(rows) == 50
        assert all(0.0 <= r[1] <= 1.0 and 0.0 <= r[2] <= 1.0 for r in rows)
        # byte-identical on a second run
        out2 = tmp_path / "osc2.csv"
        run_cli(capsys, "oscillate", "--steps", "50", "--out", str(out2))
        assert out_path.read_bytes() == out2.read_bytes()

    def test_oscillate_pure_matches_closed_form(self, tmp_path, capsys):
        out_path = tmp_path / "pure.csv"
        run_cli(
            capsys, "oscillate", "--gamma-s", "0", "--gamma-l", "0",
            "--steps", "100", "--out", str(out_path),
        )
        for line in out_path.read_text().splitlines()[1:]:
            t, _, p_flip, _ = (float(v) for v in line.split(","))
            assert abs(p_flip - math.sin(0.474 * t / 2.0) ** 2) < 1e-12

    def test_sweep_phi_columns(self, capsys):
        code, out, _ = run_cli(capsys, "sweep-phi", "--grid", "9")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "phi,c1,c2,c3,c4,corr_cp,corr_s"
        for line in lines[1:]:
            phi, c1, c2, c3, c4, corr_cp, corr_s = (float(v) for v in line.split(","))
            assert abs(corr_cp - math.cos(phi)) < 1e-12
            assert abs(corr_s - 1.0) < 1e-12
            for c in (c1, c2, c3, c4):
                assert abs(c - 1.0) < 1e-12

    def test_bell_json(self, capsys):
        code, out, _ = run_cli(capsys, "bell", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "bell"
        assert len(doc["rows"]) == 4
        eigs = [(r[-2], r[-1]) for r in doc["rows"]]
        assert eigs == [[1, 1], [1, -1], [-1, 1], [-1, -1]] or eigs == [
            (1, 1), (1, -1), (-1, 1), (-1, -1)
        ]

    def test_evolve_norm_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--t1", "2", "--steps", "20", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        norms = [row[-1] for row in doc["rows"]]
        assert all(abs(n - 1.0) < 1e-12 for n in norms)
        assert doc["meta"]["round_trip_error"] < 1e-12

    def test_evolve_equal_times_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "evolve", "--t0", "1", "--t1", "1", "--steps", "2",
            "--state", "KKbar", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        for row in doc["rows"]:
            assert row[1:9] == [0, 0, 1, 0, 0, 0, 0, 0]

    def test_evolve_meta_names_the_state(self, capsys):
        metas = [json.loads(run_cli(capsys, "evolve", "--steps", "2", "--state", label,
                                    "--format", "json")[1])["meta"] for label in ("KK", "KKbar")]
        assert [m["state"] for m in metas] == ["KK", "KKbar"]

    def test_evolve_rejects_nan_time(self, capsys):
        code, out, err = run_cli(capsys, "evolve", "--t1", "nan")
        assert code == 2
        assert out == ""
        assert "--t1" in err and "'nan'" in err

    @pytest.mark.parametrize("argv, named", [
        (["verify", "--seed", "-1"], ["--seed", "'-1'"]),
        (["verify", "--tol", "nan"], ["--tol", "'nan'"]),
        (["verify", "--tol", "inf"], ["--tol", "'inf'"]),
        (["evolve", "--t1", "inf"], ["--t1", "'inf'"]),
        (["rho-report", "--t1", "inf"], ["--t1", "'inf'"]),
        # the grid 0.5, -1.33, -3.17, -5 has non-positive t: rho_check rejects it whole
        (["rho-report", "--t1", "-5", "--steps", "4"], ["t must be > 0", "-1.33"]),
        # 1/t overflows: the message names t, not the spectral parameter 1/t
        (["rho-report", "--t0", "5e-324", "--t1", "1", "--steps", "3"],
         ["t = 5e-324", "1/t overflows"]),
        (["evolve", "--t0=-1e308", "--t1=1e308"], ["--t0 -1e+308", "--t1 1e+308"]),
        (["oscillate", "--dm", "1e300", "--t1", "1e10"], ["delta_m", "1e+300"]),
        (["bell", "--dm=--"], ["--dm", "'--'"]),
    ])
    def test_boundary_input_rejected(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert all(text in err for text in named), err

    def test_oscillate_asymmetry_survives_underflow(self, capsys):
        code, out, _ = run_cli(capsys, "oscillate", "--gamma-l", "1", "--t1", "2000")
        assert code == 0
        assert all(math.isfinite(float(line.split(",")[3]))
                   for line in out.splitlines()[1:])

    def test_rho_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "rho-report", "--t0", "0.5", "--t1", "5", "--steps", "10"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,is_scalar,scalar,closed_form,printed_formula")
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            t, is_scalar, scalar, closed, _, discrepancy, symmetry = vals
            assert is_scalar == 1.0
            assert abs(scalar - closed) < 1e-12
            assert abs(scalar - 2.0 * (t + 1.0 / t)) < 1e-12
            assert discrepancy > 0.0  # printed formula disagrees; reported
            assert symmetry < 1e-12


def test_json_numbers_round_trip(capsys):
    code, out, _ = run_cli(capsys, "oscillate", "--steps", "20", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    reparsed = json.loads(json.dumps(doc))
    assert reparsed == doc


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; a fresh interpreter must not pull it in
    code = "import sys, kaonbraid.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
