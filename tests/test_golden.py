"""Golden-output test: each table command, in CSV and in JSON, and `verify`
(stdout and its --out report) must write the same bytes as the committed
files under tests/golden/.

Regenerate the files (only after an output change that CHANGES.md explains)
with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

import pytest

from kaonbraid.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "bell": ["bell"],
    "evolve": ["evolve", "--sign", "minus", "--phi", "0.7", "--t0", "-1", "--t1", "2",
               "--steps", "5", "--state", "KKbar"],
    "evolve-amplitudes": ["evolve", "--phi", "2", "--t1", "3", "--steps", "4",
                          "--state", "0.5,0,0,0.5,0.5,0,0,-0.5"],
    # 300 rows of eight amplitudes, on a t grid where np.arctan and math.atan
    # differ: a one-ulp drift in the propagator angles or U·ψ₀ changes the bytes
    "evolve-300": ["evolve", "--sign", "minus", "--phi", "2.2", "--t0", "2", "--t1", "10",
                   "--steps", "300",
                   "--state", "0.1,-0.2,0.3,0.4,-0.5,0.1,0.2,0.6324555320336758"],
    "sweep-phi": ["sweep-phi", "--sign", "minus", "--phi", "1", "--grid", "5"],
    # 64 points: enough cells that a one-ulp drift in the concurrence or the
    # correlator arithmetic changes the bytes
    "sweep-phi-64": ["sweep-phi", "--sign", "minus", "--grid", "64"],
    "rho-report": ["rho-report", "--phi", "0.3", "--t0", "0.5", "--t1", "5", "--steps", "4"],
    "rho-report-default-t0": ["rho-report", "--t1", "3", "--steps", "3"],
    "rho-report-64": ["rho-report", "--phi", "1.3", "--t0", "0.1", "--t1", "50", "--steps", "64"],
    "oscillate": ["oscillate", "--t1", "20", "--steps", "7"],
    # γ_S + γ_L overflows; the t = 0 row must still be exactly 1 and 0
    "oscillate-extreme-rates": ["oscillate", "--gamma-s", "1e308", "--gamma-l", "1e308",
                                "--steps", "3"],
}

# Every golden table is shorter than one chunk of cli.CHUNK_ROWS rows, so
# these longer ones, which cross chunk boundaries, are pinned by the sha256
# of their stdout, taken from the per-cell writer that came before the
# chunked one (the __main__ block below does not rewrite them).
HASHED = {
    "oscillate --steps 9000 --format csv":
        "569283eff95e8199869365c938fb2d4d789321880dc8c7d5d5d7df6deacf3285",
    "oscillate --steps 9000 --format json":
        "9e02aec74c0ebe46892922c8854b16c32c0de616ecd82c10b21eff14bb46770f",
    "evolve --steps 5000 --format json":
        "9121d4df05ad2b27f0cb4a2afb72a563e88762c7eb8f30225a1e2a24444b0b4e",
}

# the metrics are the worst residuals over the seeded draws, so a one-ulp
# drift in any check's arithmetic tends to show in them
VERIFY = ["verify", "--seed", "0"]


def render(argv, report=None) -> tuple[bytes, bytes | None]:
    """stdout of the command, which must exit 0, and the bytes it wrote to
    the --out file `report`, if one is given."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main([*argv, *(["--out", str(report)] if report else [])]) == 0
    return buf.getvalue().encode("utf-8"), report.read_bytes() if report else None


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt_name):
    expected = (GOLDEN_DIR / f"{name}.{fmt_name}").read_bytes()
    assert render([*CASES[name], "--format", fmt_name])[0] == expected


@pytest.mark.parametrize("argv", sorted(HASHED))
def test_output_matches_hashed_pin(argv):
    assert hashlib.sha256(render(argv.split())[0]).hexdigest() == HASHED[argv]


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_verify_matches_golden(fmt_name, tmp_path):
    stdout, report = render([*VERIFY, "--format", fmt_name], tmp_path / f"report.{fmt_name}")
    assert stdout == (GOLDEN_DIR / "verify-seed0.txt").read_bytes()
    assert report == (GOLDEN_DIR / f"verify-seed0.{fmt_name}").read_bytes()


if __name__ == "__main__":
    for case, argv in CASES.items():
        for ext in ("csv", "json"):
            (GOLDEN_DIR / f"{case}.{ext}").write_bytes(render([*argv, "--format", ext])[0])
    with tempfile.TemporaryDirectory() as tmp:
        for ext in ("csv", "json"):
            stdout, report = render([*VERIFY, "--format", ext], pathlib.Path(tmp) / f"report.{ext}")
            (GOLDEN_DIR / "verify-seed0.txt").write_bytes(stdout)
            (GOLDEN_DIR / f"verify-seed0.{ext}").write_bytes(report)
    sys.exit(0)
