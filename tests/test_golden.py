"""Golden-output test: each table command, in CSV and in JSON, must write the
same bytes as the committed files under tests/golden/.

Regenerate the files (only after an output change that CHANGES.md explains)
with `PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from kaonbraid.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "bell": ["bell"],
    "evolve": ["evolve", "--sign", "minus", "--phi", "0.7", "--t0", "-1", "--t1", "2",
               "--steps", "5", "--state", "KKbar"],
    "evolve-amplitudes": ["evolve", "--phi", "2", "--t1", "3", "--steps", "4",
                          "--state", "0.5,0,0,0.5,0.5,0,0,-0.5"],
    "sweep-phi": ["sweep-phi", "--sign", "minus", "--phi", "1", "--grid", "5"],
    "rho-report": ["rho-report", "--phi", "0.3", "--t0", "0.5", "--t1", "5", "--steps", "4"],
    "rho-report-default-t0": ["rho-report", "--t1", "3", "--steps", "3"],
    "oscillate": ["oscillate", "--t1", "20", "--steps", "7"],
}


def render(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == 0
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, fmt_name):
    expected = (GOLDEN_DIR / f"{name}.{fmt_name}").read_bytes()
    assert render([*CASES[name], "--format", fmt_name]) == expected


if __name__ == "__main__":
    for case, argv in CASES.items():
        for ext in ("csv", "json"):
            (GOLDEN_DIR / f"{case}.{ext}").write_bytes(render([*argv, "--format", ext]))
    sys.exit(0)
