"""Golden-output test: each table command, in CSV and in JSON, and `verify`
(stdout and its --out report) must write the same bytes as the committed
files under tests/golden/.

Regenerate the files (only after an output change that CHANGES.md explains)
with `PYTHONPATH=src python tests/test_golden.py`.  A failed comparison names
the host: the goldens pin the bits of one numpy, OpenBLAS kernel and libm.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from test_linalg import LIBM_VARIANT, on_glibc

import kaonbraid
from kaonbraid.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

CASES = {
    "bell": ["bell"],
    "evolve": ["evolve", "--sign", "minus", "--phi", "0.7", "--t0", "-1", "--t1", "2",
               "--steps", "5", "--state", "KKbar"],
    "evolve-amplitudes": ["evolve", "--phi", "2", "--t1", "3", "--steps", "4",
                          "--state", "0.5,0,0,0.5,0.5,0,0,-0.5"],
    # 300 rows of eight amplitudes: a one-ulp drift in linalg.rotation's cos α
    # and sin α, or in U·ψ₀, changes the bytes
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

# Every golden table is shorter than one block of cli.KERNEL_CELLS // k rows
# (k columns), so these longer ones, which cross block boundaries, are pinned
# by the sha256 of their stdout (the __main__ block below does not rewrite
# them).  The evolve pin was taken from the chunked writer, with its table
# from dynamics.evolve_state; the oscillate pins from the chunked writer,
# with every cell checked to be '%.17g' of oscillation_curve's value.  The
# rho-report pins span 5 blocks of 1,170 rows, on a grid where 1/(1/t) != t
# at some points.
HASHED = {
    "oscillate --steps 9000 --format csv":
        "76629fd19a6695a0321a48b3e1e545691acf68cf0bd0e865a9bac05e67833e18",
    "oscillate --steps 9000 --format json":
        "28ebce04eaa4b5ed9709f52688b2e77c7eb8e0a79a438c9a779340e1c47fc6e8",
    "evolve --steps 5000 --format json":
        "33a5057de3038efde42f30ed2e5055495109bcfe69c7d73ede0a3d7de46287ee",
    "rho-report --steps 5000 --format csv":
        "df6a1c8844f4235fd1ccec7a0828d076247dafd38a3945332c0785ba4a91fa3f",
    "rho-report --steps 5000 --format json":
        "7d0e3036ef914dcd6378fd056db50e194ec681e7819b61e7435efcc7213a0c64",
}

# the metrics are the worst residuals over the node grids and the seeded
# draws, so a one-ulp drift in any check's arithmetic tends to show in them
VERIFY = ["verify", "--seed", "0"]


def host(env=os.environ) -> str:
    """The numpy version, machine, C library and, if set in `env`, the
    OpenBLAS kernel and glibc tunables that a process with that environment
    computes on."""
    libc = " ".join(filter(None, platform.libc_ver())) or "unknown libc"
    return ", ".join([f"numpy {np.__version__}", platform.machine(), libc]
                     + [f"{var}={env[var]}" for var in ("OPENBLAS_CORETYPE", "GLIBC_TUNABLES")
                        if env.get(var)])


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
    assert render([*CASES[name], "--format", fmt_name])[0] == expected, host()


@pytest.mark.parametrize("argv", sorted(HASHED))
def test_output_matches_hashed_pin(argv):
    assert hashlib.sha256(render(argv.split())[0]).hexdigest() == HASHED[argv], host()


@pytest.mark.parametrize("fmt_name", ["csv", "json"])
def test_verify_matches_golden(fmt_name, tmp_path):
    stdout, report = render([*VERIFY, "--format", fmt_name], tmp_path / f"report.{fmt_name}")
    assert stdout == (GOLDEN_DIR / "verify-seed0.txt").read_bytes(), host()
    assert report == (GOLDEN_DIR / f"verify-seed0.{fmt_name}").read_bytes(), host()


# OpenBLAS kernel sets a child process can be made to use, with the CPU
# flags each one's code needs
CORETYPES = {
    "Prescott": {"pni"},  # SSE3
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "Zen": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512bw", "avx512dq", "avx512vl", "avx512cd"},
}
DIGESTS = textwrap.dedent("""
    import contextlib, hashlib, io, json, sys
    from kaonbraid.cli import main

    for argv in json.loads(sys.argv[1]):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        print(code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest())
""")


def cpu_flags() -> set:
    try:
        text = pathlib.Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {f for line in text.splitlines() if line.startswith("flags")
            for f in line.partition(":")[2].split()}


def assert_golden_in_child(files, pins, **setting):
    """The commands of the golden `files` and of the hashed `pins`, run in a
    child process whose environment adds the variables `setting`, must exit
    0 and write the golden and pinned bytes.  The setting holds for the
    child alone."""
    argvs = [[*CASES[file.rpartition(".")[0]], "--format", file.rpartition(".")[2]]
             for file in files]
    argvs += [argv.split() for argv in pins]
    src = str(pathlib.Path(kaonbraid.__file__).resolve().parent.parent)
    env = {**os.environ, **setting,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", DIGESTS, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    expected = [f"0 {hashlib.sha256((GOLDEN_DIR / file).read_bytes()).hexdigest()}"
                for file in files] + [f"0 {HASHED[argv]}" for argv in pins]
    assert proc.stdout.splitlines() == expected, host(env)


@pytest.mark.parametrize("coretype", sorted(CORETYPES))
def test_evolve_and_rho_report_bytes_do_not_depend_on_the_blas_kernel(coretype):
    # neither table takes a BLAS or LAPACK call (rho-report's ϱ is multiplied
    # on its diagonal and anti-diagonal in numpy's float ufuncs), so every
    # OpenBLAS kernel set writes the golden bytes
    if not CORETYPES[coretype] <= cpu_flags():
        pytest.skip(f"this CPU cannot run OpenBLAS's {coretype} kernels")
    files = sorted([f"{name}.csv" for name in CASES if name.startswith("evolve")]
                   + [f"{name}.{ext}" for name in CASES if name.startswith("rho-report")
                      for ext in ("csv", "json")])
    pins = sorted(argv for argv in HASHED if argv.startswith("rho-report"))
    assert_golden_in_child(files, pins, OPENBLAS_CORETYPE=coretype)


@on_glibc
def test_evolve_bytes_do_not_depend_on_the_libm_variant():
    # evolve's only libm calls are the cos and sin of φ that BraidSpec takes
    # for q, and linalg.rotation takes cos α and sin α with +, -, ·, / and √:
    # glibc's variant without FMA and AVX writes the golden bytes, meta included
    files = sorted(f"{name}.{ext}" for name in CASES if name.startswith("evolve")
                   for ext in ("csv", "json"))
    pins = sorted(argv for argv in HASHED if argv.startswith("evolve"))
    assert_golden_in_child(files, pins, GLIBC_TUNABLES=LIBM_VARIANT)


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
