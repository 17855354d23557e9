"""Every function, method and property getter in src/kaonbraid is reached by a
command, and so is every line inside one, but for the few lines UNREACHED
names with their reasons: code that only the tests call is code no user runs.

The commands run in a child interpreter that traces line events from its
first import of the package, since verify.SPEC and the module constants are
built at import.  `coverage` is not needed: sys.settrace gives the lines.
Functions are named by their code objects' co_qualname (CPython 3.11 or
later)."""

import dis
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import BOUNDARY_INPUTS
from test_golden import CASES

import kaonbraid

PACKAGE = Path(kaonbraid.__file__).parent

# (function, source text of the line): why no command runs it.  A text
# names every line of the function that reads so.
UNREACHED = {
    ("braid.BraidSpec.__post_init__",
     'raise ValidationError(f"sign must be one of {SIGNS}, got {sign!r}")'):
        "library API guard (README): the CLI's --sign admits plus and minus only",
    ("braid.BraidSpec.__post_init__",
     'raise ValidationError(f"sign must be one of {SIGNS}, got {sign[bad].tolist()[0]!r}")'):
        "library API guard (README): the CLI builds no spec over an array of signs",
    ("braid.BraidSpec.__post_init__", 'raise ValidationError("phi must be finite")'):
        "library API guard (README): the CLI's --phi admits finite numbers only",
    ("braid.check_qybe",
     'raise DomainError("x·y must be finite: the product of the spectral parameters overflows")'):
        "library API guard (README): verify's nodes are x, y in {0, 1, 2}",
    ("braid._checked_t",
     'raise DomainError(f"t must be > 0, got t = {float(t[~(t > 0)].flat[0])!r}")'):
        "library API guard (README): rho-report moves a --t0 <= 0 to 0.5 and the CLI "
        "rejects a grid that reaches t <= 0 first, naming the flags",
    ("linalg.rotation",
     'raise DomainError(f"times must not be NaN: t0={t0}, t1={float(t1.flat[nan.argmax()])}")'):
        "library API guard (README): the CLI's times are finite",
    ("linalg.norm",
     "sq = np.concatenate([sq, np.zeros(sq.shape[:-1] + ((1 << n.bit_length()) - n,))], -1)"):
        "library API: every norm the commands take has 2, 4, 16 or 64 entries, a power of two",
    ("linalg._nonnegative",
     'raise DomainError(f"{name} must be finite and >= 0, got {float(a[bad].flat[0])!r}")'):
        "library API guard (README): the CLI passes only its own x and t grids",
    ("oscillation.KaonParams.__post_init__",
     'rule = "finite and >= 0" if rate else "finite"'):
        "library API guard (README): the CLI's rate and mass flags are checked by their rules",
    ("oscillation.KaonParams.__post_init__",
     'raise ValidationError(f"{name} must be {rule}, got {float(v[bad].flat[0])!r}")'):
        "library API guard (README): the CLI's rate and mass flags are checked by their rules",
    ("oscillation.transition_probability", 'raise ValidationError(f"flavors must be in {FLAVORS}")'):
        "library API guard: the CLI passes oscillation.FLAVORS itself",
    ("oscillation.oscillation_curve",
     'raise ValidationError("oscillation_curve takes one parameter set, not a stack")'):
        "library API guard (README): oscillate builds one parameter set",
    ("states.state_stack", 'raise ValidationError("a two-kaon state needs exactly 4 amplitudes")'):
        "library API guard: parse_state rejects a --state of another length first",
    ("states.cp_s_eigentable", "i = bad.any(axis=0).argmax() + 1"):
        "internal check: the CP/S eigenstates are built, not read",
    ("states.cp_s_eigentable",
     'raise ValidationError(f"Phi{i} is not an eigenvector with eigenvalue +-1; internal error")'):
        "internal check: the CP/S eigenstates are built, not read",
    ("states.correlation", 'raise ValidationError("correlation requires 2x2 single-kaon operators")'):
        "library API guard (README): the CLI builds every operator itself",
    ("states.correlation", 'raise ValidationError("correlation requires Hermitian operators")'):
        "library API guard (README): the CLI builds every operator itself",
    ("cli._json_value", 'raise TypeError(f"unserializable value {v!r}")'):
        "internal check: every meta value the commands make is a str, None, int or float",
    ("cli._keep_freed_memory", "return"):
        "off Linux, or a C library without mallopt",
    ("cli._cells", 'return b""'):
        "library API: the text of an empty array; every command's table has rows",
    ("cli._replacing", "except BaseException:"):
        "a write that fails midway: test_cli.py's TestOut patches write_table to fail",
    ("cli._replacing", "os.unlink(tmp)"):
        "a write that fails midway: test_cli.py's TestOut patches write_table to fail",
    ("cli._replacing", "raise"):
        "a write that fails midway: test_cli.py's TestOut patches write_table to fail",
    ("cli.main", "devnull = os.open(os.devnull, os.O_WRONLY)"):
        "a closed stdout: test_cli.py's test_closed_stdout_exits_quietly closes the pipe",
    ("cli.main", "os.dup2(devnull, sys.stdout.fileno())"):
        "a closed stdout: test_cli.py's test_closed_stdout_exits_quietly closes the pipe",
    ("cli.main", "return EXIT_PIPE_CLOSED"):
        "a closed stdout: test_cli.py's test_closed_stdout_exits_quietly closes the pipe",
    ("cli.main", 'print("error: interrupted", file=sys.stderr)'):
        "Ctrl-C: test_cli.py's test_interrupt_exits_quietly raises KeyboardInterrupt",
    ("cli.main", "return EXIT_INTERRUPTED"):
        "Ctrl-C: test_cli.py's test_interrupt_exits_quietly raises KeyboardInterrupt",
}


def argvs(tmp_path):
    """(argv, exit code) of every command the test runs: each table command in
    CSV and JSON, the golden argv, and the CLI's error inputs."""
    config = tmp_path / "run.cfg"
    config.write_text("# a comment-only line\nsteps = 3\ngamma-s = 0.5  # a comment\n")
    bad_configs = {"unknown.cfg": b"colour = red\n", "latin1.cfg": b"sign = \xe9\n",
                   "no-equals.cfg": b"steps 3\n"}
    for name, text in bad_configs.items():
        (tmp_path / name).write_bytes(text)
        yield ["oscillate", "--config", str(tmp_path / name)], 2
    yield ["evolve", "--state", "1,x,0,0"], 2
    # the table cannot be allocated
    yield ["oscillate", "--steps", str(10**15)], 2
    # t1 = (2**17 + 1)·2**-17 is a tie of the 17th digit, which '%.17g' writes
    yield ["oscillate", "--t1", "1.00000762939453125", "--steps", "2"], 0
    table = ["bell", "evolve --steps 5", "evolve --state KbarK --steps 5",
             "evolve --state 0.5,0,0,0.5,0.5,0,0,-0.5 --steps 5", "sweep-phi --grid 5",
             "oscillate --steps 5", "rho-report --steps 5", f"oscillate --config {config}",
             # 10,244 cells: two kernel blocks, with the row separator between them
             "oscillate --steps 2561",
             # every column constant: each row is the first row's text
             "evolve --t0 2 --t1 2 --steps 3"]
    for fmt in ("csv", "json"):
        yield ["verify", f"--format={fmt}", f"--out={tmp_path / ('report.' + fmt)}"], 0
        for line in table:
            yield [*line.split(), f"--format={fmt}"], 0
        for argv in CASES.values():
            yield [*argv, f"--format={fmt}"], 0
    # --out over a file verify wrote, onto a device, and where no file can be made
    yield ["oscillate", "--steps", "3", f"--out={tmp_path / 'report.csv'}"], 0
    yield ["oscillate", "--steps", "3", f"--out={os.devnull}"], 0
    yield ["oscillate", "--steps", "3", f"--out={tmp_path / 'no' / 'f.csv'}"], 2
    yield ["verify", "--uncorrected-b", "--tol", "1"], 1
    for argv, _ in BOUNDARY_INPUTS:
        yield argv, 2
    yield ["evolve", "--t0", "1e200", "--t1", "1e300", "--steps", "2"], 0


# The child: runs main on each argv of its stdin, with stdout and stderr
# discarded, and prints the exit codes and the (file name, line) of every
# line event in the package.
CHILD = """
import contextlib, io, json, os, sys

package = sys.argv[1]
reached = set()

def lines(frame, event, arg):
    if event == "line":
        reached.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return lines

def calls(frame, event, arg):
    return lines if os.path.dirname(frame.f_code.co_filename) == package else None

argvs = json.load(sys.stdin)
sys.settrace(calls)
from kaonbraid.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in argvs]
sys.settrace(None)
print(json.dumps({"codes": codes, "reached": sorted(reached)}))
"""


@pytest.fixture(scope="module")
def reached(tmp_path_factory):
    """The (file name, line) pairs that the commands run."""
    runs = list(argvs(tmp_path_factory.mktemp("reach")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]))
    child = subprocess.run([sys.executable, "-c", CHILD, str(PACKAGE)], env=env, check=True,
                           input=json.dumps([argv for argv, _ in runs]),
                           capture_output=True, text=True)
    result = json.loads(child.stdout)
    assert result["codes"] == [code for _, code in runs]
    return {tuple(pair) for pair in result["reached"]}


def body_lines(code):
    """The lines of a function's instructions past its prologue (the first
    RESUME and what precedes it, on the def line)."""
    ops = list(dis.get_instructions(code))
    start = next((i + 1 for i, op in enumerate(ops) if op.opname == "RESUME"), 0)
    offsets = {op.offset for op in ops[start:] if op.opname != "RESUME"}
    return {line for begin, _, line in code.co_lines() if begin in offsets and line is not None}


def function_lines():
    """{(file name, line): (function, source text)} of every executable line
    inside a function, method or property getter of the package, each named
    by its outermost function: nested functions, lambdas and comprehensions
    count as lines of it.  Generated dunders (dataclass, NamedTuple) have no
    source here and are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()

        def walk(code, owner):
            for const in code.co_consts:
                if not inspect.iscode(const):
                    continue
                # a class body has no CO_OPTIMIZED flag and owns no lines
                name = owner or (f"{path.stem}.{const.co_qualname}"
                                 if const.co_flags & inspect.CO_OPTIMIZED else None)
                if name:
                    for line in body_lines(const):
                        found.setdefault((path.name, line), (name, source[line - 1].strip()))
                walk(const, name)

        walk(compile("\n".join(source), str(path), "exec"), None)
    return found


def test_every_function_is_reached_by_a_command(reached):
    lines = function_lines()
    called = {lines[key][0] for key in lines.keys() & reached}
    unreached = sorted({name for name, _ in lines.values()} - called)
    assert not unreached, f"no command reaches {unreached}"


def test_every_line_is_reached_by_a_command_or_named(reached):
    lines = function_lines()
    unreached = {lines[key] for key in lines.keys() - reached}
    assert not unreached - UNREACHED.keys(), \
        f"no command reaches these lines, and UNREACHED does not name them: " \
        f"{sorted(unreached - UNREACHED.keys())}"
    assert not UNREACHED.keys() - unreached, \
        f"UNREACHED names lines that a command reaches or that are gone: " \
        f"{sorted(UNREACHED.keys() - unreached)}"
