"""Every function, method and property getter in src/kaonbraid is reached by a
command: code that only the tests call is code no user runs."""

import contextlib
import importlib
import inspect
import io
import sys
from pathlib import Path

import kaonbraid
from kaonbraid.cli import main

PACKAGE = Path(kaonbraid.__file__).parent


def defined_code():
    """{code object: dotted name} of each function, method and property getter
    whose code lives in a package file.  Generated dunders (dataclass,
    NamedTuple) have another co_filename and are left out; functools.cache
    wrappers give their wrapped function, and their caches are cleared so that
    the run below calls it."""
    found = {}

    def add(obj):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
        obj = getattr(obj, "__wrapped__", obj)
        code = getattr(obj, "__code__", None)
        if code is not None and Path(code.co_filename).parent == PACKAGE:
            found[code] = f"{obj.__module__.removeprefix('kaonbraid.')}.{obj.__qualname__}"

    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"kaonbraid.{path.stem}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for value in vars(obj).values():
                    add(value.fget if isinstance(value, property) else
                        getattr(value, "__func__", value))
            else:
                add(obj)
    return found


def argvs(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("steps = 3\ngamma-s = 0.5  # a comment\n")
    table = ["bell", "evolve --steps 5", "evolve --state KbarK --steps 5",
             "evolve --state 0.5,0,0,0.5,0.5,0,0,-0.5 --steps 5", "sweep-phi --grid 5",
             "oscillate --steps 5", "rho-report --steps 5", f"oscillate --config {config}"]
    for fmt in ("csv", "json"):
        yield "verify", f"--format={fmt}", f"--out={tmp_path / ('report.' + fmt)}"
        for line in table:
            yield *line.split(), f"--format={fmt}"
    yield "verify", "--uncorrected-b", "--tol", "1"


def test_every_function_is_reached_by_a_command(tmp_path):
    defined = defined_code()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = []
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs(tmp_path):
                codes.append(main(list(argv)))
    finally:
        sys.setprofile(None)
    assert codes == [0] * (len(codes) - 1) + [1]
    unreached = sorted(name for code, name in defined.items() if code not in called)
    assert not unreached, f"no command reaches {unreached}"
