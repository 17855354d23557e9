"""Layer tracer: wraps the public functions of the kaonbraid modules from
outside the library and aggregates call counts and self times per name.

Callers bind names by `from .linalg import tensor_product` and the CLI keeps
its commands in a dict, so a wrapper must replace every binding site, not
only the defining module's attribute.  The tracer therefore replaces every
reference to a wrapped function found in any kaonbraid module's namespace or
in a dict held there; constructors and methods are wrapped on the class
itself, which every binding site shares.

Spans are aggregated per name (calls, self seconds, inclusive seconds) rather
than kept individually: the hot leaves (`cli.fmt`, `linalg.as_matrix`) run
millions of times per run.  A span's self time is its duration minus that of
the wrapped calls it makes; inclusive time double-counts recursion, which no
wrapped function uses.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "kaonbraid"
LAYERS = ("cli", "linalg", "braid", "dynamics", "states", "oscillation", "verify")


class Tracer:
    """Install with `install()`, run the workload, then `uninstall()`;
    `stats` maps a span name to [calls, self_s, inclusive_s]."""

    def __init__(self):
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []
        self._undo: list[tuple] = []

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stat[2] += elapsed
                if stack:
                    stack[-1] += elapsed

        return span

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def _wrap_class(self, layer, cls):
        for attr, value in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}"
            if attr == "__init__":
                self._set(cls, attr, self._wrap(name, value))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(value):
                self._set(cls, attr, self._wrap(f"{name}.{attr}", value))
            elif isinstance(value, property) and value.fget is not None:
                wrapped = self._wrap(f"{name}.{attr}", value.fget)
                self._set(cls, attr, property(wrapped, value.fset, value.fdel, value.__doc__))

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, value in vars(module).items():
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(value):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
                elif inspect.isclass(value):
                    self._wrap_class(layer, value)
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._set(value, key, wrappers[id(item)])

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def totals(stats: dict, name: str) -> tuple[int, float, float]:
    """(calls, self_s, inclusive_s) of a span, or summed over a layer's spans
    when name is a layer."""
    prefix = name + "."
    rows = [s for n, s in stats.items() if n == name or (name in LAYERS and n.startswith(prefix))]
    return sum(r[0] for r in rows), sum(r[1] for r in rows), sum(r[2] for r in rows)
