"""Batch CLI: verification suites, sweeps, state evolution and oscillation
tables with deterministic CSV/JSON output.

Numeric serialization is decimal with 17 significant digits ('%.17g'), so
every value round-trips bit-exactly through the emitted files.  Exit codes:
0 success, 1 verification failure, 2 configuration/validation error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, braid, dynamics, oscillation, states, verify
from .braid import BraidSpec
from .errors import KaonbraidError
from .linalg import frobenius

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2


def fmt(x) -> str:
    """Canonical cell formatting: numbers to 17 significant digits, strings
    verbatim."""
    # floats (np.float64 included) are nearly every cell: test them first so
    # the string branch adds no work to large numeric tables
    if isinstance(x, float):
        return format(float(x), ".17g")
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _json_value(v) -> str:
    import json

    if isinstance(v, str):
        return json.dumps(v)
    if v is None:
        return "null"
    if isinstance(v, (bool, int, float, np.integer, np.floating, np.bool_)):
        return fmt(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        items = (f"{_json_value(str(k))}: {_json_value(x)}" for k, x in v.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"unserializable value {v!r}")


def write_table(stream, columns, rows, meta, fmt_name):
    if fmt_name == "csv":
        stream.write(",".join(columns) + "\n")
        for row in rows:
            stream.write(",".join(fmt(v) for v in row) + "\n")
    else:
        doc = {"meta": meta, "columns": list(columns), "rows": [list(r) for r in rows]}
        stream.write(_json_value(doc) + "\n")


def load_config_file(path) -> dict:
    """Flat key = value file; keys mirror long flag names (dashes or underscores)."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise KaonbraidError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
_finite = math.isfinite


class Flag(NamedTuple):
    """A CLI flag and config key; default False makes it a switch.  `parse` maps
    text to a value or raises ValueError/KeyError; `check` (None: any) is `rule`."""

    default: object
    parse: Callable[[str], object]
    check: Callable[[object], bool] | None
    rule: str
    help: str


FLAGS = {
    "sign": Flag("plus", str, braid.SIGNS.__contains__, "one of plus, minus", "braid matrix b±"),
    "phi": Flag(0.0, float, _finite, "a finite number", "braid angle φ, q = e^(iφ)"),
    "t0": Flag(0.0, float, _finite, "a finite number", "first time (rho-report: 0.5 if <= 0)"),
    "t1": Flag(12.0, float, _finite, "a finite number", "last time"),
    "steps": Flag(100, int, lambda v: v >= 2, "an integer >= 2", "points on the time grid"),
    "grid": Flag(41, int, lambda v: v >= 2, "an integer >= 2", "points on the φ grid"),
    "gamma_s": Flag(1.0, float, lambda v: _finite(v) and v >= 0, "a finite number >= 0", "γ_S"),
    "gamma_l": Flag(0.00175, float, lambda v: _finite(v) and v >= 0, "a finite number >= 0",
                    "γ_L"),
    "dm": Flag(0.474, float, _finite, "a finite number", "mass difference Δm = m_L - m_S"),
    "format": Flag("csv", str, ("csv", "json").__contains__, "one of csv, json", "table format"),
    "out": Flag(None, str, None, "a path", "file for the table (None: stdout)"),
    "seed": Flag(0, int, lambda v: v >= 0, "an integer >= 0", "seed of the verify inputs"),
    "tol": Flag(None, float, lambda v: _finite(v) and v > 0, "a finite number > 0",
                "one tolerance for every verify check (None: each check's own)"),
    "state": Flag("KK", str, None, "text", "evolve: basis label, 4 real or 8 re,im amplitudes"),
    "uncorrected_b": Flag(False, lambda s: _BOOLEANS[s.lower()], None,
                          "one of 1, 0, true, false, yes, no", "use the misprinted braid matrix"),
}


def flag_value(key, raw, where):
    """Parse the text `raw` of flag `key` and check its rule; otherwise raise
    KaonbraidError naming `where` the text came from and the text itself."""
    flag = FLAGS[key]
    try:
        value = flag.parse(raw)
        if flag.check is None or flag.check(value):
            return value
    except (ValueError, KeyError):
        pass
    raise KaonbraidError(f"{where}: {raw!r} is not {flag.rule}")


def resolve(args) -> dict:
    """Merge defaults < config file < explicit flags, each text through flag_value."""
    cfg = {key: flag.default for key, flag in FLAGS.items()}
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in FLAGS:
                raise KaonbraidError(f"unknown config key {key!r}")
            cfg[key] = flag_value(key, raw, f"config key {key!r}")
    for key in FLAGS:
        raw = getattr(args, key)
        if raw == []:  # argparse drops the text of "--flag=--" and hands over []
            raw = "--"
        if raw is not None:
            cfg[key] = flag_value(key, raw, "--" + key.replace("_", "-"))
    return cfg


def linear_grid(lo, hi, n) -> np.ndarray:
    """n evenly spaced points from lo to hi; only a time range can overflow hi - lo."""
    width = hi - lo
    if not math.isfinite(width):
        raise KaonbraidError(f"--t0 {lo!r} and --t1 {hi!r} are too far apart: t1 - t0 overflows")
    return lo + width * np.arange(n) / (n - 1)


def _meta(cfg, command):
    """Command, version and every resolved flag but `out`, so the file says how it was made."""
    meta = {"command": command, "version": __version__}
    meta.update({k: cfg[k] for k in FLAGS if k != "out"})
    return meta


def _emit(cfg, command, columns, rows, extra_meta=None):
    meta = _meta(cfg, command)
    if extra_meta:
        meta.update(extra_meta)
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            write_table(fh, columns, rows, meta, cfg["format"])
    else:
        write_table(sys.stdout, columns, rows, meta, cfg["format"])


def cmd_verify(cfg) -> int:
    results = verify.run_suite(seed=cfg["seed"], uncorrected=cfg["uncorrected_b"])
    override = cfg["tol"]
    all_pass = True
    rows = []
    for r in results:
        tol = override if override is not None else r.tol
        ok = r.metric <= tol
        all_pass = all_pass and ok
        status = "PASS" if ok else "FAIL"
        line = f"{status}  {r.name:<28} metric={fmt(r.metric)}  tol={fmt(tol)}"
        if r.detail:
            line += f"  [{r.detail}]"
        print(line)
        rows.append((r.name, r.metric, tol, int(ok)))
    print(f"{'OK' if all_pass else 'FAILED'}: {sum(r[3] for r in rows)}/{len(rows)} checks passed")
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8", newline="") as fh:
            write_table(fh, ("check", "metric", "tol", "passed"), rows,
                        _meta(cfg, "verify"), cfg["format"])
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_bell(cfg) -> int:
    quartet = states.bell_quartet()
    table = states.cp_s_eigentable()
    columns = ["index", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
               "re_a3", "im_a3", "concurrence", "s_eigenvalue", "cp_eigenvalue"]
    rows = []
    for i, (psi, (_, s_eig, cp_eig)) in enumerate(zip(quartet, table), start=1):
        amps = [part for a in psi.amplitudes for part in (a.real, a.imag)]
        rows.append([i, *amps, states.concurrence(psi), s_eig, cp_eig])
    _emit(cfg, "bell", columns, rows)
    return EXIT_OK


def parse_state(text) -> states.TwoKaonState:
    if text in states.BASIS_LABELS:
        return states.canonical_basis()[states.BASIS_LABELS.index(text)]
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError as exc:
        raise KaonbraidError(f"state: {exc}") from None
    if len(parts) == 4:
        return states.TwoKaonState(parts)
    if len(parts) == 8:
        return states.TwoKaonState([complex(re, im) for re, im in zip(parts[::2], parts[1::2])])
    raise KaonbraidError("state must be a basis label, 4 real amplitudes, or 8 re,im values")


def cmd_evolve(cfg) -> int:
    spec = BraidSpec(cfg["sign"], cfg["phi"])
    psi0 = parse_state(cfg["state"])
    t0, t1, steps = cfg["t0"], cfg["t1"], cfg["steps"]
    columns = ["t", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
               "re_a3", "im_a3", "norm"]
    t = linear_grid(t0, t1, steps)
    psi = dynamics.propagator(spec, t0, t) @ psi0.vector
    # a complex (N, 4) array read as float is (N, 8): re_a0, im_a0, re_a1, ...
    table = np.column_stack([t, psi.view(float), frobenius(psi[:, None, :])])
    final = dynamics.evolve_state(psi0, spec, t0, t1)
    round_trip = dynamics.evolve_state(final, spec, t1, t0)
    extra = {
        "norm_drift": abs(float(np.linalg.norm(final.vector)) - 1.0),
        "round_trip_error": float(np.linalg.norm(round_trip.vector - psi0.vector)),
        "schrodinger_residual": dynamics.schrodinger_residual(
            psi0, spec, (t0 + t1) / 2.0 if t0 != t1 else t0, dt=1e-5
        ),
    }
    _emit(cfg, "evolve", columns, table.tolist(), extra)
    return EXIT_OK


def cmd_sweep_phi(cfg) -> int:
    phi = linear_grid(0.0, 2.0 * math.pi, cfg["grid"])
    # row i of b̃(φ) is the image of basis state i
    images = braid.unitary_braid(BraidSpec(cfg["sign"], phi)).reshape(-1, 4)
    deformed = states.deformed_bell(phi)
    s_op, cp = states.strangeness_op(), states.cp_op()
    table = np.column_stack([
        phi,
        states.concurrence(images).reshape(-1, 4),
        states.correlation(deformed, cp, cp),
        states.correlation(deformed, s_op, s_op),
    ])
    columns = ["phi", "c1", "c2", "c3", "c4", "corr_cp", "corr_s"]
    _emit(cfg, "sweep-phi", columns, table.tolist())
    return EXIT_OK


def cmd_oscillate(cfg) -> int:
    params = oscillation.KaonParams(
        gamma_s=cfg["gamma_s"], gamma_l=cfg["gamma_l"], m_s=0.0, m_l=cfg["dm"]
    )
    curve = oscillation.oscillation_curve(params, cfg["t1"], cfg["steps"])
    _emit(cfg, "oscillate", ["t", "p_k_to_k", "p_k_to_kbar", "asymmetry"], curve)
    return EXIT_OK


def cmd_rho_report(cfg) -> int:
    spec = BraidSpec(cfg["sign"], cfg["phi"])
    t = linear_grid(cfg["t0"] if cfg["t0"] > 0 else 0.5, cfg["t1"], cfg["steps"])
    ok, scalar, _ = braid.rho_check(spec, t)
    _, scalar_inv, _ = braid.rho_check(spec, 1.0 / t)
    printed = braid.rho_printed_formula(spec, t)
    gap, inversion = scalar - printed, scalar - scalar_inv
    # np.hypot is Python's abs() of a complex bit for bit; np.abs is not
    table = np.column_stack([
        t, ok, scalar.real, 2.0 * (t + 1.0 / t), printed.real,
        np.hypot(gap.real, gap.imag), np.hypot(inversion.real, inversion.imag),
    ])
    columns = ["t", "is_scalar", "scalar", "closed_form", "printed_formula",
               "discrepancy", "inversion_symmetry"]
    _emit(cfg, "rho-report", columns, table.tolist())
    return EXIT_OK


COMMANDS = {
    "verify": cmd_verify,
    "bell": cmd_bell,
    "evolve": cmd_evolve,
    "sweep-phi": cmd_sweep_phi,
    "oscillate": cmd_oscillate,
    "rho-report": cmd_rho_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kaonbraid",
        description="Two-kaon braid dynamics: verification suites and tables.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="flat key = value file; explicit flags take precedence")
    for key, flag in FLAGS.items():
        switch = {"action": "store_const", "const": "true"} if flag.default is False else {}
        parser.add_argument("--" + key.replace("_", "-"), **switch,
                            help=f"{flag.help}; {flag.rule}; default {flag.default}")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve(args)
        return COMMANDS[args.command](cfg)
    except (KaonbraidError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
