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

import numpy as np

from . import __version__, braid, dynamics, oscillation, states, verify
from .braid import BraidSpec
from .errors import KaonbraidError

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


FLAG_DEFAULTS = {
    "sign": "plus",
    "phi": 0.0,
    "t0": 0.0,
    "t1": 12.0,
    "steps": 100,
    "grid": 41,
    "gamma_s": 1.0,
    "gamma_l": 0.00175,
    "dm": 0.474,
    "format": "csv",
    "out": None,
    "seed": 0,
    "tol": None,
    "state": "KK",
    "uncorrected_b": False,
}

FLAG_TYPES = {
    "phi": float, "t0": float, "t1": float, "steps": int, "grid": int,
    "gamma_s": float, "gamma_l": float, "dm": float, "seed": int, "tol": float,
}


def _coerce(kind, raw, where):
    """kind(raw); a malformed value raises KaonbraidError naming where it came
    from."""
    try:
        return kind(raw)
    except ValueError:
        raise KaonbraidError(f"{where}: {raw!r} is not a valid {kind.__name__}") from None


def resolve(args) -> dict:
    """Merge defaults < config file < explicit flags."""
    cfg = dict(FLAG_DEFAULTS)
    if args.config:
        for key, raw in load_config_file(args.config).items():
            if key not in FLAG_DEFAULTS:
                raise KaonbraidError(f"unknown config key {key!r}")
            if key == "uncorrected_b":
                cfg[key] = raw.lower() in ("1", "true", "yes")
            else:
                cfg[key] = _coerce(FLAG_TYPES.get(key, str), raw, f"config key {key!r}")
    for key in FLAG_DEFAULTS:
        val = getattr(args, key, None)
        if key == "uncorrected_b":
            if val:
                cfg[key] = True
        elif val is not None:
            cfg[key] = val
    if cfg["sign"] not in braid.SIGNS:
        raise KaonbraidError(f"sign must be one of {braid.SIGNS}")
    if cfg["format"] not in ("csv", "json"):
        raise KaonbraidError("format must be csv or json")
    if cfg["steps"] < 2 or cfg["grid"] < 2:
        raise KaonbraidError("steps and grid must be >= 2")
    if cfg["tol"] is not None and cfg["tol"] <= 0:
        raise KaonbraidError("tol must be > 0")
    return cfg


def _meta(cfg, command):
    keys = ("sign", "phi", "t0", "t1", "steps", "grid", "gamma_s", "gamma_l", "dm", "seed")
    meta = {"command": command, "version": __version__}
    meta.update({k: cfg[k] for k in keys})
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
    parts = [_coerce(float, p, "state") for p in text.split(",")]
    if len(parts) == 4:
        return states.TwoKaonState(parts)
    if len(parts) == 8:
        return states.TwoKaonState([complex(re, im) for re, im in zip(parts[::2], parts[1::2])])
    raise KaonbraidError(
        "state must be a basis label, 4 real amplitudes, or 8 re,im values"
    )


def cmd_evolve(cfg) -> int:
    spec = BraidSpec(cfg["sign"], cfg["phi"])
    psi0 = parse_state(cfg["state"])
    t0, t1, steps = cfg["t0"], cfg["t1"], cfg["steps"]
    columns = ["t", "re_a0", "im_a0", "re_a1", "im_a1", "re_a2", "im_a2",
               "re_a3", "im_a3", "norm"]
    rows = []
    for i in range(steps):
        t = t0 + (t1 - t0) * i / (steps - 1)
        psi = dynamics.evolve_state(psi0, spec, t0, t)
        amps = [part for a in psi.amplitudes for part in (a.real, a.imag)]
        rows.append([t, *amps, float(np.linalg.norm(psi.vector))])
    final = dynamics.evolve_state(psi0, spec, t0, t1)
    round_trip = dynamics.evolve_state(final, spec, t1, t0)
    extra = {
        "norm_drift": abs(float(np.linalg.norm(final.vector)) - 1.0),
        "round_trip_error": float(np.linalg.norm(round_trip.vector - psi0.vector)),
        "schrodinger_residual": dynamics.schrodinger_residual(
            psi0, spec, (t0 + t1) / 2.0 if t0 != t1 else t0, dt=1e-5
        ),
    }
    _emit(cfg, "evolve", columns, rows, extra)
    return EXIT_OK


def cmd_sweep_phi(cfg) -> int:
    spec_sign = cfg["sign"]
    s_op, cp = states.strangeness_op(), states.cp_op()
    columns = ["phi", "c1", "c2", "c3", "c4", "corr_cp", "corr_s"]
    rows = []
    for i in range(cfg["grid"]):
        phi = 2.0 * math.pi * i / (cfg["grid"] - 1)
        images = states.braid_action_images(BraidSpec(spec_sign, phi))
        deformed = states.deformed_bell(phi)
        rows.append([
            phi,
            *(states.concurrence(img) for img in images),
            states.correlation(deformed, cp, cp),
            states.correlation(deformed, s_op, s_op),
        ])
    _emit(cfg, "sweep-phi", columns, rows)
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
    t0 = cfg["t0"] if cfg["t0"] > 0 else 0.5
    t_values = [t0 + (cfg["t1"] - t0) * i / (cfg["steps"] - 1) for i in range(cfg["steps"])]
    if any(t <= 0 for t in t_values):
        raise KaonbraidError("rho-report requires a positive t grid")
    columns = ["t", "is_scalar", "scalar", "closed_form", "printed_formula",
               "discrepancy", "inversion_symmetry"]
    rows = []
    for t in t_values:
        ok, scalar, _ = braid.rho_check(spec, t)
        _, scalar_inv, _ = braid.rho_check(spec, 1.0 / t)
        printed = braid.rho_printed_formula(spec, t)
        closed = 2.0 * (t + 1.0 / t)
        rows.append([
            t, int(ok), scalar.real, closed, printed.real,
            abs(scalar - printed), abs(scalar - scalar_inv),
        ])
    _emit(cfg, "rho-report", columns, rows)
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
    parser.add_argument("--sign", choices=braid.SIGNS)
    parser.add_argument("--phi", type=float)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--t1", type=float)
    parser.add_argument("--steps", type=int)
    parser.add_argument("--grid", type=int)
    parser.add_argument("--gamma-s", dest="gamma_s", type=float)
    parser.add_argument("--gamma-l", dest="gamma_l", type=float)
    parser.add_argument("--dm", type=float)
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--config")
    parser.add_argument("--state", help="basis label or comma-separated amplitudes (evolve)")
    parser.add_argument("--uncorrected-b", dest="uncorrected_b", action="store_true",
                        help="diagnostic: use the misprinted braid matrix")
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
