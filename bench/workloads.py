"""The four benchmark workloads: seeded, endless sequences of CLI argv lists.

Every flag value is drawn from the workload seed, so the same seed gives the
same argv sequence; the program under test sees only the generated argv.
Parameters are drawn from the neighbourhood of the physical defaults in the
README (γ_S = 1, γ_L = 0.00175, Δm = 0.474, t of order 1 to 20), where no
input is expected to be rejected.

Why each workload exists (later changes name these to state what they expect
to move and what must stay flat):

evolve
    `evolve --format json` at large --steps.  The only workload where
    `dynamics.propagator` and `linalg` (the Schur exponential) do most of the
    work; it also drives the JSON writer at scale.  Each invocation draws
    sign, φ, t0 < t1 and an initial state, either a basis label or a random
    normalized 8-value --state.

sweep
    Alternates `sweep-phi --grid G` and `rho-report` (t0 > 0), both in CSV,
    with drawn sign and φ.  `states` + `braid` work with no propagator call:
    the "should not move" control for propagator changes and the mechanism
    workload for Kronecker-product and revalidation changes.

oscillate
    `oscillate` in CSV at large --steps with γ_S, γ_L and Δm drawn near the
    defaults.  Pure-Python scalar math plus serialization, no matrix code:
    the control for every `linalg`/`states`/`braid` change and the mechanism
    workload for CSV serialization and `oscillation`.  The extreme-rate
    crash (γ_L·t ≳ 700 underflows both probabilities and divides by zero in
    the asymmetry) is robustness work, not throughput traffic, so the drawn
    rates stay far from it.

verify
    `verify --seed k` over seeded k, stdout captured, with the report file
    requested by --out alternately in CSV and in JSON.  The only workload
    where the `verify` layer and `braid.check_qybe` (8x8 Kronecker products)
    dominate; output volume is tiny.  Known defect, counted and not
    sidestepped: `cli.fmt` calls float() on the check name, so every CSV
    `--out` invocation raises ValueError and half of this workload's
    invocations fail until the CLI is fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SIGNS = ("plus", "minus")
BASIS_LABELS = ("KK", "KKbar", "KbarK", "KbarKbar")

# Sizes are fixed per workload so that every invocation does the same amount
# of work; each takes roughly 0.1-0.3 s on a 2-core Intel Xeon.
EVOLVE_STEPS = 1000
SWEEP_GRID = 576
RHO_STEPS = 1000
OSCILLATE_STEPS = 12000


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, the drawn parameters the oracle needs, and the
    report file it writes (relative to the working directory), if any."""

    command: str
    argv: tuple
    params: dict = field(hash=False)
    out: str | None = None


def _flag(name, value) -> str:
    # "--flag=value" keeps argparse from reading a negative value as a flag.
    return f"--{name}={value!r}" if isinstance(value, float) else f"--{name}={value}"


def _invocation(command, params, out=None) -> Invocation:
    argv = (command, *(_flag(k.replace("_", "-"), v) for k, v in params.items()))
    if out is not None:
        argv += (f"--out={out}",)
    return Invocation(command, argv, params, out)


def _evolve(rng, i):
    t0 = float(rng.uniform(0.0, 2.0))
    params = {
        "format": "json",
        "steps": EVOLVE_STEPS,
        "sign": SIGNS[rng.integers(2)],
        "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
        "t0": t0,
        "t1": t0 + float(rng.uniform(1.0, 20.0)),
    }
    if rng.random() < 0.5:
        params["state"] = BASIS_LABELS[rng.integers(4)]
    else:
        v = rng.normal(size=8)
        params["state"] = ",".join(repr(float(x)) for x in v / np.linalg.norm(v))
    return _invocation("evolve", params)


def _sweep(rng, i):
    sign = SIGNS[rng.integers(2)]
    phi = float(rng.uniform(0.0, 2.0 * math.pi))
    if i % 2 == 0:
        return _invocation("sweep-phi", {"format": "csv", "grid": SWEEP_GRID, "sign": sign})
    t0 = float(rng.uniform(0.1, 2.0))
    return _invocation("rho-report", {
        "format": "csv", "steps": RHO_STEPS, "sign": sign, "phi": phi,
        "t0": t0, "t1": t0 + float(rng.uniform(1.0, 20.0)),
    })


def _oscillate(rng, i):
    return _invocation("oscillate", {
        "format": "csv",
        "steps": OSCILLATE_STEPS,
        "gamma_s": float(rng.uniform(0.8, 1.2)),
        "gamma_l": float(rng.uniform(0.0015, 0.002)),
        "dm": float(rng.uniform(0.4, 0.55)),
        "t1": float(rng.uniform(5.0, 20.0)),
    })


def _verify(rng, i):
    fmt_name = "csv" if i % 2 == 0 else "json"
    params = {"format": fmt_name, "seed": int(rng.integers(1_000_000))}
    return _invocation("verify", params, out=f"report.{fmt_name}")


# name -> (generator, invocations per round).  A run ends only on a round
# boundary, so alternating workloads always run both halves equally often.
WORKLOADS = {
    "evolve": (_evolve, 1),
    "sweep": (_sweep, 2),
    "oscillate": (_oscillate, 1),
    "verify": (_verify, 2),
}


def invocations(workload: str, seed: int, stream: int = 0):
    """Endless argv sequence for a workload; stream 1 is for warm-up calls,
    so the timed sequence of a seed is the same however many warm-ups run."""
    make, _ = WORKLOADS[workload]
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload), stream])
    i = 0
    while True:
        yield make(rng, i)
        i += 1
