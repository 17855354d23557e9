"""Benchmark child process: one closed loop with one client.

Run by run.py in a fresh interpreter, with the checkout's src/ on PYTHONPATH
and a scratch working directory as cwd.  It imports kaonbraid.cli, runs
warm-up invocations, then calls `kaonbraid.cli.main(argv)` back to back on
the workload's seeded argv sequence until --seconds have passed, checking
every output with the independent oracles outside the timed region.  The
last line of its stdout is a JSON record that run.py turns into metrics.

With --trace 1 each argv runs twice in a row, untraced and then traced, so
the tracing overhead is measured on the same inputs at the same moment.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
from calibration import reference_seconds  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WARMUP_ROUNDS = 1


class Outcome(NamedTuple):
    seconds: float
    code: int | None  # exit code, None when the call raised
    raised: str | None  # the exception, when the call raised
    stdout: str
    report: str | None  # the --out file's text, if it was written


def invoke(main, inv) -> Outcome:
    """Run one CLI call in this process, timing only the call itself."""
    if inv.out:
        Path(inv.out).unlink(missing_ok=True)
    stdout = io.StringIO()
    code, raised = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(inv.argv))
    except SystemExit as exc:  # argparse rejects bad flags this way
        code = exc.code
    except Exception as exc:  # a raising invocation is a counted failure, not a crash
        raised = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    report = Path(inv.out).read_text(encoding="utf-8") if inv.out and Path(inv.out).exists() else None
    return Outcome(elapsed, code, raised, stdout.getvalue(), report)


class Record:
    """Per-invocation outcomes of one run."""

    def __init__(self):
        self.seconds, self.traced_seconds, self.reference_seconds = [], [], []
        self.rows = self.table_bytes = self.failed = self.incorrect = 0
        self.errors: dict[str, int] = {}
        self.digests: dict[str, str] = {}

    def fail(self, message, incorrect):
        self.failed += 1
        self.incorrect += incorrect
        self.errors[message] = self.errors.get(message, 0) + 1

    def add(self, inv, out: Outcome):
        """Count one timed invocation.  A call that raises or exits non-zero
        failed and wrote no table to check; any other output must pass its
        oracle."""
        self.seconds.append(out.seconds)
        digest = hashlib.sha256(out.stdout.encode())
        if out.report is not None:
            digest.update(b"\0" + out.report.encode())
        self.digests[" ".join(inv.argv)] = digest.hexdigest()
        if out.raised or out.code not in (0, None):
            self.fail(out.raised or f"{inv.command}: exit code {out.code}", incorrect=False)
            return
        try:
            rows = oracles.check(inv, out.stdout, out.report)
        except oracles.OracleError as exc:
            self.fail(f"{inv.command}: {exc}", incorrect=True)
            return
        self.rows += rows
        self.table_bytes += len((out.report if inv.out else out.stdout).encode())


def environment() -> dict:
    import numpy as np

    import kaonbraid

    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    scipy = sys.modules.get("scipy")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__ if scipy else "not imported",
        "kaonbraid": kaonbraid.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run(workload, seed, seconds, trace):
    """The closed loop; returns the JSON-ready record."""
    import kaonbraid.cli as cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise RuntimeError(f"imported {cli.__file__}, not the checkout's copy under {SRC}")
    _, per_round = workloads.WORKLOADS[workload]
    warmup = workloads.invocations(workload, seed, stream=1)
    for _ in range(WARMUP_ROUNDS * per_round):
        invoke(cli.main, next(warmup))

    record, tracer = Record(), Tracer()
    sequence = workloads.invocations(workload, seed)
    start = time.perf_counter()
    if not trace:
        record.reference_seconds.append(reference_seconds())
    while True:
        for _ in range(per_round):
            inv = next(sequence)
            result = invoke(cli.main, inv)
            if not trace:
                record.reference_seconds.append(reference_seconds())
            record.add(inv, result)
            if trace:
                with tracer:
                    traced = invoke(cli.main, inv)
                record.traced_seconds.append(traced.seconds)
                if traced[1:] != result[1:]:
                    record.fail(f"{inv.command}: traced output differs from untraced", incorrect=True)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "workload": workload,
        "seed": seed,
        "seconds": record.seconds,
        "traced_seconds": record.traced_seconds,
        "reference_seconds": record.reference_seconds,
        "rows": record.rows,
        "table_bytes": record.table_bytes,
        "failed": record.failed,
        "incorrect": record.incorrect,
        "errors": record.errors,
        "digests": record.digests,
        "spans": tracer.stats,
        "env": environment(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
