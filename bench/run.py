"""kaonbraid benchmark: one workload, one seed, one result.

    python3 bench/run.py --workload {evolve,sweep,oscillate,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/
directory, never from an installed copy.  The run is split over several
child interpreters, each running the workload's CLI invocations back to
back for a share of S seconds.  With --trace 0, set-up time (fresh
interpreters importing kaonbraid.cli) is probed between them, and the peak
RSS of `python3 -m kaonbraid.cli` is taken on the workload's first round;
the last stdout line reports every end-to-end metric, with times rescaled
to a reference host speed (see calibration.py).  With --trace 1 the
children run each invocation untraced and then traced and the last line
reports every per-layer metric in raw seconds.  The line before it is a
detail record: environment, tail percentile and sample count, failure
messages, raw seconds, peak RSS per argv and a sha256 of each invocation's
output keyed by its argv.  The metric names and units are those listed in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from calibration import normalized, reference_seconds  # noqa: E402
from tracer import totals  # noqa: E402
from workloads import WORKLOADS, invocations  # noqa: E402

# The run is split over WORKERS child interpreters that each replay the
# seed's argv sequence, so that what differs between processes (hash seed,
# memory layout) averages out instead of shifting a whole run.  Set-up is
# probed once before each worker and once after the last; an untimed first
# probe writes the bytecode cache.
WORKERS = 4
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CHILD_GRACE_S = 100
PROBE_TIMEOUT_S = 60


def child_env() -> dict:
    """Environment of every child: the checkout's src first, one BLAS thread
    (a single client with no extra threads), and bytecode caching as a user
    would have it."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(argv, workdir) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one fresh interpreter.
    It is reaped by a blocking wait4: Popen.wait(timeout) polls with sleeps
    of up to 50 ms, which would round every time up to that grain."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=workdir, env=child_env(),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    timer = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def measure_setup(workdir) -> tuple[float, float, float]:
    """(seconds, reference before, reference after) of a fresh interpreter
    importing kaonbraid.cli."""
    before = reference_seconds()
    seconds, _, code = spawn(["-c", "import kaonbraid.cli"], workdir)
    if code != 0:
        raise RuntimeError(f"importing kaonbraid.cli exited with {code}")
    return seconds, before, reference_seconds()


def measure_peak_rss(workdir, workload, seed) -> dict:
    """Peak RSS in MB of the real CLI, `python3 -m kaonbraid.cli <argv>` with
    stdout to /dev/null, for each argv of the workload's first round.  Each
    runs in a fresh interpreter holding no benchmark code, so the peak is the
    program's own: imports plus whatever its command materializes."""
    sequence = invocations(workload, seed)
    peaks = {}
    for _ in range(WORKLOADS[workload][1]):
        inv = next(sequence)
        peaks[" ".join(inv.argv)] = spawn(["-m", "kaonbraid.cli", *inv.argv], workdir)[1]
    return peaks


def run_child(args, workdir) -> dict:
    seconds = args.seconds / WORKERS
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)]
    proc = subprocess.run(argv, cwd=workdir, env=child_env(), capture_output=True,
                          text=True, timeout=seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"benchmark child exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def merge(records) -> dict:
    """One record from the workers' records.  Each worker's times are rescaled
    by its own references into "normalized".  The workers replay the same
    argv sequence, so an argv whose output differs between them is counted
    as incorrect."""
    rec = dict(records[0], normalized=[], seconds=[], traced_seconds=[], reference_seconds=[],
               rows=0, table_bytes=0, failed=0, incorrect=0, errors={}, digests={}, spans={})
    for r in records:
        refs = r["reference_seconds"]
        rec["normalized"] += [normalized(t, a, b) for t, a, b in zip(r["seconds"], refs, refs[1:])]
        for key in ("seconds", "traced_seconds", "reference_seconds"):
            rec[key] += r[key]
        for key in ("rows", "table_bytes", "failed", "incorrect"):
            rec[key] += r[key]
        for message, count in r["errors"].items():
            rec["errors"][message] = rec["errors"].get(message, 0) + count
        for name, stat in r["spans"].items():
            rec["spans"][name] = [a + b for a, b in zip(rec["spans"].get(name, (0, 0.0, 0.0)), stat)]
        for argv, digest in r["digests"].items():
            if rec["digests"].setdefault(argv, digest) != digest:
                rec["incorrect"] += 1
                message = f"{argv.split()[0]}: output differs between workers"
                rec["errors"][message] = rec["errors"].get(message, 0) + 1
    return rec


def end_to_end(rec, setup, peaks) -> dict:
    times = sorted(rec["normalized"])
    attempted = len(times)
    if attempted <= TAIL_BEYOND:
        raise RuntimeError(f"only {attempted} invocations; raise --seconds")
    return {
        "rows_per_s": rec["rows"] / sum(times),
        "wall_s": statistics.median(times),
        "wall_s_tail": times[-TAIL_BEYOND - 1],
        "setup_s": statistics.median(normalized(*probe) for probe in setup),
        "peak_rss_mb": max(peaks.values()),
        "ok_frac": (attempted - rec["failed"]) / attempted,
    }


def per_layer(rec, names) -> dict:
    """Per-invocation means of the traced spans, plus derived ratios."""
    spans, n = rec["spans"], len(rec["traced_seconds"])
    values = {
        "trace.overhead_s": (sum(rec["traced_seconds"]) - sum(rec["seconds"])) / n,
        "states.validations_per_row":
            totals(spans, "states.TwoKaonState")[0] / max(rec["rows"], 1),
        "cli.write_table.bytes": rec["table_bytes"] / n,
    }
    calls, _, inclusive = totals(spans, "dynamics.propagator")
    values["dynamics.propagator.us_per_call"] = 1e6 * inclusive / calls if calls else 0.0
    for name in names:
        span, _, kind = name.rpartition(".")
        if name not in values and kind in ("calls", "self_s"):
            count, self_s, _ = totals(spans, span)
            values[name] = (count if kind == "calls" else self_s) / n
    return values


def detail(rec, setup, peaks) -> dict:
    n, raw = len(rec["seconds"]), rec["seconds"]
    out = {
        "workload": rec["workload"],
        "seed": rec["seed"],
        "samples": n,
        "tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "failed_frac": rec["failed"] / n,
        "errors": rec["errors"],
    }
    if setup:
        out["raw_seconds"] = {
            "rows_per_s": rec["rows"] / sum(raw),
            "wall_s": statistics.median(raw),
            "wall_s_tail": sorted(raw)[-TAIL_BEYOND - 1],
            "setup_s": statistics.median(probe[0] for probe in setup),
            "reference_s": statistics.median(rec["reference_seconds"]),
        }
    out.update(env=rec["env"], peak_rss_mb=peaks, digests=rec["digests"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kaonbraid benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "kaonbraid" / "cli.py").is_file():
        print(f"error: no kaonbraid sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work")
    try:
        setup, records, peaks = [], [], {}
        if not args.trace:
            measure_setup(workdir)
        for _ in range(WORKERS):
            if not args.trace:
                setup.append(measure_setup(workdir))
            records.append(run_child(args, workdir))
        if not args.trace:
            setup.append(measure_setup(workdir))
            peaks = measure_peak_rss(workdir, args.workload, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    rec = merge(records)

    if args.trace:
        values = per_layer(rec, [m["name"] for m in wanted])
    else:
        values = end_to_end(rec, setup, peaks)
    print(json.dumps({"detail": detail(rec, setup, peaks)}))
    print(json.dumps({
        "correct": rec["incorrect"] == 0,
        "attempted": len(rec["seconds"]),
        "failed": rec["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
