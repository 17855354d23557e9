"""Self-tests of the benchmark: tracer bindings, oracles and seeding.

    python3 -m pytest bench/test_bench.py -q

Kept out of the library's test suite (pytest's testpaths is tests/).
"""

from __future__ import annotations

import inspect
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(BENCH), str(SRC)]

import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, totals  # noqa: E402

import kaonbraid.cli  # noqa: E402,F401

# span -> workload whose mechanism it is; each must be reached there.
MECHANISM = {
    "dynamics.propagator": "evolve",
    "linalg.matrix_exponential_normal": "evolve",
    "states.TwoKaonState": "evolve",
    "linalg.tensor_product": "sweep",
    "linalg.as_matrix": "sweep",
    "states.correlation": "sweep",
    "states.concurrence": "sweep",
    "braid.rho_check": "sweep",
    "braid.yang_baxterize": "sweep",
    "braid.unitary_braid": "sweep",
    "cli.write_table": "oscillate",
    "cli.fmt": "oscillate",
    "cli.resolve": "oscillate",
    "oscillation.transition_probability": "oscillate",
    "braid.check_qybe": "verify",
    "verify.check_qybe": "verify",
    "verify.check_separability": "verify",
}
# (span or layer, workload) pairs predicted to see no call at all.
CONTROLS = [
    ("dynamics.propagator", "sweep"),
    ("dynamics.propagator", "oscillate"),
    ("oscillation", "evolve"),
]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced round of every workload, run in-process."""
    records = {}
    for name in workloads.WORKLOADS:
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(tmp_path_factory.mktemp(name))
            records[name] = worker.run(name, seed=0, seconds=0, trace=True)
    return records


def _defined(span):
    """False when the library no longer has the function a span names."""
    layer, *path = span.split(".")
    obj = sys.modules[f"kaonbraid.{layer}"]
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj is not None


def test_every_binding_site_is_wrapped():
    defined = {}
    for layer in LAYERS:
        module = sys.modules[f"kaonbraid.{layer}"]
        defined.update({id(v): f"{layer}.{k}" for k, v in vars(module).items()
                        if inspect.isfunction(v) and v.__module__ == module.__name__
                        and not k.startswith("_")})
    modules = [m for n, m in sys.modules.items() if n == "kaonbraid" or n.startswith("kaonbraid.")]
    two_kaon_state = sys.modules["kaonbraid.states"].TwoKaonState
    with Tracer():
        unwrapped = [f"{m.__name__}.{k} is {defined[id(v)]}" for m in modules
                     for k, v in vars(m).items() if id(v) in defined]
        unwrapped += [f"cli.COMMANDS[{k!r}]" for k, v in kaonbraid.cli.COMMANDS.items()
                      if not hasattr(v, "__wrapped__")]
        assert hasattr(two_kaon_state.__init__, "__wrapped__")
    assert unwrapped == []
    assert not hasattr(two_kaon_state.__init__, "__wrapped__")
    assert not hasattr(sys.modules["kaonbraid.braid"].tensor_product, "__wrapped__")


@pytest.mark.parametrize("span", sorted(MECHANISM))
def test_span_reached_on_its_mechanism_workload(traced, span):
    if not _defined(span):
        pytest.skip(f"{span} no longer exists in the library")
    assert totals(traced[MECHANISM[span]]["spans"], span)[0] > 0


@pytest.mark.parametrize("span,workload", CONTROLS)
def test_no_calls_on_control_workload(traced, span, workload):
    assert totals(traced[workload]["spans"], span)[0] == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_round_is_correct_and_reports_every_metric(traced, workload):
    rec = traced[workload]
    assert rec["incorrect"] == 0, rec["errors"]
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    assert set(names) <= set(run.per_layer(rec, names))
    times = rec["seconds"] * 6  # two workers give enough samples for a tail
    rec = dict(rec, seconds=times, reference_seconds=[0.01] * (len(times) + 1))
    rec = run.merge([rec, rec])
    assert rec["incorrect"] == 0, rec["errors"]
    e2e = run.end_to_end(rec, [(0.5, 0.01, 0.01)], {"argv": 60.0})
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}


def _corrupt(inv, stdout, report):
    """Shift one value of the output by 1e-6 (or mark a check failed)."""
    if inv.command == "verify":
        return stdout.replace("PASS ", "FAIL ", 1), report
    if inv.params["format"] == "json":
        doc = json.loads(stdout)
        doc["rows"][1][1] += 1e-6
        return json.dumps(doc), report
    header, first, second, rest = stdout.split("\n", 3)
    values = second.split(",")
    values[1] = repr(float(values[1]) + 1e-6)
    return "\n".join([header, first, ",".join(values), rest]), report


@pytest.mark.parametrize("workload,index", [
    ("evolve", 0), ("evolve", 1), ("sweep", 0), ("sweep", 1), ("oscillate", 0), ("verify", 1),
])
def test_oracle_accepts_output_and_rejects_corruption(tmp_path, monkeypatch, workload, index):
    monkeypatch.chdir(tmp_path)
    seq = workloads.invocations(workload, seed=3)
    inv = [next(seq) for _ in range(index + 1)][-1]
    _, code, raised, stdout, report = worker.invoke(kaonbraid.cli.main, inv)
    assert (code, raised) == (0, None)
    assert oracles.check(inv, stdout, report) > 0
    with pytest.raises(oracles.OracleError):
        oracles.check(inv, *_corrupt(inv, stdout, report))


def test_oscillate_oracle_rejects_swapped_probabilities(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    inv = next(workloads.invocations("oscillate", seed=3))
    stdout = worker.invoke(kaonbraid.cli.main, inv).stdout
    header, body = stdout.split("\n", 1)
    assert header == "t,p_k_to_k,p_k_to_kbar,asymmetry"
    rows = [line.split(",") for line in body.splitlines()]
    swapped = header + "\n" + "".join(f"{t},{flip},{same},{asym}\n" for t, same, flip, asym in rows)
    with pytest.raises(oracles.OracleError, match="p_k_to_k"):
        oracles.check(inv, swapped, None)


def test_nonzero_exit_is_a_failure_not_a_wrong_output():
    inv = next(workloads.invocations("oscillate", seed=3))
    rec = worker.Record()
    rec.add(inv, worker.Outcome(0.1, 2, None, "", None))
    assert (rec.failed, rec.incorrect) == (1, 0)


def test_workloads_are_seeded():
    def first(name, seed):
        seq = workloads.invocations(name, seed)
        return [next(seq).argv for _ in range(3)]

    for name in workloads.WORKLOADS:
        assert first(name, 7) == first(name, 7)
        assert first(name, 7) != first(name, 8)
