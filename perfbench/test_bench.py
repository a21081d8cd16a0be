"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy is used)
import stats  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

cli = run.import_svoc()
TINY = 16  # grid sizes divided by this keep a round well under a second


def _runner(name: str, tmp_path: Path, seed: int = 1, scale: int = TINY) -> run.Runner:
    inputs = tmp_path / "inputs"
    inputs.mkdir(parents=True)
    return run.Runner(workloads.build(name, seed, inputs, scale), cli, tmp_path)


def _bindings():
    """Every function binding the tracer may touch, by (holder, attribute)."""
    holders = [m for n, m in sys.modules.items() if n == "svoc" or n.startswith("svoc.")]
    out = {(h.__name__, k): v for h in holders for k, v in vars(h).items() if callable(v)}
    out[("numpy.linalg", "eigh")] = np.linalg.eigh
    return out


def test_tracer_restores_functions_and_keeps_outputs(tmp_path):
    before = _bindings()
    runner = _runner("second-order", tmp_path)
    runner.round()
    t = tracer.Tracer(memory=True)
    with t.installed():
        assert cli.run_command is not before[("svoc.cli", "run_command")]
        runner.round()
    assert not runner.failures  # traced outputs byte-identical to the untraced round
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in t.spans}
    assert {"cli.run_command", "optimality.eigh", "optimality.second_order_test"} <= names
    assert all(s.peak_bytes > 0 for s in t.spans if s.name == "optimality.second_order_test")


def test_self_time_arithmetic_on_nested_spans():
    S = tracer.Span
    spans = [
        S(1, 0, "state.solve_state", 2.0, 3.0),
        S(2, 0, "adjoint.solve_adjoint", 1.0, 4.0, overhead=0.1),
        S(3, None, "reports.dump_json", 11.0, 11.5, overhead=0.05, bytes_written=7),
        S(0, None, "cli.run_command", 0.0, 10.0, overhead=0.5),
    ]
    spans[0].parent = 2  # grandchild of the command
    spans[1].parent = 0
    selfs = tracer.self_times(spans)
    assert selfs == pytest.approx({0: 10.0 - 0.5 - 3.0, 1: 1.0, 2: 3.0 - 0.1 - 1.0,
                                   3: 0.5 - 0.05})
    profile = tracer.round_profile(spans, wall=12.0)
    assert profile["unattributed_s"] == pytest.approx(12.0 - 10.5)
    assert profile["bookkeeping_s"] == pytest.approx(0.65)
    assert profile["layers"]["adjoint"] == pytest.approx(1.9)
    assert profile["bytes_written"] == 7
    total = sum(profile["layers"].values()) + profile["bookkeeping_s"] + profile["unattributed_s"]
    assert total == pytest.approx(12.0)


def test_repeat_calls_compare_array_bytes():
    a = np.arange(5.0)
    b = a.copy()
    b[4] += 1e-9
    key = tracer.call_key((a, 3), {})
    assert key == tracer.call_key((a.copy(), 3), {})
    assert key != tracer.call_key((b, 3), {})
    assert key != tracer.call_key((a, 4), {})


def test_tail_percentile_on_known_samples():
    assert stats.tail(range(20, 0, -1)) == (10.0, 50.0, 20)
    value, pct, n = stats.tail(range(1, 12))
    assert (value, n) == (1.0, 11) and pct == pytest.approx(100 / 11)
    assert stats.tail([3.0, 1.0, 2.0]) == (1.0, 0.0, 3)
    assert stats.tail(range(1, 101)) == (90.0, 90.0, 100)


def test_same_seed_same_inputs(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / name / d for d in ("a", "b", "c")]
        for d in dirs:
            d.mkdir(parents=True)
        first, second, other = (workloads.build(name, seed, d)
                                for seed, d in zip((7, 7, 8), dirs))
        assert first.inputs == second.inputs != other.inputs
        assert [c.argv for c in first.commands] == \
               [tuple(str(x).replace("/b/", "/a/") for x in c.argv) for c in second.commands]
        assert [p.read_bytes() for p in sorted(dirs[0].iterdir())] == \
               [p.read_bytes() for p in sorted(dirs[1].iterdir())]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_round_passes_its_checks(name, tmp_path):
    runner = _runner(name, tmp_path, scale=8)
    for _ in range(2):
        runner.round()
    assert runner.failures == []


def test_checks_catch_a_wrong_verdict(tmp_path):
    runner = _runner("second-order", tmp_path)
    # each command checked for the opposite verdict
    swapped = [workloads.Command(c.label, c.argv,
                                 workloads._check_second_order(c.label.endswith("holds")))
               for c in runner.workload.commands]
    runner.workload = workloads.Workload("second-order", tuple(swapped), {}, TINY)
    runner.round()
    assert len(runner.failures) == 1 and "verdict" in runner.failures[0]


def test_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e, _ = run.end_to_end(_runner("verify-q", tmp_path / "e2e"), 0.0, float("inf"),
                            tmp_path / "e2e")
    layer, _, _ = run.per_layer(_runner("verify-q", tmp_path / "layer"), 1, 0.0,
                                float("inf"), tmp_path / "layer")
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
           {k: unit for k, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
           {k: unit for k, (_, unit) in layer.items()}
