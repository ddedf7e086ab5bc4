"""Fast self-test of the benchmark harness on small grids at N = 128.

Checks the shape of the printed result against BENCHMARK.json and that a
wrong datum fails the correctness gate.  It does not check speed.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import harness  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def small(name):
    # the manufactured field meets FAR_TOL from about N = 128 on
    return replace(harness.WORKLOADS[name], nodes=128, grid=4, n_random=4,
                   ring_size=5, cli_nodes=16, setups=2)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
def test_result_matches_the_declared_metrics(name, trace, tmp_path):
    result, record = harness.run(small(name), 3, 0.0, bool(trace), tmp_path)
    json.dumps(record)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1 + trace
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert result["metrics"]["trace.span_coverage"]["value"] >= 0.9
    else:
        assert result["metrics"]["far_digits"]["value"] >= 8.0
    assert not list(tmp_path.iterdir())  # the CLI work directory is removed


def test_inputs_repeat_for_a_seed():
    a, b = harness.make_inputs(11), harness.make_inputs(11)
    for key in ("sources", "strength", "cstar", "drift", "green_load"):
        np.testing.assert_array_equal(getattr(a, key), getattr(b, key))
    assert a.rng.uniform() == b.rng.uniform()
    assert not np.array_equal(harness.make_inputs(12).sources, a.sources)


def _corrupt_robin_datum(prob):
    prob.data.g.values[0] += 1e-3


def _corrupt_drift(prob):
    prob.data.B = prob.data.B + 1e-3


def _corrupt_cli_datum(prob):
    prob.linear_config["robin"]["g"][0]["cos"][0] += 1e-3


@pytest.mark.parametrize("name, corrupt", [
    ("linear-n512", _corrupt_robin_datum),
    ("newton-n512", _corrupt_drift),
    ("fields-n128", _corrupt_cli_datum),
])
def test_wrong_datum_fails_the_operation(name, corrupt, tmp_path, monkeypatch):
    build = harness.build_problem

    def corrupted(*args):
        prob = build(*args)
        corrupt(prob)
        return prob

    monkeypatch.setattr(harness, "build_problem", corrupted)
    result, _ = harness.run(small(name), 3, 0.0, False, tmp_path)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
