"""Self-tests of the benchmark.

Run from the repository root (takes about a minute)::

    python3 -m pytest perfbench/selftest.py -q

* A tiny-scale run of every workload, untraced and traced, must print
  every metric ``BENCHMARK.json`` names, with its unit.
* The correctness gate must trip on a deliberately perturbed answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import client  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from repro import Aggregate, Guarantee, PolyFitIndex  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def _run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "2", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float) and np.isfinite(emitted["value"])


def test_check_answers_trips_on_a_perturbed_answer():
    keys = np.arange(1000.0)
    lows, highs = np.array([10.0, 100.0]), np.array([500.0, 900.0])
    exact = oracle.PrefixOracle(keys)(lows, highs)
    bounds = np.array([5.0, 5.0])
    none = np.zeros(2, dtype=bool)
    failures, _ = oracle.check_answers(exact + 4.0, bounds, none, exact, np.zeros(2))
    assert failures == 0
    failures, _ = oracle.check_answers(exact + [0.0, 6.0], bounds, none, exact, np.zeros(2))
    assert failures == 1
    # An exact-fallback answer must equal the oracle, whatever its bound.
    failures, _ = oracle.check_answers(exact + [1.0, 0.0], bounds, ~none, exact, np.zeros(2))
    assert failures == 1


def test_sparse_max_oracle_matches_brute_force():
    rng = np.random.default_rng(3)
    keys = np.cumsum(rng.uniform(0.5, 1.5, size=500))
    measures = rng.normal(size=500)
    lows = rng.uniform(keys[0], keys[-1], size=200)
    highs = lows + rng.uniform(0, 100, size=200)
    got = oracle.SparseMaxOracle(keys, measures)(lows, highs)
    for low, high, value in zip(lows, highs, got):
        inside = measures[(keys >= low) & (keys <= high)]
        assert (np.isnan(value) and inside.size == 0) or value == inside.max()


def test_point_query_gate_trips_on_a_perturbed_served_answer():
    with tempfile.TemporaryDirectory() as out_dir:
        workload = workloads.PointQuery(7, "tiny", 1.0, out_dir)
    index = PolyFitIndex.build(workload.arrays["keys"], None, Aggregate.COUNT,
                               guarantee=Guarantee.absolute(workloads.COUNT_EPS))
    samples = []
    for item in range(64):
        answer = index.query_batch(
            workload.lows[item:item + 1], workload.highs[item:item + 1],
            workloads._guarantee(bool(workload.relative[item]), workloads.COUNT_EPS))
        body = {"value": float(answer.values[0]), "guaranteed": bool(answer.guaranteed[0]),
                "exact_fallback": bool(answer.exact_fallback[0]),
                "error_bound": float(answer.error_bounds[0])}
        samples.append(client.Sample("query", item, 1, 0.0, 0.0, 0.001, 200, body))
    verdict = workloads.Verdict()
    workload.check(samples, verdict)
    assert verdict.failures == []
    samples[5].body = dict(samples[5].body, value=samples[5].body["value"] + 1.0)
    verdict = workloads.Verdict()
    workload.check(samples, verdict)
    assert any("differ from in-process" in failure for failure in verdict.failures)
    samples[9].body = dict(samples[9].body, value=samples[9].body["value"] + 1e4)
    verdict = workloads.Verdict()
    workload.check(samples, verdict)
    assert any("oracle" in failure for failure in verdict.failures)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
