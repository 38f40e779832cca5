"""Tests of the benchmark's own code: self-time arithmetic and smoke runs.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402


def span(id, name, start, end, parent=None, nested=False):
    return tracing.Span(id, name, start, end, parent, "run", nested)


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        span(0, "a", 0.0, 10.0),
        span(1, "b", 1.0, 3.0, parent=0),
        span(2, "c", 2.0, 5.0, parent=0),  # overlaps b: together they cover [1, 5]
        span(3, "d", 6.0, 7.0, parent=0),
        span(4, "e", 6.5, 6.8, parent=3),  # a grandchild is not a's child
        span(5, "f", 9.5, 11.0, parent=0),  # clipped at a's end
    ]
    own = tracing.self_times(spans)
    assert own[0] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own[1] == pytest.approx(2.0)
    assert own[3] == pytest.approx(0.7)
    assert own[4] == pytest.approx(0.3)


def test_layer_metrics_count_recursion_once_and_form_ratios():
    spans = [
        span(0, "special.complex_gamma", 0.0, 4.0),
        span(1, "special.complex_gamma", 1.0, 2.0, parent=0, nested=True),
    ]
    counts = {"solver.k_converged": 57, "solver.k_requested": 60}
    m = tracing.layer_metrics(spans, counts)
    assert m["special.complex_gamma.s"] == pytest.approx(4.0)
    assert m["special.complex_gamma.self_s"] == pytest.approx(4.0)
    assert m["special.complex_gamma.calls"] == 2
    assert m["solver.converged_ratio"] == pytest.approx(0.95)


def test_wrapper_cost_is_positive_and_small():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import laakso
    import laakso.cli  # noqa: F401  (the Tracer wraps cli.main)

    cost = tracing.wrapper_cost(laakso)
    assert 0.0 < cost < 1e-3


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["mesh", "analytic", "cli"])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == declared(kind)
    for metric in result["metrics"].values():
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "bench/run.py", "--workload", "mesh", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
