"""Smoke test for the benchmark harness: every workload once at a tiny size.

    python3 -m pytest bench/test_smoke.py

It lives outside the repository's `testpaths`, so the main suite does not
collect it.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, cli  # noqa: E402

BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def run_bench(workload: str, trace: int, cwd: Path = BENCH.parent,
              script: Path = BENCH / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_metric_is_reported_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    failed_ratio = [line.split() for line in lines if line.split()[:1] == ["failed_ratio"]]
    assert failed_ratio and float(failed_ratio[0][1]) == 0.0


@pytest.mark.parametrize("workload", ["prototype-grid", "ingest-wide"])
def test_gate_fails_when_a_pinned_outcome_is_perturbed(workload, tmp_path):
    spec = workloads.WORKLOADS[workload]
    instance = workloads.instance_of(SEED)
    pinned = workloads.load_pins()[workload]["tiny"][str(instance)]
    spec.setup(cli, tmp_path, instance, tiny=True)

    exact = Runner(spec, tmp_path, instance, pinned)
    exact.run_pass(pooled=False)
    exact.run_pass(pooled=True)
    assert (exact.failed, exact.problems) == (0, [])

    perturbed = copy.deepcopy(pinned)
    if workload == "prototype-grid":
        perturbed["slcv"]["correct"][0][0] += 1
    else:
        perturbed["slcv"]["sha256"] = "0" * 64
    gated = Runner(spec, tmp_path, instance, perturbed)
    gated.run_pass(pooled=False)
    assert gated.failed == 1 and "slcv" in gated.problems[0]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = run_bench("finetune-grid", 0, cwd=tmp_path,
                     script=tmp_path / BENCH.name / "run.py")
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_self_time_subtracts_the_union_of_overlapping_children():
    # A parent [0, 10] with two overlapping pooled children [1, 5] and [3, 8].
    span_list = [(1, "pipeline.experiment", 0.0, 10.0, None, None, 1, "p", None),
                 (2, "pipeline.trial", 1.0, 5.0, 1, 1, 1, "p", 4.0),
                 (3, "pipeline.trial", 3.0, 8.0, 1, 2, 1, "p", 5.0)]
    own = spans.self_times(span_list)
    assert own == pytest.approx({1: 3.0, 2: 4.0, 3: 5.0})
