"""Self-test of the benchmark: every workload once at reduced size.

Run with: python3 -m pytest bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

END_TO_END = ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "operators.apply_operator.self_s",
    "operators.apply_operator.calls",
    "operators.convolutions",
    "orlicz.luxemburg_norm.self_s",
    "orlicz.luxemburg_norm.calls",
    "orlicz.young_evals",
    "orlicz.young_evals_per_norm",
    "grid.node_indices.self_s",
    "grid.node_indices.calls",
    "grid.distinct_regions",
    "grid.distinct_region_ratio",
    "grid.gathered_nodes",
    "grid.index_mb",
    "harness.self_s",
    "harness.bump_check.self_s",
    "harness.bump_check.calls",
    "spaces.amalgam_norm.self_s",
    "spaces.amalgam_norm.calls",
    "spaces.local_norm.self_s",
    "spaces.local_norm.calls",
    "spaces.bmo_norm.self_s",
    "spaces.bmo_norm.calls",
    "weights.characteristic.self_s",
    "weights.characteristic.calls",
    "weights.doubling_profile.self_s",
    "expressions.evaluate.self_s",
    "expressions.evaluate.calls",
    "cli.self_s",
    "trace.overhead_s",
)
# grids small enough that a child takes about as long as its imports
SMALL = {
    "hilbert_strong_1d": {"points": 1024, "center_stride": 64},
    "endpoint_1d_dense": {"points": 512, "center_stride": 16},
    "two_weight_2d": {"points": 32, "center_stride": 4},
}


def _small_config(workload):
    config = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
    config["experiment"].update(SMALL[workload])
    return config


def _check_units(metrics, names):
    assert set(metrics) == set(names)
    for name in names:
        assert isinstance(metrics[name]["unit"], str) and metrics[name]["unit"], name
        assert math.isfinite(metrics[name]["value"]), name


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_end_to_end_metrics_printed(workload, capsys):
    result = run.run_workload(workload, seed=0, seconds=0, trace=False, config=_small_config(workload))
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    _check_units(result["metrics"], END_TO_END)
    assert all(result["metrics"][name]["value"] > 0 for name in END_TO_END)
    assert any(line.startswith("error_rate 0/") for line in lines)
    assert any(line.startswith("env ") for line in lines)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat(workload, capsys):
    config = _small_config(workload)
    runs = [run.run_workload(workload, seed=0, seconds=0, trace=True, config=config) for _ in range(2)]
    capsys.readouterr()
    for result in runs:
        assert result["correct"]
        _check_units(result["metrics"], PER_LAYER)
    counts = [{k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["grid.node_indices.calls"] > 0
