"""Self-test of the benchmark: the gates catch corruption, every workload runs.

    python3 -m pytest -q benchmark/test_benchmark.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from workloads import WORKLOADS, PointsN12, SurfaceLower  # noqa: E402

TINY = {
    "surface-lower": {"grid": 6, "sample_rows": 8},
    "surface-envelope": {"grid": 5, "sample_rows": 8, "members": 4},
    "verify-theorems": {"instances_per_family": 1, "points_per_instance": 5},
    "points-n12": {"batch": 2, "full_scan_points": 1},
}


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_metrics_and_workloads_run_emits():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def _ran(workload, tmp_path):
    workload.prepare()
    workload.op(0)
    workload.after_op(0)
    return workload


def test_corrupted_surface_value_raises_fail_share(tmp_path):
    clean = _ran(SurfaceLower(7, tmp_path, TINY["surface-lower"]), tmp_path).gate(1)
    assert clean.fail_share == 0.0 and not clean.failed_ops

    corrupt = _ran(SurfaceLower(7, tmp_path, TINY["surface-lower"]), tmp_path)
    path = corrupt.out_path("lower")
    lines = path.read_text().splitlines()
    *coords, value = lines[100].split(",")
    lines[100] = ",".join(coords + [repr(float(value) + 0.25)])
    path.write_text("\n".join(lines) + "\n")
    corrupt.hashes["lower"] = [corrupt.hashes["lower"][0]]
    checks = corrupt.gate(1)
    assert checks.failed >= 1
    assert checks.fail_share > clean.fail_share
    assert checks.failed_ops == {0}


def test_corrupted_point_answer_raises_fail_share(tmp_path):
    workload = _ran(PointsN12(7, tmp_path, TINY["points-n12"]), tmp_path)
    assert workload.gate(1).fail_share == 0.0
    points, answers = workload.batches[0]
    answers[1][0] = min(points[1]) + 0.01  # above the Fréchet upper bound
    checks = workload.gate(1)
    assert checks.failed == 1 and checks.fail_share > 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_runs_end_to_end(name, trace, tmp_path):
    record = run.run(WORKLOADS[name], 3, 0.01, trace, TINY[name], tmp_path)
    result = record["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["genfn.calls"]["value"] > 0
        assert (tmp_path / f"spans-{name}.npz").is_file()
        if name.startswith("surface"):
            grid = TINY[name]["grid"]
            assert result["metrics"]["cli.rows"]["value"] == grid ** 3
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_exits_nonzero_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "benchmark/run.py", "--workload", "points-n12",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_same_seed_gives_same_inputs(tmp_path):
    a, b = (WORKLOADS["points-n12"](11, tmp_path) for _ in range(2))
    assert a.setup_specs() == b.setup_specs()
    assert np.array_equal(a._points(3), b._points(3))
    assert a.setup_specs() != WORKLOADS["points-n12"](12, tmp_path).setup_specs()
