"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/test_perfbench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from pb import bench, inputs, stats  # noqa: E402
from pb.metrics import END_TO_END, PER_LAYER  # noqa: E402
from pb.spans import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT, timeout: int = 170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload", ["check-stack", "check-ensemble", "watch-stack"])
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    generate = inputs.GENERATORS[workload]
    first = generate(7, tmp_path / "a")
    second = generate(7, tmp_path / "b")
    assert bench.tree_digest(tmp_path / "a") == bench.tree_digest(tmp_path / "b")
    assert [item.roots for item in first] == [item.roots for item in second]
    generate(8, tmp_path / "c")
    assert bench.tree_digest(tmp_path / "a") != bench.tree_digest(tmp_path / "c")


def test_metric_lists_match_benchmark_json():
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(bench.WORKLOADS)
    assert BENCHMARK["paths"] == [HERE.name]


@pytest.mark.parametrize("workload,trace", [("check-ensemble", 0), ("chaos-grid", 1)])
def test_smoke_run_emits_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        assert result["metrics"]["trace.attributed_frac"]["value"] >= 0.9
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("check-stack", 0, cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(5) == 100.0
    assert stats.tail_percentile(40) == 75.0
    assert stats.tail_percentile(216 * 3) == 98.0
    assert stats.percentile([1, 2, 3, 4], 50) == 2


def test_loglog_slope_pools_groups():
    quadratic = {"a": [(2, 4.0), (4, 16.0)], "b": [(3, 90.0), (6, 360.0)]}
    assert stats.loglog_slope(quadratic) == pytest.approx(2.0)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert own["inner"] == pytest.approx(inner.end - inner.start)
    assert own["outer"] == pytest.approx(
        (outer.end - outer.start) - (inner.end - inner.start)
    )
