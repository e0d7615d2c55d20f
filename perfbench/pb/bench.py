"""One benchmark run: set up, measure, verify, report."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import subprocess
import time
from functools import partial
from pathlib import Path
from typing import Dict, List, Tuple

from pb import inputs, stats
from pb.calibration import (
    PARALLEL_REFERENCE_S,
    REFERENCE_S,
    burst,
    factor,
    parallel_burst,
)
from pb.metrics import END_TO_END, PER_LAYER, SPAN_METRICS
from pb.spans import Tracer
from pb.workloads import (
    ChaosWorkload,
    CheckWorkload,
    Key,
    Pass,
    Tally,
    WatchWorkload,
    orphan_guard,
    run_cli,
)

ROOT = Path(__file__).resolve().parents[2]
WORK = ROOT / ".perfbench_work"
WORKLOADS = tuple(inputs.GENERATORS)
#: set-up runs per benchmark run (the median is reported)
SETUP_REPS = 3
#: fewest measured passes per run, whatever ``--seconds`` says
MIN_PASSES = 3


def tree_digest(directory: Path) -> str:
    """One digest over every file's relative name and bytes."""
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(directory)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def set_up(workload: str, seed: int, directory: Path, tally: Tally):
    """Generate the workload's inputs into ``directory``.  chaos-grid
    has no input files; its set-up is a small warm-up grid that starts
    the worker pool and imports every layer the cells use."""
    if directory.exists():
        shutil.rmtree(directory)
    items = inputs.GENERATORS[workload](seed, directory)
    if workload == "chaos-grid":
        code, _, _ = run_cli(
            ["chaos", "--topology", "stack", "--depth", "3",
             "--protocols", ",".join(inputs.CHAOS_PROTOCOLS),
             "--runs", "2", "--transactions", "4",
             "--workers", str(ChaosWorkload.WORKERS)]
        )
        tally.check(code == 0, f"chaos warm-up: exit {code}")
    return items


def make_workload(workload: str, items, work: Path, tally: Tally, seed: int):
    if workload == "check-stack":
        return CheckWorkload(items, work, tally, lint=False)
    if workload == "check-ensemble":
        return CheckWorkload(items, work, tally, lint=True)
    if workload == "watch-stack":
        return WatchWorkload(items, work, tally)
    return ChaosWorkload(items, work, tally, seed)


def untraced(runner, seconds: float, minimum: int) -> List[Pass]:
    passes: List[Pass] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < minimum or time.perf_counter() < deadline:
        passes.append(runner.run_pass())
    return passes


def unit_medians(passes: List[Pass], scaled: bool = True) -> Dict[Key, float]:
    """Every timed unit's median over the passes, scaled to the
    reference host speed unless ``scaled`` is false.  Summed, they are
    the pass time."""
    return {
        key: stats.median(
            [p.times[key] * (p.scales[key] if scaled else 1.0) for p in passes]
        )
        for key in passes[0].times
    }


def roots_points(medians: Dict[Key, float]) -> Dict[str, List[Tuple[int, float]]]:
    """Mean unit time per (group, roots), for the roots exponent."""
    points: Dict[str, Dict[int, List[float]]] = {}
    for (group, roots, _), seconds in medians.items():
        if group:
            points.setdefault(group, {}).setdefault(roots, []).append(seconds)
    return {
        group: sorted((roots, sum(v) / len(v)) for roots, v in by_roots.items())
        for group, by_roots in points.items()
    }


def end_to_end(passes: List[Pass], setup: List[float]) -> Tuple[Dict[str, float], float]:
    medians = unit_medians(passes)
    wall = sum(medians.values())
    latencies = [s * 1000 for p in passes for s in p.latencies]
    tail = stats.tail_percentile(len(passes[0].latencies) * MIN_PASSES)
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "setup_s": stats.median(setup),
        "peak_rss_mb": usage / 1024,
        "wall_s": wall,
        "items_per_s": passes[0].items / wall,
        "item_p50_ms": stats.percentile(latencies, 50),
        # too few samples for any percentile (one chaos command per
        # grid size and pass): the slowest unit's median instead
        "item_tail_ms": stats.percentile(latencies, tail)
        if tail < 100
        else max(medians.values()) * 1000,
        "stdout_mb": stats.median([p.stdout_bytes for p in passes]) / 1e6,
        "roots_exponent": stats.loglog_slope(roots_points(medians)),
    }, tail


def traced(runner, seconds: float, tracers: List[Tracer]) -> Dict[str, List[float]]:
    """Half the time untraced (the overhead baseline), half traced; per
    pass, every per-layer metric.  A traced pass returns its spanned
    time, the part of it an untraced pass also does, and its layers."""
    baseline = untraced(runner, seconds / 2, 2)
    base_wall = sum(unit_medians(baseline, scaled=False).values())
    samples: Dict[str, List[float]] = {m.name: [] for m in PER_LAYER}
    deadline = time.perf_counter() + seconds / 2
    comparable = []
    while len(comparable) < 2 or time.perf_counter() < deadline:
        tracer = Tracer()
        wall, untraced_part, layers = runner.traced_pass(tracer)
        tracers.append(tracer)
        comparable.append(untraced_part)
        own = tracer.self_times()
        for span, metric in SPAN_METRICS.items():
            if span in own:
                layers[metric] = own[span]
        if "core.reduction.s" not in layers:
            layers["core.reduction.s"] = layers.get(
                "core.reduction.level0_s", 0.0
            ) + layers.get("core.reduction.upper_s", 0.0)
        layers["trace.attributed_frac"] = sum(own.values()) / wall
        for metric in samples:
            samples[metric].append(float(layers.get(metric, 0.0)))
    samples["trace.overhead_frac"] = [stats.median(comparable) / base_wall - 1]
    return samples


def commit_id() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit_id(),
        "source_sha256": tree_digest(ROOT / "src" / "repro"),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(workload: str, seed: int, seconds: int, trace: int) -> Tuple[Dict, Dict]:
    """Returns the result line and the full, self-describing record."""
    tally = Tally()
    work = WORK / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_times = []
    setup_raw = []
    digests = set()
    if workload == "chaos-grid":
        reference = PARALLEL_REFERENCE_S
        probe = partial(parallel_burst, ChaosWorkload.WORKERS)
    else:
        reference, probe = REFERENCE_S, burst
    before = probe()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        items = set_up(workload, seed, work / "inputs", tally)
        setup_raw.append(time.perf_counter() - start)
        if workload == "chaos-grid":
            orphan_guard(tally)
        after = probe()
        setup_times.append(setup_raw[-1] * factor(before, after, reference=reference))
        before = after
        digests.add(tree_digest(work / "inputs") + inputs.manifest(items))
    tally.check(len(digests) == 1, "the same seed generated different inputs")
    runner = make_workload(workload, items, work, tally, seed)

    record = provenance(workload, seed, seconds, trace)
    record["setup_reps"] = SETUP_REPS
    tracers: List[Tracer] = []
    if trace:
        samples = traced(runner, seconds, tracers)
        metrics = {m.name: (stats.median(samples[m.name]), m.unit) for m in PER_LAYER}
        record["repetitions"] = len(tracers)
    else:
        passes = untraced(runner, seconds, MIN_PASSES)
        values, tail = end_to_end(passes, setup_times)
        metrics = {m.name: (values[m.name], m.unit) for m in END_TO_END}
        record["repetitions"] = len(passes)
        record["tail_percentile"] = tail
        record["raw_wall_s"] = sum(unit_medians(passes, scaled=False).values())
        record["raw_setup_s"] = stats.median(setup_raw)
        record["calibration_reference_s"] = REFERENCE_S
        samples = {
            "pass_s": [sum(p.times.values()) for p in passes],
            "host_scale": [s for p in passes for s in p.scales.values()],
            "stdout_mb": [p.stdout_bytes / 1e6 for p in passes],
            "roots_exponent": [
                stats.loglog_slope(roots_points(p.times)) for p in passes
            ],
            "setup_s": setup_times,
        }
    record["spread"] = {
        name: dict(zip(("q1", "median", "q3"), stats.quartiles(values)),
                   iqr_share=stats.spread(values), n=len(values))
        for name, values in samples.items()
    }
    record["attempted"] = tally.attempted
    record["failed"] = tally.failed
    record["failed_frac"] = tally.failed / max(1, tally.attempted)
    record["failures"] = tally.failures
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record["metrics"] = result["metrics"]
    (WORK / "traces").mkdir(exist_ok=True)
    for index, tracer in enumerate(tracers):
        tracer.write(str(WORK / "traces" / f"{work.name}-pass{index}.jsonl"))
    shutil.rmtree(work, ignore_errors=True)
    return result, record
