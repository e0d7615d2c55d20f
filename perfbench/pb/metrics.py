"""Every metric the benchmark emits: name, unit, direction and, for
end-to-end metrics, the bound by which a change may worsen the median.
``BENCHMARK.json`` at the repository root mirrors these lists (the
benchmark's tests check that it does)."""

from __future__ import annotations

from typing import List, NamedTuple, Optional


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float] = None


#: measured with tracing off, on every workload
END_TO_END: List[Metric] = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.1),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("items_per_s", "1/s", "higher", 0.25),
    Metric("item_p50_ms", "ms", "lower", 0.25),
    Metric("item_tail_ms", "ms", "lower", 0.25),
    Metric("stdout_mb", "MB", "lower", 0.1),
    Metric("roots_exponent", "1", "lower", 0.25),
]

#: measured by the traced run; 0 where the layer does not run
PER_LAYER: List[Metric] = [
    Metric("cli.parse_s", "s", "lower"),
    Metric("io.parse_s", "s", "lower"),
    Metric("io.input_mb", "MB", "lower"),
    Metric("io.trace_mb", "MB", "lower"),
    Metric("io.eventlog_mb", "MB", "lower"),
    Metric("io.eventlog.order_frac", "1", "lower"),
    Metric("core.builder.from_spec_s", "s", "lower"),
    Metric("core.builder.build_s", "s", "lower"),
    Metric("core.builder.validate_s", "s", "lower"),
    Metric("core.builder.closed_pairs", "count", "lower"),
    Metric("core.reduction.s", "s", "lower"),
    Metric("core.reduction.level0_s", "s", "lower"),
    Metric("core.reduction.upper_s", "s", "lower"),
    Metric("core.reduction.closure_calls", "count", "lower"),
    Metric("core.reduction.closure_rows", "count", "lower"),
    Metric("criteria.decide_s", "s", "lower"),
    Metric("criteria.disagreements", "count", "lower"),
    Metric("render.narrative_s", "s", "lower"),
    Metric("lint.system_s", "s", "lower"),
    Metric("lint.systems_per_s", "1/s", "higher"),
    Metric("stream.tail.poll_s", "s", "lower"),
    Metric("stream.checker.decl_ingest_s", "s", "lower"),
    Metric("stream.checker.commit_ingest_s", "s", "lower"),
    Metric("stream.checker.commit_reduce_s", "s", "lower"),
    Metric("stream.checker.finalize_s", "s", "lower"),
    Metric("stream.checker.check_ratio", "1", "lower"),
    Metric("stream.snapshot.write_s", "s", "lower"),
    Metric("stream.snapshot.mb", "MB", "lower"),
    Metric("stream.snapshot.restore_s", "s", "lower"),
    Metric("stream.snapshot.replayed_events", "count", "lower"),
    Metric("stream.snapshot.resume_s", "s", "lower"),
    Metric("simulator.run_s", "s", "lower"),
    Metric("simulator.commit_ratio", "1", "higher"),
    Metric("analysis.batch.efficiency", "1", "higher"),
    Metric("analysis.batch.retries", "count", "lower"),
    Metric("trace.attributed_frac", "1", "higher"),
    Metric("trace.overhead_frac", "1", "lower"),
]

#: benchmark span name -> the per-layer metric its self time feeds
SPAN_METRICS = {
    "cli": "cli.parse_s",
    "io": "io.parse_s",
    "core.builder.from_spec": "core.builder.from_spec_s",
    "core.builder.build": "core.builder.build_s",
    "core.reduction": "core.reduction.s",
    "render": "render.narrative_s",
    "lint": "lint.system_s",
    "stream.tail": "stream.tail.poll_s",
    "stream.snapshot.write": "stream.snapshot.write_s",
}
