"""ST1 — streaming checker amortized per-event cost vs re-check-from-scratch.

The streaming claim: :class:`~repro.stream.IncrementalChecker` answers
"what is the verdict now?" after *every* event at O(1) amortized cost —
non-commit events are dictionary work, commits pay one delta-closure
reduction — while the naive online baseline must reassemble the
committed prefix and re-run the batch ``reduce_to_roots`` from scratch
to answer the same question.

Both produce the same verdict at the same event.  The benchmark
measures events/sec and verdict latency for the incremental pass, and
the baseline's per-event cost by timing a from-scratch re-check on a
deterministic sample of events (every ``SAMPLE_EVERY``-th event plus
every commit) and extrapolating over the events it would have to
answer for — re-checking at literally every event would make the
benchmark minutes long without changing the comparison.  The hard
assertion: at depth >= 3 the incremental pass beats the extrapolated
baseline outright.
"""

import time

from repro.analysis.tables import banner, format_table
from repro.core.reduction import reduce_to_roots
from repro.io.eventlog import events_from_recorded, interleave_by_commit
from repro.stream import IncrementalChecker, StreamAssembler
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

ROOTS = 10
SEED = 7
SAMPLE_EVERY = 32


def _workload(depth):
    recorded = generate(
        stack_topology(depth),
        WorkloadConfig(seed=SEED, roots=ROOTS, conflict_probability=0.2),
    )
    return recorded, interleave_by_commit(events_from_recorded(recorded))


def _incremental_pass(events):
    """One streamed pass; returns (verdict, seconds)."""
    checker = IncrementalChecker()
    start = time.perf_counter()
    verdict = checker.ingest_all(events)
    return verdict, time.perf_counter() - start


def _baseline_pass(events):
    """The naive online checker, sampled.

    Returns ``(rejected_at, extrapolated_seconds, samples)``: the
    1-based event index where a from-scratch re-check first rejects,
    and the estimated cost of re-checking after every event it answers
    for (events before the first commit are free — there is nothing to
    check; after the first rejection the verdict is final by
    monotonicity, so even the naive checker stops re-checking).
    """
    assembler = StreamAssembler()
    rejected_at = None
    first_commit_at = None
    costs = []
    answered = 0
    for n, event in enumerate(events, start=1):
        delta = assembler.apply(event)
        if rejected_at is not None:
            continue
        if first_commit_at is None and delta is None:
            continue
        answered += 1
        if delta is None and n % SAMPLE_EVERY != 0:
            continue
        start = time.perf_counter()
        recorded = assembler.build()
        assert recorded is not None
        failure = reduce_to_roots(recorded.system).failure
        costs.append(time.perf_counter() - start)
        if delta is not None:
            if first_commit_at is None:
                first_commit_at = n
            if failure is not None:
                rejected_at = n
    extrapolated = sum(costs) / len(costs) * answered
    return rejected_at, extrapolated, len(costs)


def test_bench_st1_streaming(benchmark, emit):
    depths = (2, 3, 4)
    loads = {depth: _workload(depth) for depth in depths}

    benchmark.pedantic(
        lambda: _incremental_pass(loads[3][1]), rounds=3, iterations=1
    )

    rows = []
    data = {
        "roots": ROOTS,
        "seed": SEED,
        "sample_every": SAMPLE_EVERY,
        "depths": {},
    }
    for depth in depths:
        recorded, events = loads[depth]
        inc_runs = [_incremental_pass(events) for _ in range(3)]
        verdict = inc_runs[0][0]
        inc_s = min(s for _, s in inc_runs)
        # one baseline pass: the extrapolation already averages over
        # many per-event samples, and a second pass would double the
        # slowest part of the benchmark for no extra signal
        base_rejected_at, base_s, samples = _baseline_pass(events)

        # the online passes agree with the batch verdict...
        batch = reduce_to_roots(recorded.system)
        assert verdict.rejected == (batch.failure is not None)
        assert (base_rejected_at is not None) == verdict.rejected
        # ...and flip at the same event
        if verdict.rejected:
            assert base_rejected_at == verdict.rejected_at_event

        speedup = base_s / inc_s
        if depth >= 3:
            # the amortization claim the ISSUE pins: maintained state
            # beats per-event from-scratch re-checking
            assert inc_s < base_s, (
                f"depth {depth}: incremental {inc_s:.4f}s not faster "
                f"than from-scratch {base_s:.4f}s"
            )
        rows.append(
            [
                f"stack depth {depth}",
                len(events),
                f"{len(events) / inc_s:.0f}",
                f"{1e6 * inc_s / len(events):.1f}",
                f"{1e6 * base_s / len(events):.1f}",
                f"{speedup:.1f}x",
                verdict.rejected_at_event or "-",
            ]
        )
        data["depths"][str(depth)] = {
            "events": len(events),
            "incremental_s": inc_s,
            "baseline_extrapolated_s": base_s,
            "baseline_samples": samples,
            "events_per_s_incremental": len(events) / inc_s,
            "per_event_us_incremental": 1e6 * inc_s / len(events),
            "per_event_us_baseline": 1e6 * base_s / len(events),
            "speedup": speedup,
            "verdict": verdict.status,
            "rejected_at_event": verdict.rejected_at_event,
        }

    table = format_table(
        [
            "configuration",
            "events",
            "ev/s incremental",
            "us/ev incremental",
            "us/ev from-scratch",
            "speedup",
            "rejected at",
        ],
        rows,
    )
    emit(
        "ST1",
        banner("ST1: streaming checker vs re-check-from-scratch")
        + "\n"
        + table
        + "\nsame verdict at the same event; from-scratch cost extrapolated"
        + f"\nfrom {SAMPLE_EVERY}-event samples; amortized win at depth >= 3.",
        data=data,
    )
