"""ST1 — streaming checker cost: per event, and per commit across a roots sweep.

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

The roots sweep (depth-2 stacks at 10, 25 and 50 roots, the accepted
``perturbed`` layout, the converter's event layout that ``eventlog``
writes) times what ``watch`` does end to end against ``check`` on the
same execution, and splits out per-commit *assembly*: the live
assembler's delta (:meth:`~repro.stream.StreamAssembler.system`)
against a from-scratch replay of every activated declaration
(:func:`tests.stream.replay_oracle.replay_system`) on the same state
after every commit.  It fits the growth exponent of each in the number
of roots and gates the delta at 4x cheaper than the replay at every
sweep point.  Per-commit work is not O(changes): it still copies the
closed orders of every changed schedule (restricted to its committed
elements), and the checker re-runs reduction levels >= 1.
"""

import math
import time

from repro.analysis.tables import banner, format_table
from repro.core.reduction import reduce_to_roots
from repro.io import dumps, loads
from repro.io.eventlog import events_from_recorded, interleave_by_commit
from repro.stream import IncrementalChecker, StreamAssembler
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology
from tests.stream.replay_oracle import replay_system

ROOTS = 10
SEED = 7
SAMPLE_EVERY = 32
#: roots of the depth-2 stacks the sweep streams
SWEEP_ROOTS = (10, 25, 50)
#: the least factor by which delta assembly must beat the replay
MIN_ASSEMBLY_SPEEDUP = 4.0


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
        system = replay_system(assembler)
        assert system is not None
        failure = reduce_to_roots(system).failure
        costs.append(time.perf_counter() - start)
        if delta is not None:
            if first_commit_at is None:
                first_commit_at = n
            if failure is not None:
                rejected_at = n
    extrapolated = sum(costs) / len(costs) * answered
    return rejected_at, extrapolated, len(costs)


def _fit_exponent(xs, ys):
    """Least-squares slope of log(y) against log(x)."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum(
        (a - mx) ** 2 for a in lx
    )


def _sweep_workload(roots):
    recorded = generate(
        stack_topology(2),
        WorkloadConfig(seed=SEED, roots=roots, layout="perturbed"),
    )
    return recorded, events_from_recorded(recorded)


def _assembly_pass(events):
    """Per-commit assembly, both ways, on the same assembler state:
    returns (commits, delta seconds, replay seconds).  The replay side
    is what the checker's recheck paid per commit before delta
    assembly: the replayed system plus the arrival sequences.  The
    delta side is :meth:`~repro.stream.StreamAssembler.system`; the
    per-event work ``apply`` does for it (filing each conflict/order
    declaration under a node, building each declared ``Transaction``)
    is counted in the per-event table and the ``watch`` column, not
    here."""
    assembler = StreamAssembler()
    commits = 0
    delta_s = replay_s = 0.0
    for event in events:
        if assembler.apply(event) is None:
            continue
        commits += 1
        start = time.perf_counter()
        assembler.system()
        delta_s += time.perf_counter() - start
        start = time.perf_counter()
        replay_system(assembler)
        assembler.executions()
        replay_s += time.perf_counter() - start
    return commits, delta_s, replay_s


def _watch_pass(events):
    """A ``watch`` of the whole log: every event ingested, then the
    batch-certified finalize; returns (verdict, seconds)."""
    start = time.perf_counter()
    checker = IncrementalChecker()
    checker.ingest_all(events)
    result = checker.finalize()
    return result.verdict, time.perf_counter() - start


def _check_pass(text):
    """A ``check`` of the same execution: load, build, reduce."""
    start = time.perf_counter()
    result = reduce_to_roots(loads(text).system)
    return result, time.perf_counter() - start


def _roots_sweep():
    rows = []
    points = {}
    for roots in SWEEP_ROOTS:
        recorded, events = _sweep_workload(roots)
        text = dumps(recorded)
        # best of three, like the watch and check columns: a 10-commit
        # pass lasts ~10 ms and a single one swings by a fifth
        assemblies = [_assembly_pass(events) for _ in range(3)]
        commits = assemblies[0][0]
        delta_s = min(delta for _, delta, _ in assemblies)
        replay_s = min(replay for _, _, replay in assemblies)
        watches = [_watch_pass(events) for _ in range(2)]
        verdict = watches[0][0]
        watch_s = min(s for _, s in watches)
        checks = [_check_pass(text) for _ in range(3)]
        check_s = min(s for _, s in checks)
        assert not verdict.rejected and checks[0][0].succeeded
        speedup = replay_s / delta_s
        assert speedup >= MIN_ASSEMBLY_SPEEDUP, (
            f"{roots} roots: delta assembly {delta_s:.3f}s is only "
            f"{speedup:.1f}x cheaper than the replay's {replay_s:.3f}s"
        )
        points[str(roots)] = {
            "events": len(events),
            "commits": commits,
            "watch_s": watch_s,
            "check_s": check_s,
            "watch_check_ratio": watch_s / check_s,
            "assembly_delta_s": delta_s,
            "assembly_replay_s": replay_s,
            "assembly_speedup": speedup,
        }
        rows.append(
            [
                f"stack depth 2, {roots} roots",
                len(events),
                f"{watch_s:.3f}",
                f"{check_s:.3f}",
                f"{1e3 * delta_s / commits:.2f}",
                f"{1e3 * replay_s / commits:.2f}",
                f"{speedup:.1f}x",
            ]
        )
    xs = list(SWEEP_ROOTS)
    exponents = {
        key: _fit_exponent(xs, [points[str(r)][key] for r in xs])
        for key in ("watch_s", "check_s", "assembly_delta_s", "assembly_replay_s")
    }
    table = format_table(
        [
            "sweep point",
            "events",
            "watch s",
            "check s",
            "ms/commit delta",
            "ms/commit replay",
            "assembly",
        ],
        rows,
    )
    fitted = ", ".join(
        f"{key} ~ roots^{value:.2f}" for key, value in exponents.items()
    )
    return table, fitted, {"roots": points, "exponents": exponents}


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

    sweep_table, fitted, data["sweep"] = _roots_sweep()
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
        + f"\nfrom {SAMPLE_EVERY}-event samples; amortized win at depth >= 3."
        + "\n\nroots sweep: watch vs check, and per-commit assembly by delta"
        + " vs by replay\n"
        + sweep_table
        + f"\nfitted: {fitted}"
        + f"\ngate: delta assembly >= {MIN_ASSEMBLY_SPEEDUP:.0f}x cheaper than"
        + " the replay at every sweep point.",
        data=data,
    )
