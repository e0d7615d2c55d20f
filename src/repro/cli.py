"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
check       decide Comp-C for a saved execution (JSON)
lint        static analysis of system/trace/topology documents
info        structure + every applicable criterion for a saved execution
render      DOT/ASCII renderings of a saved execution
generate    random composite execution -> JSON file
simulate    run the discrete-event simulator, print metrics
chaos       simulate under injected faults, re-check Comp-C per protocol
figures     walk the paper's Figures 1-4
experiment  run one of the paper-artifact experiments (t1..t4, h1, p2, a1)
compare     Def.-18 front equivalence of two saved executions
report      run every experiment, write one Markdown report
profile     render a telemetry JSONL file into per-phase time tables
eventlog    convert a saved execution into a streaming JSONL event log
watch       tail an event log through the incremental Comp-C checker
resume      continue a killed run from its --checkpoint-out file

``check``, ``simulate``, ``chaos`` and ``experiment`` accept
``--telemetry-out PATH``: the run executes under an ambient
:mod:`repro.obs` sink and writes one schema-versioned JSONL event
stream (spans, counters) to ``PATH``, deterministically ordered across
worker counts.  ``profile PATH`` turns such a file back into tables
(see docs/OBSERVABILITY.md).

``chaos`` and ``experiment`` accept ``--checkpoint-out PATH``: the run
periodically writes an atomic, schema-versioned checkpoint of every
completed grid cell.  A killed run continues with ``composite-tx
resume PATH`` (or ``--resume-from PATH`` on the original command),
re-running only what had not finished — the resumed run's metrics and
canonical telemetry are byte-identical to an uninterrupted run's.
``chaos`` additionally supervises its cells (``--task-timeout``,
``--task-retries``) and quarantines cells that keep failing instead of
aborting the grid; ``--fail-fast`` restores the abort-everything
behaviour.  ``--workers N`` runs a grid on the lease-based fleet of
:mod:`repro.analysis.fleet` — N heartbeating workers that survive
SIGKILL, hangs, and garbage messages with byte-identical output
(``chaos`` tunes it with ``--heartbeat-interval``,
``--lease-timeout`` and ``--max-shard-retries``).  See
docs/RESILIENCE.md.

The CLI is a thin veneer over the library; every command maps onto the
public API used by the examples and benchmarks.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.tables import banner, format_table
from repro.core.correctness import check_composite_correctness
from repro.criteria.registry import classify
from repro.io import load, save
from repro.simulator import ProgramConfig, SimulationConfig, simulate
from repro.viz.ascii_art import render_forest, render_levels
from repro.viz.dot import forest_dot, invocation_graph_dot
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)


def _topology(args: argparse.Namespace):
    kind = args.topology
    if kind == "stack":
        return stack_topology(args.depth)
    if kind == "fork":
        return fork_topology(args.width)
    if kind == "join":
        return join_topology(args.width)
    if kind == "tree":
        return tree_topology(args.depth, args.width)
    if kind == "dag":
        return random_dag_topology(args.depth, args.width, seed=args.seed)
    raise SystemExit(f"unknown topology {kind!r}")


def _add_workers_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard independent runs across a fleet of N worker "
        "processes (1 = serial; output is bit-identical either way)",
    )


def _add_telemetry_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-out",
        metavar="PATH",
        help="write a schema-versioned JSONL telemetry stream (spans + "
        "counters) for this run; render it with `composite-tx profile`",
    )


def _add_checkpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--checkpoint-out",
        metavar="PATH",
        help="periodically write an atomic checkpoint of completed "
        "grid cells; a killed run continues with `composite-tx resume "
        "PATH`",
    )
    parser.add_argument(
        "--resume-from",
        metavar="PATH",
        help="resume from a checkpoint written by --checkpoint-out: "
        "completed cells are restored, only unfinished work re-runs "
        "(quarantined cells are NOT retried; rerun without this flag "
        "to retry them)",
    )


def _add_topology_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--topology",
        choices=("stack", "fork", "join", "tree", "dag"),
        default="stack",
    )
    parser.add_argument("--depth", type=int, default=2)
    parser.add_argument("--width", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------
def cmd_check(args: argparse.Namespace) -> int:
    recorded = load(args.file)
    report = check_composite_correctness(recorded.system)
    print(report.narrative())
    if args.profile:
        print()
        print(banner("reduction profile"))
        rows = [
            [
                p.level,
                f"{p.seconds * 1000:.2f}",
                p.closure_calls,
                p.closure_rows,
                p.nodes,
                p.observed_pairs,
            ]
            for p in report.reduction.profile
        ]
        totals = report.reduction.profile_totals()
        rows.append(
            [
                "total",
                f"{totals['seconds'] * 1000:.2f}",
                int(totals["closure_calls"]),
                int(totals["closure_rows"]),
                "",
                "",
            ]
        )
        print(
            format_table(
                ["level", "ms", "closures", "rows", "nodes", "obs pairs"],
                rows,
            )
        )
    if not report.correct and args.explain:
        print()
        print(report.explain())
    if args.trace:
        from repro.io.trace import save_trace

        save_trace(report.reduction, args.trace)
        print(f"reduction trace written to {args.trace}")
    if args.strict and not report.correct:
        return 2
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import (
        lint_paths,
        render_json,
        render_text,
        write_witness_file,
    )

    result, missing = lint_paths(args.paths, workers=args.workers)
    for path in missing:
        print(f"lint: no such file or directory: {path}", file=sys.stderr)
    if missing:
        return 1
    if not result.reports:
        print("lint: no JSON documents found", file=sys.stderr)
        return 1
    if args.format == "json":
        print(render_json(result, strict=args.strict), end="")
    else:
        print(
            render_text(result, strict=args.strict, explain=args.explain)
        )
    if args.witness_out:
        # Written before the exit code is decided: a refuting run (exit
        # 2) is exactly when the witness document matters.
        write_witness_file(args.witness_out, result)
        print(
            f"witness document written to {args.witness_out}",
            file=sys.stderr,
        )
    return result.exit_code(strict=args.strict)


def cmd_info(args: argparse.Namespace) -> int:
    recorded = load(args.file)
    system = recorded.system
    print(banner("structure"))
    print(render_levels(system))
    print()
    print(render_forest(system))
    if recorded.executions:
        from repro.viz.timeline import render_lanes

        print(banner("execution lanes"))
        print(render_lanes(recorded))
    print(banner("criteria"))
    rows = []
    for name, verdict in classify(recorded).items():
        cell = "-" if verdict is None else ("yes" if verdict else "NO")
        rows.append([name, cell])
    print(format_table(["criterion", "verdict"], rows))
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    recorded = load(args.file)
    if args.format == "dot-invocation":
        print(invocation_graph_dot(recorded.system))
    elif args.format == "dot-forest":
        print(forest_dot(recorded.system))
    else:
        print(render_levels(recorded.system))
        print()
        print(render_forest(recorded.system))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    spec = _topology(args)
    recorded = generate(
        spec,
        WorkloadConfig(
            seed=args.seed,
            roots=args.roots,
            conflict_probability=args.conflicts,
            layout=args.layout,
        ),
    )
    save(recorded, args.output)
    verdict = check_composite_correctness(recorded.system)
    print(
        f"wrote {args.output}: {spec.name}, {args.roots} roots, "
        f"{'Comp-C' if verdict.correct else 'NOT Comp-C'}"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _topology(args)
    result = simulate(
        SimulationConfig(
            topology=spec,
            protocol=args.protocol,
            clients=args.clients,
            transactions_per_client=args.transactions,
            seed=args.seed,
            program=ProgramConfig(
                items_per_component=args.items, item_skew=args.skew
            ),
        )
    )
    report = None
    if result.assembled is not None:
        report = check_composite_correctness(result.assembled.recorded.system)
    rows = [[k, v] for k, v in result.metrics.summary().items()]
    print(format_table(["metric", "value"], rows))
    if report is not None:
        verdict = "Comp-C" if report.correct else "NOT Comp-C"
        print(f"committed execution: {verdict}")
        if args.output:
            save(result.assembled.recorded, args.output)
            print(f"recorded execution written to {args.output}")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.analysis.batch import chaos_grid_report
    from repro.analysis.supervise import BatchSupervisor

    spec = _topology(args)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    supervisor = BatchSupervisor(
        task_timeout=args.task_timeout,
        max_attempts=max(1, args.task_retries),
        retry_seed=args.seed,
        fail_fast=args.fail_fast,
        heartbeat_interval=args.heartbeat_interval,
        lease_timeout=args.lease_timeout,
        max_shard_retries=args.max_shard_retries,
    )
    grid = chaos_grid_report(
        spec,
        protocols,
        tuple(range(args.seed, args.seed + args.runs)),
        workers=args.workers,
        supervisor=supervisor,
        intensity=args.intensity,
        clients=args.clients,
        transactions_per_client=args.transactions,
        retry_policy=args.retry_policy,
    )
    points = grid.points
    print(
        format_table(
            [
                "protocol",
                "commits",
                "gave up",
                "availability",
                "abort rate",
                "aborts by reason",
                "wasted ops",
                "Comp-C",
                "lint",
                "verdicts",
            ],
            [
                [
                    p.protocol,
                    p.commits,
                    p.gave_up,
                    f"{p.availability:.3f}",
                    f"{p.abort_rate:.3f}",
                    p.abort_breakdown(),
                    p.discarded_operations,
                    f"{p.comp_c_runs}/{p.assembled_runs}",
                    p.lint_breakdown(),
                    p.verdict_breakdown(),
                ]
                for p in points
            ],
        )
    )
    print(
        f"\nfault intensity {args.intensity} over {args.runs} seeded "
        f"run(s) per protocol on {spec.name}; faults degrade liveness, "
        f"never safety: composite-aware protocols stay Comp-C."
    )
    if grid.quarantine:
        print()
        print(grid.quarantine.render())
    if grid.fleet is not None and grid.fleet.disturbed:
        # which workers failed is environment, not a result: stdout
        # stays byte-identical to --workers 1
        print(grid.fleet.render(), file=sys.stderr)
    if args.strict:
        for point in points:
            if point.protocol in ("cc", "s2pl") and point.comp_c_rate < 1.0:
                return 2
    return 1 if grid.quarantine else 0


def cmd_figures(args: argparse.Namespace) -> int:
    from repro import reduce_to_roots
    from repro.figures import (
        figure1_system,
        figure2_system,
        figure3_system,
        figure4_system,
    )

    factories = {
        1: figure1_system,
        2: figure2_system,
        3: figure3_system,
        4: figure4_system,
    }
    numbers = [args.number] if args.number else sorted(factories)
    for n in numbers:
        print(banner(f"Figure {n}"))
        print(reduce_to_roots(factories[n]()).narrative())
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name == "t1":
        from repro.analysis.theorems import theorem1_experiment

        rows = theorem1_experiment(trials=args.trials, workers=args.workers)
        print(
            format_table(
                ["configuration", "trials", "accepted", "witnesses", "certificates"],
                [
                    [r.label, r.trials, r.accepted, r.witnesses_valid, r.certificates_valid]
                    for r in rows
                ],
            )
        )
        return 0 if all(r.all_valid for r in rows) else 2
    if name in ("t2", "t3", "t4"):
        from repro.analysis.theorems import (
            theorem2_rows,
            theorem3_rows,
            theorem4_rows,
        )

        rows = {
            "t2": theorem2_rows,
            "t3": theorem3_rows,
            "t4": theorem4_rows,
        }[name](trials=args.trials, workers=args.workers)
        print(
            format_table(
                ["configuration", "trials", "agreements", "accepted"],
                [[r.label, r.trials, r.agreements, r.accepted] for r in rows],
            )
        )
        return 0 if all(r.disagreements == 0 for r in rows) else 2
    if name == "h1":
        from repro.analysis.hierarchy import (
            HIERARCHY,
            run_hierarchy_experiment,
            total_violations,
        )

        rows = run_hierarchy_experiment(
            trials=args.trials, workers=args.workers
        )
        print(
            format_table(
                ["conflict rate"] + list(HIERARCHY),
                [
                    [row.conflict_probability]
                    + [f"{row.accepted[c]}/{row.trials}" for c in HIERARCHY]
                    for row in rows
                ],
            )
        )
        print(f"containment violations: {total_violations(rows)}")
        return 0 if total_violations(rows) == 0 else 2
    if name == "p2":
        from repro.analysis.scaling import (
            checker_scaling,
            incremental_speedup,
            sweep_speedup,
        )

        points = checker_scaling(repeats=2)
        print(
            format_table(
                ["point", "nodes", "ms"],
                [
                    [p.label, p.operations, f"{p.seconds * 1000:.2f}"]
                    for p in points
                ],
            )
        )
        print()
        print(banner("incremental closure vs from-scratch"))
        speedups = incremental_speedup(repeats=2)
        print(
            format_table(
                ["topology", "nodes", "scratch ms", "incr ms", "speedup",
                 "rows", "verdicts"],
                [
                    [
                        s.label,
                        s.operations,
                        f"{s.scratch_seconds * 1000:.1f}",
                        f"{s.incremental_seconds * 1000:.1f}",
                        f"{s.speedup:.2f}x",
                        f"{s.incremental_rows}/{s.scratch_rows}",
                        "same" if s.verdicts_match else "DIFFER",
                    ]
                    for s in speedups
                ],
            )
        )
        if args.workers > 1:
            sweep = sweep_speedup(workers=args.workers)
            print(
                f"\n{sweep.label}: {sweep.tasks} tasks, serial "
                f"{sweep.serial_seconds:.2f}s vs {sweep.workers} workers "
                f"{sweep.parallel_seconds:.2f}s ({sweep.speedup:.2f}x), "
                f"results {'identical' if sweep.identical else 'DIFFER'}"
            )
        return 0 if all(s.verdicts_match for s in speedups) else 2
    if name == "a1":
        from repro.analysis.batch import ablation_task, run_batch
        from repro.workloads.generator import WorkloadConfig as WC

        spec = stack_topology(2)
        configs = [
            WC(seed=s, conflict_probability=0.2) for s in range(args.trials)
        ]
        verdicts = run_batch(
            [
                (spec, config, forget)
                for forget in (True, False)
                for config in configs
            ],
            ablation_task,
            workers=args.workers,
        )
        base = sum(verdicts[:len(configs)])
        ablated = sum(verdicts[len(configs):])
        print(
            format_table(
                ["variant", "accepted", "of"],
                [
                    ["default", base, len(configs)],
                    ["no forgetting", ablated, len(configs)],
                ],
            )
        )
        return 0
    raise SystemExit(f"unknown experiment {name!r}")


def cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.batch import compare_front_task, run_batch
    from repro.core.equivalence import level_equivalent_systems

    a = load(args.file_a).system
    b = load(args.file_b).system
    level_a = args.level_a if args.level_a is not None else a.order
    level_b = args.level_b if args.level_b is not None else b.order
    rename = {}
    for pair in args.rename or []:
        if "=" not in pair:
            raise SystemExit(f"--rename expects old=new, got {pair!r}")
        old, new = pair.split("=", 1)
        rename[old] = new
    descriptions = run_batch(
        [(args.file_a, level_a), (args.file_b, level_b)],
        compare_front_task,
        workers=args.workers,
    )
    for description in descriptions:
        print(description)
    equivalent = level_equivalent_systems(
        a, level_a, b, level_b, rename=rename or None
    )
    print(
        f"level-{level_a}/level-{level_b} equivalent (Def. 18): "
        + ("YES" if equivalent else "NO")
    )
    return 0 if equivalent else 3


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import TornTail, iter_records, validate_records
    from repro.obs.profile import render_profile

    # Stream the records instead of slurping: a sink a live run is
    # still appending to reads cleanly, its torn tail tolerated.
    torn_box: List[TornTail] = []
    records = list(iter_records(args.file, on_torn=torn_box.append))
    torn = torn_box[0] if torn_box else None
    if torn is not None:
        print(f"warning: {torn.describe()}", file=sys.stderr)
    problems = validate_records(records)
    if args.check:
        if torn is not None:
            problems = [torn.describe()] + problems
        for problem in problems:
            print(f"telemetry: {problem}", file=sys.stderr)
        print(
            f"{args.file}: {len(records)} records, "
            + ("INVALID" if problems else "schema OK")
        )
        return 1 if problems else 0
    if problems:
        print(
            f"warning: {len(problems)} schema problem(s); "
            "run `profile --check` for details",
            file=sys.stderr,
        )
    print(render_profile(records, top=args.top))
    return 0


def cmd_eventlog(args: argparse.Namespace) -> int:
    from repro.io.eventlog import events_from_recorded, save_event_log

    recorded = load(args.file)
    events = events_from_recorded(recorded)
    save_event_log(events, args.output)
    print(
        f"{args.output}: {len(events)} events "
        f"({len(recorded.system.roots)} roots, "
        f"{len(recorded.system.leaves)} leaf operations)"
    )
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs import current
    from repro.stream import (
        EventLogTail,
        IncrementalChecker,
        SnapshotWriter,
        read_snapshot,
        restore_checker,
        restore_tail,
        verify_snapshot,
    )

    if args.resume_from_snapshot:
        if args.from_offset:
            raise SystemExit(
                "--resume-from-snapshot and --from-offset are mutually "
                "exclusive: the snapshot carries its own offset"
            )
        document = read_snapshot(args.resume_from_snapshot)
        verify_snapshot(
            document, args.file, snapshot_path=args.resume_from_snapshot
        )
        checker = restore_checker(document)
        tail = restore_tail(document, args.file)
        restored = checker.verdict()
        checker.telemetry.meta(
            "stream.recover",
            mode="snapshot",
            offset=tail.offset,
            line=tail.line,
            events=restored.events,
        )
        last_status: Optional[str] = restored.status
        print(
            f"resumed from {args.resume_from_snapshot}: "
            f"{restored.events} event(s) restored "
            f"({restored.commits} commits, {restored.status}); "
            f"replaying the log from offset {tail.offset}",
            file=sys.stderr,
        )
    else:
        checker = IncrementalChecker()
        tail = EventLogTail(args.file)
        last_status = None
    writer: Optional[SnapshotWriter] = None
    if args.snapshot_out:
        writer = SnapshotWriter(
            args.snapshot_out,
            every=args.snapshot_every,
            telemetry=checker.telemetry,
        )
    replayed = 0
    try:
        while True:
            batch = tail.poll()
            for tailed in batch:
                verdict = checker.ingest(tailed.event)
                replayed += 1
                if tailed.offset <= args.from_offset:
                    # catch-up below the resume offset: state is
                    # rebuilt, transitions are not re-announced
                    last_status = verdict.status
                    continue
                if verdict.status != last_status:
                    last_status = verdict.status
                    print(f"[offset {tailed.offset}] {verdict.describe()}")
                if checker.ended:
                    break
            if writer is not None and batch:
                writer.maybe(checker, tail)
            if checker.ended:
                break
            if not batch:
                if not args.follow:
                    break
                _time.sleep(args.interval)
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        print("interrupted; certifying the prefix seen so far",
              file=sys.stderr)
        if writer is not None:
            writer.write(checker, tail)
    if args.resume_from_snapshot:
        checker.telemetry.count("stream.recover.replayed", replayed)
    result = checker.finalize()
    current().absorb(checker.telemetry.collect())
    if result.reduction is None:
        print(f"{args.file}: no committed roots; nothing to check")
        return 0
    print()
    print(banner("final verdict (batch-certified)"))
    print(result.reduction.narrative())
    verdict = result.verdict
    print(
        f"stream: {verdict.events} event(s), {verdict.commits} "
        f"commit(s); resume offset {tail.offset}"
    )
    if writer is not None and writer.written:
        print(f"snapshots: {writer.written} written to {writer.path}")
    if args.strict and verdict.rejected:
        return 2
    return 0


def cmd_chaos_stream(args: argparse.Namespace) -> int:
    from repro.stream.chaos import SCENARIOS, run_chaos_suite

    scenarios = args.scenario if args.scenario else list(SCENARIOS)
    outcomes = run_chaos_suite(
        seed=args.seed,
        roots=args.roots,
        batch_lines=args.batch_lines,
        scenarios=scenarios,
    )
    print(banner("chaos-stream: fault scenarios vs batch check"))
    for outcome in outcomes:
        print(outcome.describe())
    print(
        f"{len(outcomes)} scenario(s): final verdict, witness, and "
        "canonical telemetry byte-identical to `check` under every "
        "fault"
    )
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    from repro.analysis.checkpoint import checkpoint_complete, read_checkpoint

    document = read_checkpoint(args.checkpoint)
    if checkpoint_complete(document):
        # every section is fully recorded (or the session closed
        # cleanly): re-dispatching would spawn a fleet just to restore
        # everything and re-print — say so and succeed instead
        print(
            f"{args.checkpoint}: nothing to resume "
            "(checkpoint records a completed run)"
        )
        return 0
    stored = [str(a) for a in document.get("argv", [])]
    if not stored:
        raise SystemExit(
            f"{args.checkpoint}: no command line recorded; resume with "
            "the original command plus --resume-from"
        )
    # re-dispatch the recorded command with --resume-from appended
    # (dropping any stale --resume-from a doubly-resumed run recorded)
    forwarded: List[str] = []
    skip_next = False
    for argument in stored:
        if skip_next:
            skip_next = False
            continue
        if argument == "--resume-from":
            skip_next = True
            continue
        if argument.startswith("--resume-from="):
            continue
        forwarded.append(argument)
    print(
        "resuming: repro " + " ".join(forwarded + ["--resume-from", args.checkpoint]),
        file=sys.stderr,
    )
    return main(forwarded + ["--resume-from", args.checkpoint])


def cmd_report(args: argparse.Namespace) -> int:
    from repro.analysis.report import build_report

    text = build_report(
        trials=args.trials, include_protocols=args.protocols
    )
    with open(args.output, "w") as handle:
        handle.write(text)
    print(f"report written to {args.output}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="composite-tx: composite transaction correctness "
        "(PODS 1999 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide Comp-C for a saved execution")
    p.add_argument("file")
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 2 when the execution is not Comp-C",
    )
    p.add_argument(
        "--trace", help="write the JSON reduction trace to this path"
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="on rejection, trace the counterexample cycle back to "
        "concrete conflicting accesses",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="print the per-level reduction profile (wall time, "
        "closure calls, bitset rows touched)",
    )
    _add_telemetry_option(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "lint",
        help="static analysis of system/trace/topology documents "
        "(stable CTX*** diagnostic codes)",
    )
    p.add_argument(
        "paths",
        nargs="+",
        help="JSON documents and/or directories (searched recursively "
        "for *.json)",
    )
    p.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors for the exit code",
    )
    p.add_argument(
        "--explain",
        action="store_true",
        help="print the provenance chain behind each verdict: the "
        "concrete SafetyEdge list of every cycle witness and the "
        "recorded executions a refutation replays",
    )
    p.add_argument(
        "--witness-out",
        metavar="PATH",
        help="write a schema-versioned canonical-JSON witness document "
        "(verdict counts plus every replayable refutation); replay it "
        "with repro.lint.replay_witness_file",
    )
    _add_workers_option(p)
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("info", help="structure + criteria classification")
    p.add_argument("file")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("render", help="render a saved execution")
    p.add_argument("file")
    p.add_argument(
        "--format",
        choices=("ascii", "dot-invocation", "dot-forest"),
        default="ascii",
    )
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("generate", help="random execution -> JSON")
    _add_topology_options(p)
    p.add_argument("--roots", type=int, default=4)
    p.add_argument("--conflicts", type=float, default=0.2)
    p.add_argument(
        "--layout", choices=("serial", "random", "perturbed"), default="random"
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="run the discrete-event simulator")
    _add_topology_options(p)
    p.add_argument(
        "--protocol", choices=("cc", "s2pl", "sgt", "to"), default="cc"
    )
    p.add_argument("--clients", type=int, default=4)
    p.add_argument("--transactions", type=int, default=8)
    p.add_argument("--items", type=int, default=4)
    p.add_argument("--skew", type=float, default=0.8)
    p.add_argument("-o", "--output")
    _add_telemetry_option(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser(
        "chaos",
        help="simulate under injected faults (crashes, drops, "
        "degradation) and re-check Comp-C per protocol",
    )
    _add_topology_options(p)
    p.add_argument(
        "--protocols",
        default="cc,s2pl,sgt,to",
        help="comma-separated protocol list (default: all four)",
    )
    p.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="fault-plan scale: 0 disables faults, 1 is the default "
        "mix, >1 amplifies it",
    )
    p.add_argument("--clients", type=int, default=3)
    p.add_argument("--transactions", type=int, default=5)
    p.add_argument(
        "--runs", type=int, default=2, help="seeded runs per protocol"
    )
    p.add_argument(
        "--retry-policy",
        choices=("linear", "exponential", "decorrelated-jitter"),
        default="exponential",
        help="in-simulation retry pacing; named policies are seeded "
        "per cell for reproducible sharded runs (default: seeded "
        "full-jitter exponential; 'linear' restores the legacy pacing)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when a composite-aware protocol (cc/s2pl) commits "
        "a non-Comp-C execution under faults",
    )
    p.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell wall-clock budget enforced inside the worker; "
        "a cell over budget is retried, then quarantined",
    )
    p.add_argument(
        "--task-retries",
        type=int,
        default=1,
        metavar="N",
        help="attempts per grid cell (seeded jittered backoff between "
        "them) before it is quarantined (default: 1)",
    )
    p.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole grid on the first cell that exhausts its "
        "attempts, instead of quarantining it and finishing the rest",
    )
    p.add_argument(
        "--heartbeat-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="how often busy --workers processes prove liveness "
        "(default: 0.5)",
    )
    p.add_argument(
        "--lease-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="missed-heartbeat deadline before a worker is presumed "
        "hung, killed, and its shard reassigned (default: "
        "max(6 x heartbeat interval, 3))",
    )
    p.add_argument(
        "--max-shard-retries",
        type=int,
        default=3,
        metavar="N",
        help="distinct workers a shard may fail on before it is "
        "quarantined instead of reassigned (default: 3)",
    )
    _add_workers_option(p)
    _add_telemetry_option(p)
    _add_checkpoint_options(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("figures", help="walk the paper's figures")
    p.add_argument("number", nargs="?", type=int, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("experiment", help="run a paper-artifact experiment")
    p.add_argument(
        "name", choices=("t1", "t2", "t3", "t4", "h1", "p2", "a1")
    )
    p.add_argument("--trials", type=int, default=30)
    _add_workers_option(p)
    _add_telemetry_option(p)
    _add_checkpoint_options(p)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "compare",
        help="Def.-18 equivalence of two saved executions' fronts",
    )
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--level-a", type=int, default=None)
    p.add_argument("--level-b", type=int, default=None)
    p.add_argument(
        "--rename",
        action="append",
        metavar="OLD=NEW",
        help="rename nodes of the first front before comparing",
    )
    _add_workers_option(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser(
        "profile",
        help="render a --telemetry-out JSONL file into per-phase time "
        "tables and a slowest-spans list",
    )
    p.add_argument("file")
    p.add_argument(
        "--top", type=int, default=10, help="slowest spans to list"
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="validate the stream against the event schema and exit "
        "(status 1 on any violation)",
    )
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "eventlog",
        help="convert a saved execution (JSON) into a streaming JSONL "
        "event log for `composite-tx watch`",
    )
    p.add_argument("file", help="saved execution (see `generate`)")
    p.add_argument("output", help="event log path (JSONL)")
    p.set_defaults(func=cmd_eventlog)

    p = sub.add_parser(
        "watch",
        help="stream an event log through the incremental Comp-C "
        "checker: live verdict transitions, batch-certified final "
        "verdict",
    )
    p.add_argument("file", help="JSONL event log (may still be growing)")
    p.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing after EOF until an `end` event arrives "
        "(torn tails are waited out, not errors)",
    )
    p.add_argument(
        "--from-offset",
        type=int,
        default=0,
        metavar="BYTES",
        help="suppress re-announcing transitions at or below this byte "
        "offset (printed as `resume offset` by a previous watch); the "
        "checker still replays the whole log to rebuild its state",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while following (default 0.2s)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="exit 2 when the stream is rejected",
    )
    p.add_argument(
        "--snapshot-out",
        metavar="PATH",
        help="atomically write a resumable checker snapshot here while "
        "watching (see --snapshot-every); a killed watch resumes with "
        "--resume-from-snapshot, replaying only the unseen suffix",
    )
    p.add_argument(
        "--snapshot-every",
        type=int,
        default=1,
        metavar="EVENTS",
        help="snapshot cadence: write after every poll batch that "
        "ingested at least this many events since the last snapshot "
        "(default 1)",
    )
    p.add_argument(
        "--resume-from-snapshot",
        metavar="PATH",
        help="restore checker state from a snapshot and replay only "
        "the log suffix past its offset; refused (CTX501) when the "
        "log's prefix no longer matches the snapshot's fingerprint",
    )
    _add_telemetry_option(p)
    p.set_defaults(func=cmd_watch)

    p = sub.add_parser(
        "chaos-stream",
        help="torture the supervised watch loop with log faults "
        "(kill, torn writes, corruption, duplicates, reordering, "
        "rotation) and hard-assert the certified verdict stays "
        "byte-identical to `check`",
    )
    p.add_argument(
        "--scenario",
        action="append",
        metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    p.add_argument("--seed", type=int, default=3)
    p.add_argument(
        "--roots", type=int, default=4, help="workload roots (default 4)"
    )
    p.add_argument(
        "--batch-lines",
        type=int,
        default=40,
        metavar="N",
        help="lines per simulated append batch (default 40)",
    )
    _add_telemetry_option(p)
    p.set_defaults(func=cmd_chaos_stream)

    p = sub.add_parser(
        "resume",
        help="continue a killed chaos/experiment run from its "
        "--checkpoint-out file (re-dispatches the recorded command "
        "with --resume-from)",
    )
    p.add_argument("checkpoint")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "report", help="run every experiment, write a Markdown report"
    )
    p.add_argument("-o", "--output", default="REPORT.md")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument(
        "--protocols",
        action="store_true",
        help="include the (slow) protocol simulation excerpt",
    )
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    raw_argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = parser.parse_args(raw_argv)

    def dispatch() -> int:
        telemetry_out = getattr(args, "telemetry_out", None)
        if not telemetry_out:
            return args.func(args)
        from repro.obs import Telemetry, using, write_jsonl

        telemetry = Telemetry(stream="main")
        with using(telemetry):
            with telemetry.span("cli.command", command=args.command):
                code = args.func(args)
        write_jsonl(telemetry.collect(), telemetry_out)
        print(f"telemetry written to {telemetry_out}", file=sys.stderr)
        return code

    checkpoint_out = getattr(args, "checkpoint_out", None)
    resume_from = getattr(args, "resume_from", None)
    if not checkpoint_out and not resume_from:
        return dispatch()
    from repro.analysis.checkpoint import CheckpointSession, checkpointing

    if resume_from:
        # keep checkpointing into the same file (or --checkpoint-out's
        # override) so a resumed run can itself be killed and resumed;
        # the recorded argv stays the original command's
        session = CheckpointSession.resume(resume_from)
        if checkpoint_out:
            session.path = checkpoint_out
    else:
        session = CheckpointSession(checkpoint_out, argv=raw_argv)
    with checkpointing(session):
        return dispatch()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
