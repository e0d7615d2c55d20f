"""The four workloads: untraced passes through the user commands, and
traced passes through each layer's public functions.

A *pass* runs the workload's command once over every input.  Untraced
passes drive ``repro.cli.main`` (``check``, ``lint``, ``chaos``) or the
public stream API exactly as ``watch`` composes it, with no tracing.
Traced passes make the same calls one layer at a time, each inside a
benchmark span, and read per-layer counters from the results.
"""

from __future__ import annotations

import io
import json
import os
import signal
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from pb import inputs
from pb.calibration import PARALLEL_REFERENCE_S, burst, factor, parallel_burst
from pb.inputs import Item
from pb.spans import Tracer

from repro import cli
from repro.analysis.tables import banner
from repro.core.builder import SystemBuilder
from repro.core.correctness import check_composite_correctness
from repro.core.orders import Relation
from repro.criteria import is_fcc, is_fork, is_jcc, is_join, is_scc
from repro.criteria.stack import is_stack
from repro.io import load
from repro.io.jsondoc import parse_json_document
from repro.io.trace import dumps_trace
from repro.lint import lint_paths, render_json
from repro.stream import (
    EventLogTail,
    IncrementalChecker,
    read_snapshot,
    restore_checker,
    restore_tail,
    verify_snapshot,
    write_snapshot,
)

MB = 1e6


@dataclass
class Tally:
    """Operations attempted and failed over the whole run, with the
    reason for every failure (never dropped)."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)


#: one timed unit of a pass: (group, roots, name); the roots exponent
#: is fitted per group, and group "" stays out of the fit
Key = Tuple[str, int, str]


@dataclass
class Pass:
    """What one untraced pass measured."""

    #: raw seconds of every timed unit; they add up to the pass time
    times: Dict[Key, float]
    #: every unit's host-speed scale (see :mod:`pb.calibration`)
    scales: Dict[Key, float]
    #: items the pass processed (systems, events or cells)
    items: int
    #: scaled per-item latencies (per check, per commit, per chaos command)
    latencies: List[float]
    stdout_bytes: int


def _span(tracer: Optional[Tracer]) -> Callable:
    if tracer is None:
        return lambda name: nullcontext()
    return tracer.span


def run_cli(argv: List[str]) -> Tuple[int, str, float]:
    """Run one CLI command in-process: exit code, stdout, seconds
    (standard error is captured and dropped)."""
    out = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue(), time.perf_counter() - start


def criterion(system) -> Tuple[str, Optional[bool]]:
    """The Thm 2-4 criterion that applies to the built system (SCC,
    FCC or JCC) and its verdict, decided without the reduction;
    ``("none", None)`` for trees and DAGs."""
    if is_stack(system):
        return "SCC", is_scc(system)
    if is_fork(system):
        return "FCC", is_fcc(system)
    if is_join(system):
        return "JCC", is_jcc(system)
    return "none", None


# ----------------------------------------------------------------------
# check-stack and check-ensemble
# ----------------------------------------------------------------------
class CheckWorkload:
    """``check`` over every input, plus ``lint`` over all of them when
    ``lint`` is set (check-ensemble)."""

    def __init__(self, items: List[Item], work: Path, tally: Tally, lint: bool):
        self.items = items
        self.work = work
        self.tally = tally
        self.lint = lint
        self.expected = {item.path: item.expect for item in items}
        self._probed: Optional[Dict[str, float]] = None
        # Every input's verdict is known without the reduction.  The
        # Thm 2-4 criteria are decided too, timed, and each disagreement
        # with the known verdict is counted.
        self._criteria = {"criteria.decide_s": 0.0, "criteria.disagreements": 0}
        for item in items:
            system = load(item.path).system
            start = time.perf_counter()
            _, decided = criterion(system)
            self._criteria["criteria.decide_s"] += time.perf_counter() - start
            self._criteria["criteria.disagreements"] += (
                decided is not None and decided != item.expect
            )

    def group_key(self, item: Item) -> str:
        return f"d{item.depth}" if not self.lint else item.shape

    # -- untraced ------------------------------------------------------
    def run_pass(self) -> Pass:
        latencies = []
        out_bytes = 0
        times: Dict[Key, float] = {}
        scales: Dict[Key, float] = {}
        before = burst()
        for item in self.items:
            code, out, seconds = run_cli(["check", item.path, "--strict"])
            after = burst()
            key = (self.group_key(item), item.roots, item.path)
            times[key], scales[key] = seconds, factor(before, after)
            before = after
            latencies.append(seconds * scales[key])
            out_bytes += len(out)
            self.tally.check(
                code in (0, 2) and (code == 0) == self.expected[item.path],
                f"check {item.path}: exit {code}, expected "
                f"{'Comp-C' if self.expected[item.path] else 'NOT Comp-C'}",
            )
        if self.lint:
            code, out, seconds = run_cli(
                ["lint", str(self.work / "inputs"), "--format", "json"]
            )
            out_bytes += len(out)
            times["", 0, "lint"] = seconds
            scales["", 0, "lint"] = factor(before, burst())
            self._verify_lint(code, out)
        return Pass(times, scales, len(self.items), latencies, out_bytes)

    def _verify_lint(self, code: int, out: str) -> None:
        """Lint's static verdicts may never contradict ``check``."""
        self.tally.check(code in (0, 2), f"lint exit {code}")
        try:
            files = json.loads(out)["files"]
        except (ValueError, KeyError):
            self.tally.check(False, "lint printed no JSON report")
            return
        by_path = {f["path"]: f for f in files}
        for item in self.items:
            safety = (by_path.get(item.path) or {}).get("safety") or {}
            verdict = safety.get("verdict", "missing")
            proved = {"certified_safe": True, "certified_unsafe": False}
            ok = verdict == "unknown" or (
                verdict in proved and proved[verdict] == self.expected[item.path]
            )
            self.tally.check(ok, f"lint {item.path}: {verdict}")

    # -- traced --------------------------------------------------------
    def traced_pass(self, tracer: Tracer) -> Tuple[float, float, Dict[str, float]]:
        span = tracer.span
        layers: Dict[str, float] = defaultdict(float)
        start = time.perf_counter()
        for item in self.items:
            with span("cli"):
                cli.build_parser().parse_args(["check", item.path, "--strict"])
            with span("io"):
                text = Path(item.path).read_text()
                document = parse_json_document(
                    text, source=item.path, expect_object=True
                )
            with span("core.builder.from_spec"):
                builder = SystemBuilder.from_spec(document)
            with span("core.builder.build"):
                system = builder.build()
            with span("core.reduction"):
                report = check_composite_correctness(system)
            with span("render"):
                print(report.narrative(), file=io.StringIO())
            self.tally.check(
                report.correct == self.expected[item.path],
                f"traced check {item.path}",
            )
            layers["io.input_mb"] += len(text) / MB
            add_profile(layers, report.reduction.profile)
        if self.lint:
            directory = str(self.work / "inputs")
            with span("cli"):
                cli.build_parser().parse_args(["lint", directory, "--format", "json"])
            lint_start = time.perf_counter()
            with span("lint"):
                result, _ = lint_paths([directory])
                render_json(result)
            layers["lint.systems_per_s"] = len(self.items) / (
                time.perf_counter() - lint_start
            )
        wall = time.perf_counter() - start
        layers.update(self._criteria)
        if self._probed is None:
            self._probed = self._probe()
        layers.update(self._probed)
        return wall, wall, layers

    def _probe(self) -> Dict[str, float]:
        """Counts and times that need extra calls, made once and outside
        the pass's wall time: validation cost (``build()`` minus
        ``build(validate=False)``), closed output pairs, trace size."""
        out: Dict[str, float] = defaultdict(float)
        largest = max(self.items, key=lambda i: Path(i.path).stat().st_size)
        for item in self.items:
            document = parse_json_document(Path(item.path).read_text())
            builder = SystemBuilder.from_spec(document)
            start = time.perf_counter()
            system = builder.build()
            with_validation = time.perf_counter() - start
            builder = SystemBuilder.from_spec(document)
            start = time.perf_counter()
            builder.build(validate=False)
            out["core.builder.validate_s"] += with_validation - (
                time.perf_counter() - start
            )
            for schedule in system.schedules.values():
                for relation in (schedule.weak_output, schedule.strong_output):
                    out["core.builder.closed_pairs"] += len(
                        Relation(relation.pairs()).transitive_closure()
                    )
            if item is largest and not self.lint:
                report = check_composite_correctness(system)
                out["io.trace_mb"] = len(dumps_trace(report.reduction)) / MB
        return out


def add_profile(layers: Dict[str, float], profile) -> None:
    """Fold a ``ReductionResult.profile`` into the reduction counters."""
    for level in profile:
        key = "core.reduction.level0_s" if level.level == 0 else (
            "core.reduction.upper_s"
        )
        layers[key] += level.seconds
        layers["core.reduction.closure_calls"] += level.closure_calls
        layers["core.reduction.closure_rows"] += level.closure_rows


# ----------------------------------------------------------------------
# watch-stack
# ----------------------------------------------------------------------
class WatchWorkload:
    """``watch`` over each pre-written stream of an accepted stack: the
    first 95% of the log is present when the watcher starts, a snapshot
    is written there, the producer appends the rest, and the watcher
    certifies the final verdict.  A second watcher resumes from the
    snapshot.  Both must print ``check``'s verdict and witness; the
    resume is checked once per stream at start and timed by the traced
    run, while untraced passes time the watcher alone."""

    def __init__(self, items: List[Item], work: Path, tally: Tally):
        self.items = items
        self.work = work
        self.tally = tally
        self.narratives: Dict[str, str] = {}
        self.cuts: Dict[str, int] = {}
        for item in items:
            lines = Path(item.log).read_bytes().splitlines(keepends=True)
            keep = int(len(lines) * inputs.SNAPSHOT_AT)
            self.cuts[item.log] = sum(len(line) for line in lines[:keep])
            code, out, _ = run_cli(["check", item.path, "--strict"])
            tally.check(code == 0, f"check {item.path}: exit {code}")
            self.narratives[item.path] = _narrative_of(out)
            self.watch(item, None, defaultdict(float), [], io.StringIO())
            self.resume(item, None, defaultdict(float))

    @staticmethod
    def _ingest(checker, batch, out, latencies, layers, last):
        for tailed in batch:
            start = time.perf_counter()
            verdict = checker.ingest(tailed.event)
            seconds = time.perf_counter() - start
            if tailed.event.kind == "commit":
                latencies.append(seconds)
                layers["stream.checker.commit_ingest_s"] += seconds
                if checker.last_result is not None:
                    layers["stream.checker.commit_reduce_s"] += sum(
                        p.seconds for p in checker.last_result.profile
                    )
            else:
                layers["stream.checker.decl_ingest_s"] += seconds
            if verdict.status != last:
                last = verdict.status
                print(f"[offset {tailed.offset}] {verdict.describe()}", file=out)
        return last

    def watch(self, item, tracer, layers, latencies, out, pause=None) -> float:
        """Watch one stream to its certified verdict; returns the
        watcher's seconds.  The producer's append, and ``pause()`` run
        beside it, are not counted."""
        span = _span(tracer)
        live = self.work / "live.jsonl"
        data = Path(item.log).read_bytes()
        cut = self.cuts[item.log]
        live.write_bytes(data[:cut])
        start = time.perf_counter()
        with span("stream.checker"):
            checker = IncrementalChecker()
            tail = EventLogTail(live)
        with span("stream.tail"):
            batch = tail.poll()
        with span("stream.checker"):
            last = self._ingest(checker, batch, out, latencies, layers, None)
        with span("stream.snapshot.write"):
            write_snapshot(self.work / "live.snapshot", checker, tail)
        paused = time.perf_counter()
        with open(live, "ab") as handle:  # the producer catches up
            handle.write(data[cut:])
        if pause is not None:
            pause()
        resumed = time.perf_counter()
        with span("stream.tail"):
            batch = tail.poll()
        with span("stream.checker"):
            self._ingest(checker, batch, out, latencies, layers, last)
        finalize_start = time.perf_counter()
        with span("stream.checker"):
            result = checker.finalize()
        layers["stream.checker.finalize_s"] += time.perf_counter() - finalize_start
        with span("render"):
            narrative = result.reduction.narrative()
            print(banner("final verdict (batch-certified)"), file=out)
            print(narrative, file=out)
        seconds = time.perf_counter() - start - (resumed - paused)
        self.tally.check(
            not result.verdict.rejected and narrative == self.narratives[item.path],
            f"watch {item.log}: verdict/witness differs from check",
        )
        add_profile(layers, result.reduction.profile)
        return seconds

    def resume(self, item, tracer, layers) -> float:
        """Resume from the snapshot :meth:`watch` left; returns seconds
        to the certified verdict."""
        span = _span(tracer)
        live = self.work / "live.jsonl"
        snap = self.work / "live.snapshot"
        start = time.perf_counter()
        with span("stream.snapshot.restore"):
            document = read_snapshot(snap)
            verify_snapshot(document, live, snapshot_path=str(snap))
            checker = restore_checker(document)
            tail = restore_tail(document, live)
        layers["stream.snapshot.restore_s"] += time.perf_counter() - start
        with span("stream.tail"):
            suffix = tail.poll()
        with span("stream.checker"):
            for tailed in suffix:
                checker.ingest(tailed.event)
            result = checker.finalize()
        with span("render"):
            narrative = result.reduction.narrative()
        seconds = time.perf_counter() - start
        self.tally.check(
            narrative == self.narratives[item.path] and len(suffix) < item.events,
            f"watch resume {item.log}: differs from check",
        )
        layers["stream.snapshot.mb"] += snap.stat().st_size / MB
        layers["stream.snapshot.replayed_events"] += len(suffix)
        return seconds

    def run_pass(self) -> Pass:
        latencies: List[float] = []
        out = io.StringIO()
        times: Dict[Key, float] = {}
        scales: Dict[Key, float] = {}
        bursts = [burst()]
        for item in self.items:
            key = (f"d{item.depth}", item.roots, item.log)
            commits: List[float] = []
            times[key] = self.watch(
                item, None, defaultdict(float), commits, out,
                pause=lambda: bursts.append(burst()),
            )
            bursts.append(burst())
            scales[key] = factor(*bursts[-3:])
            latencies.extend(seconds * scales[key] for seconds in commits)
        events = sum(item.events for item in self.items)
        return Pass(times, scales, events, latencies, len(out.getvalue()))

    def traced_pass(self, tracer: Tracer) -> Tuple[float, float, Dict[str, float]]:
        """Per stream: watch, resume, and ``check`` of the final
        execution (for the watch/check ratio)."""
        layers: Dict[str, float] = defaultdict(float)
        totals: Dict[str, float] = defaultdict(float)
        for item in self.items:
            totals["watch"] += self.watch(item, tracer, layers, [], io.StringIO())
            totals["resume"] += self.resume(item, tracer, layers)
            with tracer.span("check"):
                _, _, seconds = run_cli(["check", item.path, "--strict"])
            totals["check"] += seconds
        events = sum(item.events for item in self.items)
        layers["io.eventlog_mb"] = sum(
            Path(item.log).stat().st_size for item in self.items
        ) / MB
        layers["io.eventlog.order_frac"] = (
            sum(item.order_events for item in self.items) / events
        )
        layers["stream.snapshot.resume_s"] = totals["resume"]
        layers["stream.checker.check_ratio"] = totals["watch"] / totals["check"]
        return sum(totals.values()), totals["watch"], layers


def _narrative_of(check_stdout: str) -> str:
    """The reduction narrative ``check`` printed under its one-line
    system summary (``watch`` prints the same narrative)."""
    return check_stdout.split("\n", 1)[1].rstrip("\n")


# ----------------------------------------------------------------------
# chaos-grid
# ----------------------------------------------------------------------
def descendants() -> List[int]:
    """Live descendant processes of this one (Linux ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[0] != "Z":
            children.setdefault(int(fields[1]), []).append(int(entry))
    out: List[int] = []
    todo = [os.getpid()]
    while todo:
        for child in children.get(todo.pop(), []):
            out.append(child)
            todo.append(child)
    return out


def orphan_guard(tally: Tally, grace: float = 2.0) -> None:
    """Fail the run when child processes outlive the command that
    started them; then kill and reap them so none outlives the run."""
    deadline = time.monotonic() + grace
    alive = descendants()
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = descendants()
    tally.check(not alive, f"{len(alive)} process(es) outlived chaos")
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in alive:
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass


class ChaosWorkload:
    """``chaos --workers 2`` on stack3, 4 protocols x 4 seeds, at each
    transactions-per-client size of the sweep.

    The cells run in the worker processes, and the burst in this
    process does not track their speed: over 40 commands, burst and
    command time correlated at 0.2-0.4, and burst-scaled times spread
    more than raw ones.  A pass is scaled by the parallel bursts before
    and after it instead (see :mod:`pb.calibration`)."""

    WORKERS = 2

    def __init__(self, items: List[Item], work: Path, tally: Tally, seed: int):
        self.items = items
        self.work = work
        self.tally = tally
        self.seed = seed
        self.passes = 0
        self.probe: Optional[float] = None
        self.outputs: Dict[Tuple[int, int], str] = {}

    def base(self) -> int:
        """First chaos seed of this pass's grid: pass k runs grid
        k mod CHAOS_GRIDS, whose seeds no other grid shares."""
        return self.seed * 1000 + 100 * (self.passes % inputs.CHAOS_GRIDS)

    def argv(self, item: Item) -> List[str]:
        return [
            "chaos", "--topology", "stack", "--depth", "3",
            "--protocols", ",".join(inputs.CHAOS_PROTOCOLS),
            "--runs", str(inputs.CHAOS_SEEDS), "--seed", str(self.base()),
            "--clients", "3", "--transactions", str(item.roots // 3),
            "--workers", str(self.WORKERS), "--strict",
        ]

    @staticmethod
    def cells() -> int:
        return len(inputs.CHAOS_PROTOCOLS) * inputs.CHAOS_SEEDS

    def invoke(self, item: Item, extra: Tuple[str, ...] = ()) -> Tuple[float, str]:
        code, out, seconds = run_cli(self.argv(item) + list(extra))
        orphan_guard(self.tally)
        # exit 2: cc or s2pl committed a non-Comp-C execution, which the
        # protocols rule out; exit 1: quarantined cells.  Either fails
        # every cell of the grid.
        for _ in range(self.cells()):
            self.tally.check(code == 0, f"chaos {item.roots // 3} txns: exit {code}")
        first = self.outputs.setdefault((item.roots, self.base()), out)
        self.tally.check(first == out, "chaos output differs between passes")
        return seconds, out

    def run_pass(self) -> Pass:
        latencies = []
        out_bytes = 0
        times: Dict[Key, float] = {}
        before = self.probe or parallel_burst(self.WORKERS)
        for item in self.items:
            key = ("stack3", item.roots, "chaos")
            times[key], out = self.invoke(item)
            latencies.append(times[key])
            out_bytes += len(out)
        self.probe = parallel_burst(self.WORKERS)
        self.passes += 1
        scale = factor(before, self.probe, reference=PARALLEL_REFERENCE_S)
        scales = dict.fromkeys(times, scale)
        latencies = [seconds * scale for seconds in latencies]
        return Pass(times, scales, self.cells() * len(self.items), latencies, out_bytes)

    def traced_pass(self, tracer: Tracer) -> Tuple[float, float, Dict[str, float]]:
        totals: Dict[str, float] = defaultdict(float)
        path = self.work / "chaos-telemetry.jsonl"
        start = time.perf_counter()
        for item in self.items:
            with tracer.span("analysis.batch"):
                seconds, _ = self.invoke(item, ("--telemetry-out", str(path)))
            totals["wall"] += seconds
            for key, value in worker_layers(path).items():
                totals[key] += value
        wall = time.perf_counter() - start
        self.passes += 1
        layers = {
            "simulator.run_s": totals["sim.run"],
            "simulator.commit_ratio": totals["sim.commit"] / totals["sim.attempt"],
            "lint.system_s": totals["lint"],
            "lint.systems_per_s": totals["lint.systems"] / totals["lint"],
            "core.reduction.s": totals["reduce.level"],
            "analysis.batch.efficiency": totals["batch.task"]
            / (self.WORKERS * totals["wall"]),
            # the executor ships only a task's final attempt, so a retry
            # shows here only as a task reported more than once
            "analysis.batch.retries": totals["batch.tasks"]
            - self.cells() * len(self.items),
        }
        return wall, wall, layers


def worker_layers(path: Path) -> Dict[str, float]:
    """Fold the chaos command's own telemetry (the per-task streams the
    workers ship back) into per-layer busy seconds and counters."""
    out: Dict[str, float] = defaultdict(float)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            name, kind, stream = record["name"], record["kind"], record["stream"]
            if stream == "main":
                continue
            if kind == "exit":
                if name in ("sim.run", "reduce.level", "batch.task"):
                    out[name] += record["dur_s"]
                    out["batch.tasks"] += name == "batch.task"
                elif name.startswith("lint.") and record["depth"] == 1:
                    out["lint"] += record["dur_s"]
                    out["lint.systems"] += name == "lint.prove"
            elif kind == "counter" and name in ("sim.attempt", "sim.commit"):
                out[name] += record["fields"].get("value", 1)
    return out
