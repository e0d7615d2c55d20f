"""Protocol evaluation via simulation (the P1 artifact).

Sweeps the discrete-event simulator over protocols, topologies and
multiprogramming levels, measuring the performance/correctness
trade-off the paper's introduction motivates: uncoordinated classical
schedulers are fast but commit non-Comp-C executions as soon as
composite transactions interfere through shared components, while the
composite-aware protocols pay aborts (CC) or blocking (strict 2PL) for
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.batch import run_batch
from repro.core.correctness import is_composite_correct
from repro.simulator.engine import Simulation, SimulationConfig, simulate
from repro.simulator.faults import random_fault_plan
from repro.simulator.programs import ProgramConfig
from repro.simulator.retry import RetryPolicy, make_retry_policy
from repro.workloads.topologies import TopologySpec


@dataclass
class ProtocolPoint:
    """One (protocol, topology, clients) measurement, seed-averaged."""

    protocol: str
    topology: str
    clients: int
    runs: int
    throughput: float
    abort_rate: float
    mean_response_time: float
    comp_c_runs: int  # runs whose committed execution was Comp-C

    @property
    def comp_c_rate(self) -> float:
        return self.comp_c_runs / self.runs if self.runs else 0.0


@dataclass
class ProtocolRun:
    """One seeded simulator run of a P1 cell — the picklable unit the
    batch runner ships between processes."""

    throughput: float
    abort_rate: float
    mean_response_time: float
    comp_c: bool


def protocol_run_task(task: Tuple) -> ProtocolRun:
    """Batch worker: one ``(topology, protocol, clients, seed, kw)``
    P1 cell run."""
    topology, protocol, clients, seed, kw = task
    result = simulate(
        SimulationConfig(
            topology=topology,
            protocol=protocol,
            clients=clients,
            transactions_per_client=kw["transactions_per_client"],
            seed=seed,
            program=kw["program"],
            deadlock_timeout=kw["deadlock_timeout"],
        )
    )
    return ProtocolRun(
        throughput=result.metrics.throughput,
        abort_rate=result.metrics.abort_rate,
        mean_response_time=result.metrics.mean_response_time,
        comp_c=result.assembled is not None
        and is_composite_correct(result.assembled.recorded.system),
    )


def merge_protocol_runs(
    topology_name: str,
    protocol: str,
    clients: int,
    runs: Sequence[ProtocolRun],
) -> ProtocolPoint:
    """Fold seed runs into one :class:`ProtocolPoint`.

    Accumulates in the order given — pass runs in seed order and the
    float sums match the historical serial loop bit for bit."""
    throughput = abort_rate = response = 0.0
    comp_c_runs = 0
    for run in runs:
        throughput += run.throughput
        abort_rate += run.abort_rate
        response += run.mean_response_time
        if run.comp_c:
            comp_c_runs += 1
    n = len(runs)
    return ProtocolPoint(
        protocol=protocol,
        topology=topology_name,
        clients=clients,
        runs=n,
        throughput=throughput / n,
        abort_rate=abort_rate / n,
        mean_response_time=response / n,
        comp_c_runs=comp_c_runs,
    )


def evaluate_protocol(
    topology: TopologySpec,
    protocol: str,
    *,
    clients: int = 4,
    transactions_per_client: int = 8,
    seeds: Sequence[int] = (0, 1, 2),
    program: Optional[ProgramConfig] = None,
    deadlock_timeout: float = 60.0,
    workers: int = 1,
) -> ProtocolPoint:
    """Average one protocol/topology/MPL cell over seeds."""
    program = program or ProgramConfig(items_per_component=4, item_skew=0.8)
    kw = {
        "transactions_per_client": transactions_per_client,
        "program": program,
        "deadlock_timeout": deadlock_timeout,
    }
    runs = run_batch(
        [(topology, protocol, clients, seed, kw) for seed in seeds],
        protocol_run_task,
        workers=workers,
    )
    return merge_protocol_runs(topology.name, protocol, clients, runs)


@dataclass
class ChaosPoint:
    """One (protocol, topology, fault intensity) cell, seed-aggregated.

    The R1 experiment's unit of measurement: liveness numbers
    (availability, throughput, give-ups, wasted work) next to the
    safety verdict (how many committed executions were Comp-C)."""

    protocol: str
    topology: str
    intensity: float
    runs: int
    commits: int
    gave_up: int
    throughput: float
    abort_rate: float
    availability: float
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    faults_injected: Dict[str, int] = field(default_factory=dict)
    discarded_operations: int = 0
    assembled_runs: int = 0  # runs that committed anything at all
    comp_c_runs: int = 0  # assembled runs judged Comp-C
    #: lint findings over the assembled executions, ``code -> count``
    #: (typically CTX301: the committed system's static shape admits a
    #: conflict cycle even when the actual execution was Comp-C)
    lint_codes: Dict[str, int] = field(default_factory=dict)
    #: static safety verdicts over the assembled executions,
    #: ``verdict -> runs`` (certified_safe / certified_unsafe / unknown)
    safety_verdicts: Dict[str, int] = field(default_factory=dict)

    @property
    def comp_c_rate(self) -> float:
        """Comp-C verdicts per assembled run (1.0 when nothing ever
        committed — an execution with no commits is vacuously safe)."""
        if self.assembled_runs == 0:
            return 1.0
        return self.comp_c_runs / self.assembled_runs

    def abort_breakdown(self) -> str:
        if not self.aborts_by_reason:
            return "-"
        return " ".join(
            f"{reason}:{count}"
            for reason, count in sorted(self.aborts_by_reason.items())
        )

    def lint_breakdown(self) -> str:
        """Compact ``code:count`` rendering, stable order."""
        if not self.lint_codes:
            return "-"
        return " ".join(
            f"{code}:{count}"
            for code, count in sorted(self.lint_codes.items())
        )

    def verdict_breakdown(self) -> str:
        """Compact ``verdict:count`` rendering, stable order (the
        shortened verdict names keep the chaos table narrow)."""
        if not self.safety_verdicts:
            return "-"
        short = {
            "certified_safe": "safe",
            "certified_unsafe": "unsafe",
            "unknown": "unknown",
        }
        return " ".join(
            f"{short.get(verdict, verdict)}:{count}"
            for verdict, count in sorted(self.safety_verdicts.items())
        )


@dataclass
class ChaosRun:
    """One seeded chaos run — the picklable per-task record whose
    fields mirror exactly what the (historical) serial accumulation
    loop read off the simulator."""

    commits: int
    gave_up: int
    throughput: float
    abort_rate: float
    availability: float
    discarded_operations: int
    aborts_by_reason: Dict[str, int]
    faults_injected: Dict[str, int]
    assembled: bool
    comp_c: bool
    #: lint ``code -> count`` over the assembled execution (empty when
    #: nothing committed); a plain dict so the record stays picklable
    lint_codes: Dict[str, int] = field(default_factory=dict)
    #: the static safety verdict of the assembled execution (one-entry
    #: ``verdict -> 1`` map, empty when nothing committed)
    safety_verdicts: Dict[str, int] = field(default_factory=dict)


def chaos_run(
    topology: TopologySpec,
    protocol: str,
    seed: int,
    *,
    intensity: float = 1.0,
    clients: int = 3,
    transactions_per_client: int = 5,
    program: Optional[ProgramConfig] = None,
    retry_policy: Union[str, RetryPolicy] = "exponential",
    max_attempts: int = 10,
    horizon: float = 120.0,
    **plan_kw,
) -> ChaosRun:
    """One seeded chaos run of ``protocol`` under a random fault plan,
    with the committed execution re-checked by the Comp-C reduction.

    A *named* retry policy is instantiated **seeded** with this cell's
    ``seed`` (the seeding contract of :mod:`repro.simulator.retry`):
    retry jitter then depends only on the cell, not on how many other
    cells shared the worker's engine stream, so a grid sharded or
    resumed at any granularity reproduces the same runs.  Pass a
    :class:`RetryPolicy` instance to control seeding yourself.  The
    default is seeded full-jitter exponential backoff — under fault
    storms it spreads synchronized retry herds apart where the legacy
    linear policy let them collide (``repro chaos --retry-policy
    linear`` restores the old behaviour).
    """
    program = program or ProgramConfig(items_per_component=4, item_skew=0.8)
    if isinstance(retry_policy, str):
        # base=3.0 mirrors SimulationConfig.retry_backoff's default
        retry_policy = make_retry_policy(retry_policy, base=3.0, seed=seed)
    plan = random_fault_plan(
        topology.schedule_names,
        seed=seed,
        intensity=intensity,
        horizon=horizon,
        **plan_kw,
    )
    sim = Simulation(
        SimulationConfig(
            topology=topology,
            protocol=protocol,
            clients=clients,
            transactions_per_client=transactions_per_client,
            seed=seed,
            program=program,
            retry_policy=retry_policy,
            max_attempts=max_attempts,
            faults=plan if not plan.empty else None,
        )
    )
    result = sim.run()
    metrics = result.metrics
    assembled = result.assembled is not None
    comp_c = False
    lint_codes: Dict[str, int] = {}
    safety_verdicts: Dict[str, int] = {}
    if assembled:
        # Imported here so the multiprocessing workers only pay for the
        # lint stack when a run actually committed something.
        from repro.lint import lint_system

        system = result.assembled.recorded.system
        comp_c = is_composite_correct(system)
        lint_report = lint_system(system)
        lint_codes = lint_report.collector.counts()
        if lint_report.safety is not None:
            safety_verdicts = {str(lint_report.safety.verdict): 1}
    return ChaosRun(
        commits=metrics.commits,
        gave_up=metrics.gave_up,
        throughput=metrics.throughput,
        abort_rate=metrics.abort_rate,
        availability=metrics.availability,
        discarded_operations=sim.recorder.discarded_operations,
        aborts_by_reason=dict(metrics.aborts_by_reason),
        faults_injected=dict(metrics.faults_injected),
        assembled=assembled,
        comp_c=comp_c,
        lint_codes=lint_codes,
        safety_verdicts=safety_verdicts,
    )


def chaos_run_task(task: Tuple) -> ChaosRun:
    """Batch worker: unpack one ``(topology, protocol, seed, kw)``
    grid cell (see :func:`repro.analysis.batch.chaos_grid`)."""
    topology, protocol, seed, kw = task
    return chaos_run(topology, protocol, seed, **kw)


def merge_chaos_runs(
    topology_name: str,
    protocol: str,
    intensity: float,
    runs: Sequence[ChaosRun],
) -> ChaosPoint:
    """Fold seed runs into one :class:`ChaosPoint`.

    Replicates the historical serial loop's accumulation order —
    sums first, averages once at the end — so the result is
    bit-identical whether the runs were computed serially or by the
    batch runner (which returns them in seed order)."""
    point = ChaosPoint(
        protocol=protocol,
        topology=topology_name,
        intensity=intensity,
        runs=0,
        commits=0,
        gave_up=0,
        throughput=0.0,
        abort_rate=0.0,
        availability=0.0,
    )
    for run in runs:
        point.runs += 1
        point.commits += run.commits
        point.gave_up += run.gave_up
        point.throughput += run.throughput
        point.abort_rate += run.abort_rate
        point.availability += run.availability
        point.discarded_operations += run.discarded_operations
        for reason, count in run.aborts_by_reason.items():
            point.aborts_by_reason[reason] = (
                point.aborts_by_reason.get(reason, 0) + count
            )
        for kind, count in run.faults_injected.items():
            point.faults_injected[kind] = (
                point.faults_injected.get(kind, 0) + count
            )
        for code, count in run.lint_codes.items():
            point.lint_codes[code] = point.lint_codes.get(code, 0) + count
        for verdict, count in run.safety_verdicts.items():
            point.safety_verdicts[verdict] = (
                point.safety_verdicts.get(verdict, 0) + count
            )
        if run.assembled:
            point.assembled_runs += 1
            if run.comp_c:
                point.comp_c_runs += 1
    if point.runs:
        point.throughput /= point.runs
        point.abort_rate /= point.runs
        point.availability /= point.runs
    return point


def evaluate_protocol_under_faults(
    topology: TopologySpec,
    protocol: str,
    *,
    intensity: float = 1.0,
    seeds: Sequence[int] = (0, 1, 2),
    clients: int = 3,
    transactions_per_client: int = 5,
    program: Optional[ProgramConfig] = None,
    retry_policy: Union[str, RetryPolicy] = "exponential",
    max_attempts: int = 10,
    horizon: float = 120.0,
    workers: int = 1,
    **plan_kw,
) -> ChaosPoint:
    """One chaos cell: run ``protocol`` under a seeded random fault
    plan (crashes + drops + degradation + transient failures scaled by
    ``intensity``) and re-check every committed execution with the
    Comp-C reduction.  ``plan_kw`` is forwarded to
    :func:`repro.simulator.faults.random_fault_plan`."""
    kw = dict(
        intensity=intensity,
        clients=clients,
        transactions_per_client=transactions_per_client,
        program=program,
        retry_policy=retry_policy,
        max_attempts=max_attempts,
        horizon=horizon,
        **plan_kw,
    )
    runs = run_batch(
        [(topology, protocol, seed, kw) for seed in seeds],
        chaos_run_task,
        workers=workers,
    )
    return merge_chaos_runs(topology.name, protocol, intensity, runs)


def protocol_sweep(
    topologies: Sequence[TopologySpec],
    protocols: Sequence[str] = ("cc", "s2pl", "sgt", "to"),
    *,
    client_levels: Sequence[int] = (1, 2, 4, 8),
    seeds: Sequence[int] = (0, 1, 2),
    transactions_per_client: int = 8,
    program: Optional[ProgramConfig] = None,
    deadlock_timeout: float = 60.0,
    workers: int = 1,
) -> List[ProtocolPoint]:
    """The full P1 grid, every (cell x seed) an independent task."""
    program = program or ProgramConfig(items_per_component=4, item_skew=0.8)
    kw = {
        "transactions_per_client": transactions_per_client,
        "program": program,
        "deadlock_timeout": deadlock_timeout,
    }
    cells = [
        (topology, protocol, clients)
        for topology in topologies
        for protocol in protocols
        for clients in client_levels
    ]
    tasks = [
        (topology, protocol, clients, seed, kw)
        for topology, protocol, clients in cells
        for seed in seeds
    ]
    runs = run_batch(tasks, protocol_run_task, workers=workers)
    per = len(seeds)
    return [
        merge_protocol_runs(
            topology.name, protocol, clients, runs[i * per:(i + 1) * per]
        )
        for i, (topology, protocol, clients) in enumerate(cells)
    ]
