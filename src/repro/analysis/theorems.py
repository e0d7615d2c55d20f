"""Empirical theorem validation (the T1–T4 artifacts).

The paper's results are theorems, not measurements; the reproducible
artifact is *agreement*: on randomized ensembles of the relevant
configurations, the special-case criteria must coincide with Comp-C
instance by instance (Theorems 2–4), and the reduction's verdicts must
be constructively certified in both directions (Theorem 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.analysis.batch import run_batch
from repro.core.certificates import validate_failure_certificate
from repro.core.correctness import is_composite_correct
from repro.core.reduction import reduce_to_roots
from repro.core.serial import verify_theorem1_if_direction
from repro.criteria.fork import is_fcc
from repro.criteria.join import is_jcc
from repro.criteria.stack import is_scc
from repro.criteria.registry import RecordedExecution
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    TopologySpec,
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
)


@dataclass
class AgreementRow:
    """One ensemble point of a theorem-agreement table."""

    label: str
    trials: int
    agreements: int
    accepted: int  # by Comp-C

    @property
    def disagreements(self) -> int:
        return self.trials - self.agreements


def _ensemble_configs(
    *,
    trials: int,
    conflict_rates: Sequence[float],
    roots: int,
    seed: int,
) -> List[WorkloadConfig]:
    """The workload grid behind an ensemble — the picklable half of
    :func:`_ensemble`, shipped to batch workers instead of the
    generated executions themselves."""
    out = []
    per_rate = max(1, trials // len(conflict_rates))
    for rate in conflict_rates:
        for i in range(per_rate):
            out.append(
                WorkloadConfig(
                    seed=seed + i,
                    roots=roots,
                    conflict_probability=rate,
                    layout="random",
                    intra_order_probability=0.25,
                )
            )
    return out


def _ensemble(
    spec: TopologySpec,
    *,
    trials: int,
    conflict_rates: Sequence[float],
    roots: int,
    seed: int,
) -> List[RecordedExecution]:
    return [
        generate(spec, config)
        for config in _ensemble_configs(
            trials=trials, conflict_rates=conflict_rates, roots=roots,
            seed=seed,
        )
    ]


def agreement_task(task: Tuple) -> Optional[Tuple[bool, bool]]:
    """Batch worker: one agreement trial.  Returns (agrees, comp_c), or
    ``None`` when the generated system is outside the criterion's
    domain — e.g. a fork topology whose caller declared a conflict
    across branches, which Def. 23.3 excludes."""
    spec, config, criterion = task
    recorded = generate(spec, config)
    try:
        special = criterion(recorded.system)
    except ValueError:
        return None
    comp = is_composite_correct(recorded.system)
    return special == comp, comp


def agreement_experiment(
    spec: TopologySpec,
    criterion: Callable,
    label: str,
    *,
    trials: int = 80,
    conflict_rates: Sequence[float] = (0.05, 0.15, 0.3, 0.5),
    roots: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> AgreementRow:
    """Comp-C vs one special-case criterion on one configuration.

    ``criterion`` must be a module-level function (``is_scc`` etc.) so
    the trials can be shipped to batch workers when ``workers > 1``.
    Generated systems outside the criterion's domain are not trials."""
    configs = _ensemble_configs(
        trials=trials, conflict_rates=conflict_rates, roots=roots, seed=seed
    )
    results = run_batch(
        [(spec, config, criterion) for config in configs],
        agreement_task,
        workers=workers,
    )
    results = [result for result in results if result is not None]
    agreements = accepted = 0
    for agrees, comp in results:
        if agrees:
            agreements += 1
        if comp:
            accepted += 1
    return AgreementRow(
        label=label,
        trials=len(results),
        agreements=agreements,
        accepted=accepted,
    )


def theorem2_rows(depths: Sequence[int] = (2, 3, 4), **kw) -> List[AgreementRow]:
    rows = []
    for d in depths:
        # Deep stacks compound conflicts across every level, so scale the
        # conflict rates down with depth to keep a mix of verdicts.
        if "conflict_rates" not in kw:
            scale = 2.0 / d
            rates = tuple(min(0.6, r * scale) for r in (0.05, 0.15, 0.3, 0.5))
            row = agreement_experiment(
                stack_topology(d),
                is_scc,
                f"stack depth {d}",
                conflict_rates=rates,
                **kw,
            )
        else:
            row = agreement_experiment(
                stack_topology(d), is_scc, f"stack depth {d}", **kw
            )
        rows.append(row)
    return rows


def theorem3_rows(
    branch_counts: Sequence[int] = (2, 3, 5), **kw
) -> List[AgreementRow]:
    return [
        agreement_experiment(
            fork_topology(n), is_fcc, f"fork x{n}", roots=max(3, n), **kw
        )
        for n in branch_counts
    ]


def theorem4_rows(
    client_counts: Sequence[int] = (2, 3, 5), **kw
) -> List[AgreementRow]:
    return [
        agreement_experiment(
            join_topology(n), is_jcc, f"join x{n}", roots=max(3, n), **kw
        )
        for n in client_counts
    ]


@dataclass
class Theorem1Row:
    """Constructive Theorem-1 validation on one configuration."""

    label: str
    trials: int
    accepted: int
    witnesses_valid: int  # if-direction containment checks that passed
    certificates_valid: int  # only-if-direction certificates that passed

    @property
    def all_valid(self) -> bool:
        rejected = self.trials - self.accepted
        return (
            self.witnesses_valid == self.accepted
            and self.certificates_valid == rejected
        )


def theorem1_task(task: Tuple) -> Tuple[bool, bool, bool]:
    """Batch worker: one constructive Theorem-1 trial.  Returns
    (accepted, witness_valid, certificate_valid)."""
    spec, config = task
    recorded = generate(spec, config)
    result = reduce_to_roots(recorded.system)
    if result.succeeded:
        return True, verify_theorem1_if_direction(result), False
    return False, False, validate_failure_certificate(result)


def theorem1_experiment(
    *,
    trials: int = 60,
    seed: int = 0,
    conflict_rates: Sequence[float] = (0.1, 0.3, 0.5),
    workers: int = 1,
) -> List[Theorem1Row]:
    """Both directions of Theorem 1, constructively, per configuration."""
    # Per-configuration conflict rates: deeper/wider systems compound
    # conflict opportunities, so the rates scale down to keep a mix of
    # accepted and rejected instances in every row.
    specs = [
        ("stack depth 3", stack_topology(3), 3, (0.02, 0.06, 0.15)),
        ("fork x3", fork_topology(3), 3, conflict_rates),
        ("join x3", join_topology(3), 3, conflict_rates),
        ("dag 3x2", random_dag_topology(3, 2, seed=1), 4, (0.02, 0.06, 0.15)),
    ]
    tasks = []
    bounds = []
    for label, spec, roots, rates in specs:
        configs = _ensemble_configs(
            trials=trials, conflict_rates=rates, roots=roots, seed=seed
        )
        bounds.append((label, len(configs)))
        tasks.extend((spec, config) for config in configs)
    results = run_batch(tasks, theorem1_task, workers=workers)
    rows: List[Theorem1Row] = []
    offset = 0
    for label, count in bounds:
        accepted = witnesses = certificates = 0
        for ok, witness, certificate in results[offset:offset + count]:
            if ok:
                accepted += 1
                if witness:
                    witnesses += 1
            elif certificate:
                certificates += 1
        offset += count
        rows.append(
            Theorem1Row(
                label=label,
                trials=count,
                accepted=accepted,
                witnesses_valid=witnesses,
                certificates_valid=certificates,
            )
        )
    return rows
