"""Cross-module property-based tests (hypothesis).

These encode the theory-level invariants that tie the packages
together: permissiveness is antitone in declared conflicts, verdicts
survive persistence, perturbation of commuting pairs never flips
Comp-C, and the special-case theorems hold on hypothesis-chosen
instances (independent seeds from the fixed ensembles in
``tests/criteria/test_theorems.py``)."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.correctness import is_composite_correct
from repro.core.reduction import reduce_to_roots
from repro.criteria.fork import is_fcc, is_fork
from repro.criteria.join import is_jcc
from repro.criteria.stack import is_scc
from repro.io import dumps, loads
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    stack_topology,
)


def regenerate_with_extra_conflict(rec, seed):
    """Rebuild the same execution with one additional (randomly chosen)
    conflict declared on some schedule, re-deriving the committed orders
    from the same temporal sequences.

    Returns None when no conflict can be added (or when the enriched
    model is no longer a valid schedule system, which happens when the
    extra conflict makes a previously-free ordering obligation visible).
    """
    import random

    from repro.core.builder import SystemBuilder

    rng = random.Random(seed)
    system = rec.system
    candidates = []
    for name, schedule in system.schedules.items():
        ops = list(schedule.operations)
        for i, a in enumerate(ops):
            for b in ops[i + 1:]:
                if schedule.transaction_of(a) == schedule.transaction_of(b):
                    continue
                if not schedule.conflicting(a, b):
                    candidates.append((name, a, b))
    if not candidates:
        return None
    extra = rng.choice(candidates)
    builder = SystemBuilder()
    for name, schedule in system.schedules.items():
        for tname, txn in schedule.transactions.items():
            builder.transaction(
                tname,
                name,
                list(txn.operations),
                weak_order=list(txn.weak_order.pairs()),
                strong_order=list(txn.strong_order.pairs()),
            )
        for pair in schedule.conflicts:
            a, b = sorted(pair)
            builder.conflict(name, a, b)
    builder.conflict(extra[0], extra[1], extra[2])
    for name, sequence in rec.executions.items():
        builder.executed(name, list(sequence))
    try:
        return builder.build()
    except Exception:
        return None  # enriched model no longer axiom-valid: skip


@given(seed=st.integers(0, 300), cp=st.sampled_from([0.05, 0.15, 0.3]))
@settings(max_examples=50, deadline=None)
def test_declaring_more_conflicts_never_repairs_an_execution(seed, cp):
    rec = generate(
        stack_topology(2),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=cp),
    )
    base = is_composite_correct(rec.system)
    enriched = regenerate_with_extra_conflict(rec, seed)
    if enriched is None:
        return
    richer = is_composite_correct(enriched)
    # Antitone permissiveness: an extra declared conflict can only break
    # correctness, never restore it.
    assert not (richer and not base)


@given(seed=st.integers(0, 500))
@settings(max_examples=40, deadline=None)
def test_verdict_survives_json_round_trip(seed):
    rec = generate(
        fork_topology(2),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=0.2),
    )
    direct = is_composite_correct(rec.system)
    assert is_composite_correct(loads(dumps(rec)).system) == direct


@given(seed=st.integers(0, 500), swaps=st.integers(1, 40))
@settings(max_examples=40, deadline=None)
def test_commuting_perturbations_preserve_comp_c(seed, swaps):
    rec = generate(
        join_topology(2),
        WorkloadConfig(
            seed=seed,
            roots=3,
            conflict_probability=0.35,
            layout="perturbed",
            perturbation_swaps=swaps,
        ),
    )
    assert is_composite_correct(rec.system)


@given(seed=st.integers(0, 1000), cp=st.sampled_from([0.05, 0.2, 0.4]))
@settings(max_examples=60, deadline=None)
def test_theorem2_on_hypothesis_instances(seed, cp):
    rec = generate(
        stack_topology(2),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=cp),
    )
    assert is_scc(rec.system) == is_composite_correct(rec.system)


@given(seed=st.integers(0, 1000), cp=st.sampled_from([0.05, 0.2, 0.4]))
@settings(max_examples=60, deadline=None)
def test_theorem3_on_hypothesis_instances(seed, cp):
    rec = generate(
        fork_topology(3),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=cp),
    )
    # Def. 23.3: a caller conflict across branches makes it no fork
    assume(is_fork(rec.system))
    assert is_fcc(rec.system) == is_composite_correct(rec.system)


@given(seed=st.integers(0, 1000), cp=st.sampled_from([0.05, 0.2, 0.4]))
@settings(max_examples=60, deadline=None)
def test_theorem4_on_hypothesis_instances(seed, cp):
    rec = generate(
        join_topology(3),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=cp),
    )
    assert is_jcc(rec.system) == is_composite_correct(rec.system)


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_observed_order_is_transitively_closed_in_every_front(seed):
    rec = generate(
        stack_topology(3),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=0.15),
    )
    result = reduce_to_roots(rec.system)
    for front in result.fronts:
        assert front.observed.is_transitive()


@given(seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_rejection_is_deterministic(seed):
    rec = generate(
        stack_topology(2),
        WorkloadConfig(seed=seed, roots=4, conflict_probability=0.3),
    )
    first = reduce_to_roots(rec.system)
    second = reduce_to_roots(rec.system)
    assert first.succeeded == second.succeeded
    if not first.succeeded:
        assert first.failure.cycle == second.failure.cycle
        assert first.failure.level == second.failure.level
