"""Differential tests pinning ``SystemBuilder._propagate`` to the
list-scan fixed point it replaced.

The set-backed worklist must resolve exactly the order sets the old
loop resolved (:mod:`tests.core.list_propagation` keeps it as the
oracle), and ``build`` must hand :class:`Schedule` the same relations.
Pair order inside the collections may differ; the built relations may
not.  Inputs: generated stack, fork, join, tree and DAG systems, both as
declared (executions only, so propagation derives every input order)
and as ``check`` loads them (closed orders spelled out), plus
hand-built systems whose strong inputs cascade axiom-3 expansions down
three and more levels.  The Def. 4.7 validation is pinned the same way:
on systems built without propagation it must report the violations the
pair-by-pair probe reported, in the same order (lint output follows it).
"""

from typing import Dict, List, Tuple

import pytest

from repro.core.builder import SystemBuilder
from repro.core.system import CompositeSystem
from repro.io.text_format import system_to_spec
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    random_dag_topology,
    stack_topology,
    tree_topology,
)
from tests.core.list_propagation import (
    list_scan_build,
    list_scan_resolve,
    probed_violations,
)

KINDS = ("weak_output", "strong_output", "weak_input", "strong_input")

TOPOLOGIES = {
    "stack3": lambda: stack_topology(3),
    "stack4": lambda: stack_topology(4),
    "fork2": lambda: fork_topology(2),
    "fork3": lambda: fork_topology(3),
    "join2": lambda: join_topology(2),
    "tree2x2": lambda: tree_topology(2, 2),
    "dag3x2": lambda: random_dag_topology(3, 2, seed=5),
}


def resolved_sets(builder: SystemBuilder, *, propagate_orders: bool = True):
    resolved = builder._resolve()
    if propagate_orders:
        builder._propagate(resolved)
    return {
        name: {kind: set(orders[kind]) for kind in KINDS}
        for name, orders in resolved.items()
    }


def oracle_sets(builder: SystemBuilder, *, propagate_orders: bool = True):
    resolved = list_scan_resolve(builder, propagate_orders=propagate_orders)
    return {
        name: {kind: set(orders[kind]) for kind in KINDS}
        for name, orders in resolved.items()
    }


def outcome(build, builder: SystemBuilder, **kwargs):
    """The built system, or the (type, message) of what ``build`` raised."""
    try:
        return build(builder, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared against the oracle
        return (type(exc), str(exc))


def assert_same_relations(got: CompositeSystem, want: CompositeSystem) -> None:
    assert list(got.schedules) == list(want.schedules)
    for name, schedule in got.schedules.items():
        reference = want.schedule(name)
        for kind in KINDS:
            relation = getattr(schedule, kind)
            expected = getattr(reference, kind)
            assert relation.elements == expected.elements, (name, kind)
            assert relation == expected, (name, kind)
            assert list(relation.pairs()) == list(expected.pairs()), (name, kind)


def assert_matches_oracle(
    builder: SystemBuilder, *, validate: bool = True, propagate_orders: bool = True
) -> None:
    assert resolved_sets(builder, propagate_orders=propagate_orders) == oracle_sets(
        builder, propagate_orders=propagate_orders
    )
    kwargs = {"validate": validate, "propagate_orders": propagate_orders}
    got = outcome(lambda b, **kw: b.build(**kw), builder, **kwargs)
    want = outcome(list_scan_build, builder, **kwargs)
    if isinstance(want, CompositeSystem):
        assert isinstance(got, CompositeSystem), got
        assert_same_relations(got, want)
    else:
        assert got == want


def declared_builder(recorded, *, strong_intra: bool = False) -> SystemBuilder:
    """Transactions, conflicts and executions only: every input order
    has to come from propagation.  ``strong_intra`` turns each
    intra-transaction order strong, so it cascades as strong inputs."""
    builder = SystemBuilder()
    for name, schedule in recorded.system.schedules.items():
        builder.schedule(name)
        for tname, txn in schedule.transactions.items():
            intra = list(txn.weak_order.pairs())
            builder.transaction(
                tname,
                name,
                list(txn.operations),
                weak_order=[] if strong_intra else intra,
                strong_order=intra if strong_intra else [],
            )
        builder.conflicts(name, [tuple(sorted(p)) for p in schedule.conflicts])
        if name in recorded.executions:
            builder.executed(name, recorded.executions[name])
    return builder


def generated(topology: str, layout: str, seed: int):
    return generate(
        TOPOLOGIES[topology](),
        WorkloadConfig(
            seed=seed,
            roots=3,
            ops_per_transaction=(1, 3),
            conflict_probability=0.4,
            intra_order_probability=0.5,
            layout=layout,
        ),
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("layout", ["serial", "random", "perturbed"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
class TestGeneratedSystems:
    def test_declared(self, topology, layout, seed):
        builder = declared_builder(generated(topology, layout, seed))
        assert_matches_oracle(builder)

    def test_declared_with_strong_intra_orders(self, topology, layout, seed):
        builder = declared_builder(
            generated(topology, layout, seed), strong_intra=True
        )
        assert_matches_oracle(builder, validate=False)

    def test_loaded(self, topology, layout, seed):
        spec = system_to_spec(generated(topology, layout, seed).system)
        assert_matches_oracle(SystemBuilder.from_spec(spec))

    def test_without_propagation(self, topology, layout, seed):
        builder = declared_builder(generated(topology, layout, seed))
        assert_matches_oracle(builder, validate=False, propagate_orders=False)


def cascade_builder(
    depth: int,
    *,
    roots: int = 3,
    fanout: int = 2,
    intra_strong_level: int = 0,
) -> Tuple[SystemBuilder, List[str]]:
    """A serial stack ``S{depth}`` .. ``S1`` whose roots are strongly
    chained (``R0 ->> R1 ->> ...``) at the top.  Axiom 3 turns the chain
    into strong outputs, Def. 4.7 into strong inputs one level down, and
    so on to the leaves.  Consecutive roots' subtrees conflict at every
    level.  A transaction at ``intra_strong_level`` also orders its own
    operations strongly.  Returns the builder and the schedule names,
    top first."""
    builder = SystemBuilder()
    sequences: Dict[int, List[str]] = {level: [] for level in range(1, depth + 1)}
    firsts: Dict[int, List[str]] = {level: [] for level in range(1, depth + 1)}

    def grow(txn: str, level: int, first: bool) -> None:
        ops = [f"{txn}.{i}" for i in range(fanout)]
        strong = [(ops[0], ops[1])] if level == intra_strong_level else []
        builder.transaction(txn, f"S{level}", ops, strong_order=strong)
        for i, op in enumerate(ops):
            sequences[level].append(op)
            if first and i == 0:
                firsts[level].append(op)
            if level > 1:
                grow(op, level - 1, first and i == 0)

    root_names = [f"R{i}" for i in range(roots)]
    for root in root_names:
        grow(root, depth, True)
    for t1, t2 in zip(root_names, root_names[1:]):
        builder.strong_input(f"S{depth}", t1, t2)
    for level in range(1, depth + 1):
        name = f"S{level}"
        for a, b in zip(firsts[level], firsts[level][1:]):
            builder.conflict(name, a, b)
        builder.executed(name, sequences[level])
    return builder, [f"S{level}" for level in range(depth, 0, -1)]


class TestStrongCascades:
    @pytest.mark.parametrize("depth", [3, 4, 5])
    def test_strong_chain_reaches_the_leaves(self, depth):
        builder, names = cascade_builder(depth)
        assert_matches_oracle(builder)
        system = builder.build()
        leaf_schedule = system.schedule(names[-1])
        # The top chain R0 ->> R1 ->> R2 is closed before it is expanded,
        # so R0's leaves precede R2's strongly at the bottom too.
        assert ("R0" + ".0" * (depth - 1), "R2" + ".0" * (depth - 1)) in (
            leaf_schedule.strong_input
        )
        assert len(leaf_schedule.strong_output) > 0

    @pytest.mark.parametrize("depth", [3, 4])
    @pytest.mark.parametrize("roots", [2, 4])
    def test_intra_strong_order_cascades_from_the_middle(self, depth, roots):
        builder, names = cascade_builder(
            depth, roots=roots, intra_strong_level=depth - 1
        )
        assert_matches_oracle(builder)

    def test_fork_of_strong_inputs(self):
        # One caller binds two callees, each of which binds a third level.
        b = SystemBuilder()
        b.transaction("T1", "Top", ["u1", "v1"])
        b.transaction("T2", "Top", ["u2", "v2"])
        b.strong_input("Top", "T1", "T2")
        b.executed("Top", ["u1", "v1", "u2", "v2"])
        for prefix, mid in (("u", "U"), ("v", "V")):
            for i in (1, 2):
                b.transaction(f"{prefix}{i}", mid, [f"{prefix}{i}x", f"{prefix}{i}y"])
                for op in ("x", "y"):
                    b.transaction(f"{prefix}{i}{op}", f"{mid}DB", [f"{prefix}{i}{op}!"])
            b.executed(mid, [f"{prefix}1x", f"{prefix}1y", f"{prefix}2x", f"{prefix}2y"])
            b.executed(
                f"{mid}DB",
                [f"{prefix}1x!", f"{prefix}1y!", f"{prefix}2x!", f"{prefix}2y!"],
            )
        assert_matches_oracle(b)
        system = b.build()
        for mid in ("UDB", "VDB"):
            assert len(system.schedule(mid).strong_input) == 4

    def test_without_propagation(self):
        builder, _ = cascade_builder(4)
        assert_matches_oracle(builder, validate=False, propagate_orders=False)


def reported_violations(system: CompositeSystem):
    return [
        (v.caller, v.callee, v.kind, v.pair, str(v))
        for v in system.iter_order_propagation_violations()
    ]


class TestPropagationValidation:
    @pytest.mark.parametrize("strong_intra", [False, True])
    @pytest.mark.parametrize("layout", ["serial", "perturbed"])
    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_generated_violations_match_the_probe(
        self, topology, layout, strong_intra
    ):
        builder = declared_builder(
            generated(topology, layout, 0), strong_intra=strong_intra
        )
        system = builder.build(validate=False, propagate_orders=False)
        expected = probed_violations(system)
        assert reported_violations(system) == expected
        # Once propagated, nothing is left to report.
        if isinstance(outcome(lambda b, **kw: b.build(**kw), builder), CompositeSystem):
            assert reported_violations(builder.build()) == []

    @pytest.mark.parametrize("depth", [3, 4])
    def test_strong_cascade_violations_match_the_probe(self, depth):
        builder, _ = cascade_builder(depth, intra_strong_level=depth - 1)
        system = builder.build(validate=False, propagate_orders=False)
        expected = probed_violations(system)
        assert {kind for _, _, kind, _, _ in expected} == {"weak", "strong"}
        assert reported_violations(system) == expected
