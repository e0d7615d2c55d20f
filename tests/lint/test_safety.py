"""The static safety prover: soundness on 500 generated systems plus
unit tests for the witnesses, the decline path, and the topology pass.

The property at the bottom is the acceptance criterion of the pass: a
static verdict must agree with the full reduction on every generated
system (both the incremental and the from-scratch engine) — a certified
system's reduction succeeds, a refuted one's fails where the witness
says.
"""

from pathlib import Path

import pytest

from repro.core.builder import SystemBuilder
from repro.core.observed import ObservedOrderOptions
from repro.core.reduction import reduce_to_roots
from repro.io import load
from repro.lint import (
    DiagnosticCollector,
    analyze_system_safety,
    analyze_topology_safety,
    prove_static_safety,
)
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    TopologySpec,
    fork_topology,
    join_topology,
    stack_topology,
    tree_topology,
)

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "lint"


def _lost_update_system(executed=("a", "c", "b")):
    b = SystemBuilder()
    b.schedule("S1")
    b.transaction("T1", "S1", ["a", "b"])
    b.transaction("T2", "S1", ["c"])
    b.conflict("S1", "a", "c")
    b.conflict("S1", "c", "b")
    b.executed("S1", list(executed))
    return b.build()


# ----------------------------------------------------------------------
# unit tests
# ----------------------------------------------------------------------


def test_lost_update_shape_is_refuted():
    """Executed a,c,b the recorded orientations close a directed cycle
    and the replay rejects: CERTIFIED_UNSAFE with a witness."""
    report = prove_static_safety(_lost_update_system())
    assert report.refuted
    assert not report.certified
    assert "statically refuted" in report.summary()
    [witness] = report.cycle_witnesses
    assert witness.level == 1  # parallel T1--T2 edges
    assert not witness.forest
    assert witness.orientable is True
    assert report.refutation is not None
    assert report.refutation.level == 1
    assert {e.source for e in report.refutation.cycle_edges} == {"conflict"}
    assert report.refutation.failure["level"] == 1
    # the witness pins the recorded execution it refutes
    assert report.refutation.executions["S1"] == ("a", "c", "b")


def test_lost_update_variant_stays_unknown():
    """Executed a,b,c both conflict pairs record the same direction:
    no directed cycle under the recorded orientations, so the
    multigraph cycle stays an unresolved warning."""
    report = prove_static_safety(_lost_update_system(("a", "b", "c")))
    assert not report.certified and not report.refuted
    assert "potential conflict cycle" in report.summary()
    assert report.refutation is None
    # and the reduction indeed accepts this execution
    assert reduce_to_roots(_lost_update_system(("a", "b", "c"))).succeeded


def test_refuted_system_becomes_ctx310_error():
    collector = DiagnosticCollector()
    analyze_system_safety(collector, _lost_update_system())
    [error] = collector.errors
    assert error.code == "CTX310"
    assert "T1" in error.message and "T2" in error.message
    assert "replay" in error.message
    assert not collector.warnings  # the refuted level is not re-warned


def test_cycle_witness_becomes_ctx301_warning():
    collector = DiagnosticCollector()
    analyze_system_safety(collector, _lost_update_system(("a", "b", "c")))
    assert not collector.has_errors()
    [warning] = collector.warnings
    assert warning.code == "CTX301"
    # the warning names the component cycle and the item pairs behind it
    assert "T1" in warning.message and "T2" in warning.message
    assert "conflict" in warning.message


def test_certified_example_reduces_successfully():
    recorded = load(EXAMPLES / "booking_system.json")
    report = prove_static_safety(recorded.system)
    assert report.certified
    assert report.reason is None
    assert "statically Comp-C" in report.summary()
    assert all(w.forest for w in report.witnesses)
    assert len(report.witnesses) == recorded.system.order + 1
    assert reduce_to_roots(recorded.system).succeeded


def test_report_round_trips_to_dict():
    report = prove_static_safety(_lost_update_system())
    payload = report.to_dict()
    assert payload["certified"] is False
    assert payload["verdict"] == "certified_unsafe"
    assert payload["declined"] is False
    levels = [w["level"] for w in payload["witnesses"]]
    assert levels == sorted(levels)
    cycle = next(w for w in payload["witnesses"] if not w["forest"])
    assert cycle["cycle_nodes"]
    for edge in cycle["cycle_edges"]:
        assert edge["source"] in ("conflict", "input")
        assert len(edge["pair"]) == 2
        assert edge["level"] == cycle["level"]
    refutation = payload["refutation"]
    assert refutation["level"] == 1
    assert refutation["executions"]["S1"] == ["a", "c", "b"]
    assert refutation["failure"]["description"]


def test_safety_edge_describe_is_self_locating():
    """Golden output: every edge names its level, so --explain chains
    read without cross-referencing the surrounding report."""
    report = prove_static_safety(_lost_update_system())
    [witness] = report.cycle_witnesses
    rendered = sorted(e.describe() for e in witness.cycle_edges)
    assert rendered == [
        "L1 S1:conflict(a, c)",
        "L1 S1:conflict(b, c)",
    ]


def test_prover_declines_seed_leaf_order():
    recorded = load(EXAMPLES / "booking_system.json")
    options = ObservedOrderOptions(seed_leaf_order=True)
    report = prove_static_safety(recorded.system, options)
    assert not report.certified
    assert report.declined
    assert "seed_leaf_order" in report.reason
    # the decline is visible as exactly one CTX306 note -- never as an
    # error or warning (notes do not affect exit codes)
    collector = DiagnosticCollector()
    analyze_system_safety(collector, recorded.system, options)
    assert len(collector) == 1
    [note] = collector.notes
    assert note.code == "CTX306"
    assert "seed_leaf_order" in note.message
    assert not collector.errors and not collector.warnings


def test_topology_diamond_warns_tree_does_not():
    diamond = TopologySpec(
        name="diamond",
        levels={"F": 3, "B1": 2, "B2": 2, "J": 1},
        invokes={"F": ["B1", "B2"], "B1": ["J"], "B2": ["J"], "J": []},
        root_schedules=["F"],
    )
    collector = DiagnosticCollector()
    assert not analyze_topology_safety(collector, diamond)
    [warning] = collector.warnings
    assert warning.code == "CTX301"

    collector = DiagnosticCollector()
    assert analyze_topology_safety(collector, stack_topology(3))
    assert len(collector) == 0


# ----------------------------------------------------------------------
# the 500-system agreement property
# ----------------------------------------------------------------------

_SPECS = [
    stack_topology(2),
    stack_topology(3),
    fork_topology(3),
    join_topology(2),
    tree_topology(2, 2),
]


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_precheck_agrees_with_reduction_on_generated_systems(spec):
    """100 seeds per topology (500 systems over the suite): a static
    verdict never contradicts the reduction under either engine — every
    certificate is backed by a successful reduction, every refutation
    by a rejection at the witness's level and stage — and both proved
    populations are non-empty (the property is not vacuous)."""
    certified = 0
    refuted = 0
    for seed in range(100):
        config = WorkloadConfig(
            seed=seed,
            roots=3,
            conflict_probability=(seed % 4) * 0.1,
            intra_order_probability=0.2 if seed % 5 == 0 else 0.0,
        )
        system = generate(spec, config).system
        report = prove_static_safety(system)
        full = reduce_to_roots(system)
        scratch = reduce_to_roots(system, incremental=False)
        assert full.succeeded == scratch.succeeded, (spec.name, seed)
        if report.certified:
            certified += 1
            assert full.succeeded, (spec.name, seed)
        elif report.refuted:
            refuted += 1
            assert full.failure is not None, (spec.name, seed)
            witness = report.refutation.failure
            assert full.failure.level == witness["level"], (spec.name, seed)
            assert full.failure.stage == witness["stage"], (spec.name, seed)
    assert certified > 0, f"no {spec.name} workload was ever certified"
    assert refuted > 0, f"no {spec.name} workload was ever refuted"
