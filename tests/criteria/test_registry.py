"""Unit tests for the criterion registry / classifier."""

from repro.criteria.registry import (
    CRITERIA_ORDER,
    RecordedExecution,
    applicable_criteria,
    classify,
)
from repro.figures import figure1_system
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    stack_topology,
)


def make(spec, layout="random", seed=0):
    return generate(
        spec,
        WorkloadConfig(
            seed=seed, roots=3, conflict_probability=0.25, layout=layout
        ),
    )


class TestApplicability:
    def test_stack(self):
        # Depth 3: a 2-level stack is also a degenerate 1-branch fork.
        rec = make(stack_topology(3))
        names = applicable_criteria(rec.system)
        assert "scc" in names and "llsr" in names and "comp_c" in names
        assert "fcc" not in names

    def test_two_level_stack_is_also_a_degenerate_fork_and_join(self):
        rec = make(stack_topology(2))
        names = applicable_criteria(rec.system)
        assert {"scc", "fcc", "jcc"} <= set(names)

    def test_fork(self):
        # seed 1 draws no caller conflict across branches (Def. 23.3);
        # seed 0 draws three and is no fork
        assert "fcc" in applicable_criteria(make(fork_topology(2), seed=1).system)
        assert "fcc" not in applicable_criteria(make(fork_topology(2)).system)

    def test_join(self):
        rec = make(join_topology(2))
        assert "jcc" in applicable_criteria(rec.system)

    def test_general_configuration(self):
        # serial/opsr/comp_c apply everywhere; structural criteria don't.
        names = applicable_criteria(figure1_system())
        assert names == ("serial", "opsr", "comp_c")

    def test_order_matches_criteria_order(self):
        rec = make(stack_topology(2))
        names = applicable_criteria(rec.system)
        assert names == tuple(n for n in CRITERIA_ORDER if n in names)
        assert {"serial", "opsr"} <= set(names)


class TestClassify:
    def test_stack_verdicts_present(self):
        rec = make(stack_topology(3))
        verdicts = classify(rec)
        assert verdicts["scc"] is not None
        assert verdicts["fcc"] is None
        assert isinstance(verdicts["comp_c"], bool)

    def test_serial_layout_flag(self):
        serial = make(stack_topology(2), layout="serial")
        assert serial.is_serial_layout()
        assert classify(serial)["serial"] is True

    def test_random_layout_usually_not_serial(self):
        found_nonserial = any(
            not make(stack_topology(2), seed=seed).is_serial_layout()
            for seed in range(10)
        )
        assert found_nonserial

    def test_criteria_order_covers_everything(self):
        rec = make(stack_topology(2))
        verdicts = classify(rec)
        assert set(verdicts) == set(CRITERIA_ORDER)

    def test_no_executions_means_no_layout_verdicts(self):
        rec = make(stack_topology(2))
        bare = RecordedExecution(system=rec.system, executions={})
        verdicts = classify(bare)
        assert verdicts["serial"] is None
        assert verdicts["opsr"] is None
