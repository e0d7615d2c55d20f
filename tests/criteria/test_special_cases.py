"""Unit tests for SCC / FCC / JCC structure recognizers and criteria."""

import pytest

from repro.core.builder import SystemBuilder
from repro.criteria.fork import branch_order_union, fork_parts, is_fcc, is_fork
from repro.criteria.join import ghost_graph, is_jcc, is_join, join_parts
from repro.criteria.stack import is_scc, is_stack, scc_violations, stack_chain
from repro.figures import figure1_system
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    stack_topology,
)


def make(spec, seed=0, cp=0.3, layout="random", roots=3):
    return generate(
        spec,
        WorkloadConfig(
            seed=seed, roots=roots, conflict_probability=cp, layout=layout
        ),
    )


class TestStackRecognition:
    def test_generated_stacks_recognized(self):
        rec = make(stack_topology(3))
        assert is_stack(rec.system)
        chain = stack_chain(rec.system)
        assert chain == ["L3", "L2", "L1"]

    def test_figure1_is_not_a_stack(self):
        assert not is_stack(figure1_system())

    def test_fork_is_not_a_stack(self):
        rec = make(fork_topology(2))
        assert not is_stack(rec.system)

    def test_single_schedule_is_a_stack(self):
        b = SystemBuilder()
        b.transaction("T1", "S", ["a"]).executed("S", ["a"])
        assert is_stack(b.build())

    def test_scc_requires_stack(self):
        with pytest.raises(ValueError):
            is_scc(figure1_system())


class TestSCC:
    def test_serial_stack_is_scc(self):
        rec = make(stack_topology(3), layout="serial")
        assert is_scc(rec.system)
        assert scc_violations(rec.system) == []

    def test_violations_name_schedules(self):
        for seed in range(30):
            rec = make(stack_topology(2), seed=seed, cp=0.4)
            if not is_scc(rec.system):
                assert scc_violations(rec.system)
                return
        pytest.fail("no non-SCC stack found in 30 seeds")


#: the first seed whose fork3 caller declares no conflict across
#: branches (Def. 23.3) under ``make``'s defaults
FORK3_SEED = 7


class TestForkRecognition:
    def test_generated_forks_recognized(self):
        rec = make(fork_topology(3), seed=FORK3_SEED)
        assert is_fork(rec.system)
        top, branches = fork_parts(rec.system)
        assert top == "F"
        assert set(branches) <= {"B1", "B2", "B3"}

    def test_stack_is_not_a_fork(self):
        rec = make(stack_topology(3))
        assert not is_fork(rec.system)

    def test_fcc_requires_fork(self):
        rec = make(stack_topology(3))
        with pytest.raises(ValueError):
            is_fcc(rec.system)

    def test_serial_fork_is_fcc(self):
        rec = make(fork_topology(3), seed=FORK3_SEED, layout="serial")
        assert is_fcc(rec.system)

    def test_branch_order_union_collects_all_branches(self):
        rec = make(fork_topology(3), seed=FORK3_SEED, layout="serial")
        _top, branches = fork_parts(rec.system)
        union = branch_order_union(rec.system, branches)
        per_branch = sum(
            len(
                rec.system.schedule(b)
                .serialization_order()
                .union(rec.system.schedule(b).weak_input)
            )
            for b in branches
        )
        assert len(union) <= per_branch or per_branch == 0


class TestJoinRecognition:
    def test_generated_joins_recognized(self):
        rec = make(join_topology(3))
        assert is_join(rec.system)
        tops, bottom = join_parts(rec.system)
        assert bottom == "J"

    def test_jcc_requires_join(self):
        rec = make(stack_topology(3))
        with pytest.raises(ValueError):
            is_jcc(rec.system)

    def test_serial_join_is_jcc(self):
        rec = make(join_topology(3), layout="serial")
        assert is_jcc(rec.system)

    def test_ghost_graph_relates_cross_client_roots(self):
        # Two clients, conflicting work at the shared server.
        b = SystemBuilder()
        b.transaction("T1", "C1", ["u"])
        b.transaction("T2", "C2", ["v"])
        b.executed("C1", ["u"]).executed("C2", ["v"])
        b.transaction("u", "J", ["x"]).transaction("v", "J", ["y"])
        b.conflict("J", "x", "y")
        b.executed("J", ["x", "y"])
        sys = b.build()
        ghost = ghost_graph(sys, "J")
        assert ("T1", "T2") in ghost

    def test_ghost_graph_skips_same_client_pairs(self):
        b = SystemBuilder()
        b.transaction("T1", "C1", ["u"]).transaction("T2", "C1", ["v"])
        b.executed("C1", ["u", "v"])
        b.transaction("u", "J", ["x"]).transaction("v", "J", ["y"])
        b.conflict("J", "x", "y")
        b.executed("J", ["x", "y"])
        ghost = ghost_graph(b.build(), "J")
        assert len(ghost) == 0

    def test_join_anomaly_detected(self):
        # Classic hidden cycle: two clients, two server transactions each,
        # serialized in opposite directions at the server.
        b = SystemBuilder()
        b.transaction("T1", "C1", ["u1", "u2"])
        b.transaction("T2", "C2", ["v1", "v2"])
        b.executed("C1", ["u1", "u2"]).executed("C2", ["v1", "v2"])
        b.transaction("u1", "J", ["x1"]).transaction("u2", "J", ["x2"])
        b.transaction("v1", "J", ["y1"]).transaction("v2", "J", ["y2"])
        b.conflict("J", "x1", "y1")
        b.conflict("J", "y2", "x2")
        b.executed("J", ["x1", "y1", "y2", "x2"])
        sys = b.build()
        assert is_join(sys)
        assert not is_jcc(sys)
        ghost = ghost_graph(sys, "J")
        assert ("T1", "T2") in ghost and ("T2", "T1") in ghost
