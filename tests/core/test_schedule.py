"""Unit tests for Def.-3 schedules: construction, axioms, CC."""

import pytest

from repro.core.orders import Relation
from repro.core.schedule import ConflictIndex, Schedule
from repro.core.transaction import Transaction
from repro.exceptions import CycleError, ModelError, ScheduleAxiomError


def t(name, ops, **kw):
    return Transaction(name, ops, **kw)


class TestConstruction:
    def test_basic(self):
        s = Schedule("S", [t("T1", ["a"]), t("T2", ["b"])])
        assert set(s.operations) == {"a", "b"}
        assert s.transaction_of("a") == "T1"
        assert s.transaction_names == ("T1", "T2")

    def test_duplicate_transaction_rejected(self):
        with pytest.raises(ModelError):
            Schedule("S", [t("T", ["a"]), t("T", ["b"])])

    def test_shared_operation_rejected(self):
        with pytest.raises(ModelError):
            Schedule("S", [t("T1", ["a"]), t("T2", ["a"])])

    def test_conflict_on_foreign_op_rejected(self):
        with pytest.raises(ModelError):
            Schedule("S", [t("T1", ["a"])], conflicts=[("a", "zzz")])

    def test_self_conflict_rejected(self):
        with pytest.raises(ModelError):
            Schedule("S", [t("T1", ["a"])], conflicts=[("a", "a")])

    def test_input_order_over_unknown_txn_rejected(self):
        with pytest.raises(ModelError):
            Schedule("S", [t("T1", ["a"])], weak_input=[("T1", "T9")])

    def test_output_order_over_unknown_op_rejected(self):
        with pytest.raises(ModelError):
            Schedule("S", [t("T1", ["a"])], weak_output=[("a", "zzz")])

    def test_cyclic_input_rejected(self):
        with pytest.raises(CycleError):
            Schedule(
                "S",
                [t("T1", ["a"]), t("T2", ["b"])],
                weak_input=[("T1", "T2"), ("T2", "T1")],
            )

    def test_cyclic_output_rejected(self):
        with pytest.raises(CycleError):
            Schedule(
                "S",
                [t("T1", ["a"]), t("T2", ["b"])],
                weak_output=[("a", "b"), ("b", "a")],
            )

    def test_transaction_of_unknown_raises(self):
        s = Schedule("S", [t("T1", ["a"])])
        with pytest.raises(ModelError):
            s.transaction_of("zzz")

    def test_conflicting_is_symmetric(self):
        s = Schedule(
            "S",
            [t("T1", ["a"]), t("T2", ["b"])],
            conflicts=[("a", "b")],
            weak_output=[("a", "b")],
        )
        assert s.conflicting("a", "b")
        assert s.conflicting("b", "a")
        assert not s.conflicting("a", "a")

    def test_strong_input_included_in_weak_input(self):
        s = Schedule(
            "S",
            [t("T1", ["a"]), t("T2", ["b"])],
            strong_input=[("T1", "T2")],
            strong_output=[("a", "b")],
        )
        assert ("T1", "T2") in s.weak_input
        assert ("a", "b") in s.weak_output


class TestAxioms:
    def test_axiom_1a(self):
        with pytest.raises(ScheduleAxiomError) as err:
            Schedule(
                "S",
                [t("T1", ["a"]), t("T2", ["b"])],
                conflicts=[("a", "b")],
                weak_input=[("T1", "T2")],
                weak_output=[("b", "a")],
            )
        assert err.value.axiom == "1a"

    def test_axiom_1b(self):
        with pytest.raises(ScheduleAxiomError) as err:
            Schedule(
                "S",
                [t("T1", ["a"]), t("T2", ["b"])],
                conflicts=[("a", "b")],
                weak_input=[("T2", "T1")],
                weak_output=[("a", "b")],
            )
        assert err.value.axiom == "1b"

    def test_axiom_1c_conflicting_ops_must_be_ordered(self):
        with pytest.raises(ScheduleAxiomError) as err:
            Schedule(
                "S",
                [t("T1", ["a"]), t("T2", ["b"])],
                conflicts=[("a", "b")],
            )
        assert err.value.axiom == "1c"

    def test_axiom_1_skips_same_transaction_conflicts(self):
        # Conflicting operations inside one transaction are that
        # transaction's own business (Def. 3 quantifies over t != t').
        Schedule("S", [t("T1", ["a", "b"])], conflicts=[("a", "b")])

    def test_axiom_2a_intra_weak_order_must_surface(self):
        with pytest.raises(ScheduleAxiomError) as err:
            Schedule("S", [t("T1", ["a", "b"], weak_order=[("a", "b")])])
        assert err.value.axiom == "2a"

    def test_axiom_2b_intra_strong_order_must_surface(self):
        with pytest.raises(ScheduleAxiomError) as err:
            Schedule(
                "S",
                [t("T1", ["a", "b"], strong_order=[("a", "b")])],
                weak_output=[("a", "b")],
            )
        assert err.value.axiom == "2b"

    def test_axiom_3_strong_input_sequences_everything(self):
        with pytest.raises(ScheduleAxiomError) as err:
            Schedule(
                "S",
                [t("T1", ["a"]), t("T2", ["b"])],
                strong_input=[("T1", "T2")],
                weak_output=[("a", "b")],
            )
        assert err.value.axiom == "3"

    def test_valid_schedule_passes_all_axioms(self):
        Schedule(
            "S",
            [
                t("T1", ["a", "b"], weak_order=[("a", "b")]),
                t("T2", ["c"]),
            ],
            conflicts=[("b", "c")],
            weak_input=[("T1", "T2")],
            weak_output=[("a", "b"), ("b", "c")],
        )

    def test_validation_can_be_deferred(self):
        s = Schedule(
            "S",
            [t("T1", ["a"]), t("T2", ["b"])],
            conflicts=[("a", "b")],
            validate=False,
        )
        with pytest.raises(ScheduleAxiomError):
            s.validate_axioms()


class TestFromSequence:
    def test_conflicts_mode_commits_only_conflicting_pairs(self):
        s = Schedule.from_sequence(
            "S",
            [t("T1", ["a"]), t("T2", ["b"]), t("T3", ["c"])],
            ["a", "b", "c"],
            conflicts=[("a", "b")],
        )
        assert ("a", "b") in s.weak_output
        assert ("b", "c") not in s.weak_output
        assert ("a", "c") not in s.weak_output

    def test_temporal_mode_commits_everything(self):
        s = Schedule.from_sequence(
            "S",
            [t("T1", ["a"]), t("T2", ["b"])],
            ["a", "b"],
            mode="temporal",
        )
        assert ("a", "b") in s.weak_output

    def test_unknown_mode_rejected(self):
        with pytest.raises(ModelError):
            Schedule.from_sequence("S", [t("T1", ["a"])], ["a"], mode="nope")

    def test_sequence_must_cover_operations(self):
        with pytest.raises(ModelError):
            Schedule.from_sequence("S", [t("T1", ["a", "b"])], ["a"])
        with pytest.raises(ModelError):
            Schedule.from_sequence("S", [t("T1", ["a"])], ["a", "zzz"])

    def test_intra_orders_always_surface(self):
        s = Schedule.from_sequence(
            "S",
            [t("T1", ["a", "b"], weak_order=[("a", "b")])],
            ["a", "b"],
        )
        assert ("a", "b") in s.weak_output

    def test_strong_input_expanded(self):
        s = Schedule.from_sequence(
            "S",
            [t("T1", ["a"]), t("T2", ["b"])],
            ["a", "b"],
            strong_input=[("T1", "T2")],
        )
        assert ("a", "b") in s.strong_output

    def test_conflict_outside_execution_rejected(self):
        with pytest.raises(ModelError):
            Schedule.from_sequence(
                "S", [t("T1", ["a"])], ["a"], conflicts=[("a", "zzz")]
            )


def closed(elements, pairs=()):
    relation = Relation(elements=elements)
    relation.add_all(pairs)
    return relation.transitive_closure()


def conflict_index(*pairs):
    index = ConflictIndex()
    for a, b in pairs:
        index.add(a, b)
    return index


class TestFromClosed:
    TXNS = [t("T1", ["a", "b"], weak_order=[("a", "b")]), t("T2", ["c"])]

    def adopt(self, conflicts=(), weak_input=(), weak_output=(), **closed_orders):
        orders = dict(
            weak_input=closed(("T1", "T2"), weak_input),
            strong_input=closed(("T1", "T2")),
            weak_output=closed(("a", "b", "c"), weak_output),
            strong_output=closed(("a", "b", "c")),
        )
        orders.update(closed_orders)
        return Schedule.from_closed(
            "S", self.TXNS, conflicts=conflict_index(*conflicts), **orders
        )

    def test_equals_the_constructor(self):
        pairs = [("a", "b"), ("b", "c")]
        built = Schedule(
            "S",
            self.TXNS,
            conflicts=[("b", "c")],
            weak_input=[("T1", "T2")],
            weak_output=pairs,
        )
        adopted = self.adopt(
            conflicts=[("b", "c")], weak_input=[("T1", "T2")], weak_output=pairs
        )
        assert adopted.transaction_names == built.transaction_names
        assert adopted.operations == built.operations
        assert adopted.conflicts == built.conflicts
        for name in ("weak_input", "strong_input", "weak_output", "strong_output"):
            mine, theirs = getattr(adopted, name), getattr(built, name)
            assert mine.elements == theirs.elements
            assert sorted(mine.pairs()) == sorted(theirs.pairs())
        assert adopted.conflicting("c", "b")

    def test_carrier_out_of_declaration_order_rejected(self):
        with pytest.raises(ModelError, match="strong input order"):
            self.adopt(strong_input=closed(("T2", "T1")))
        with pytest.raises(ModelError, match="strong output order"):
            self.adopt(strong_output=closed(("a", "b")))

    def test_conflict_on_foreign_op_rejected(self):
        with pytest.raises(ModelError, match="'zzz'"):
            self.adopt(conflicts=[("a", "zzz")])

    def test_cycle_witness_matches_the_constructor(self):
        cyclic = [("a", "b"), ("b", "c"), ("c", "a")]
        with pytest.raises(CycleError) as built:
            Schedule("S", self.TXNS, weak_output=cyclic, validate=False)
        with pytest.raises(CycleError) as adopted:
            self.adopt(weak_output=cyclic)
        assert str(adopted.value) == str(built.value)
        assert adopted.value.cycle == built.value.cycle

    def test_axioms_are_not_validated(self):
        # T1's intra order a < b is missing from the weak output: axiom
        # 2a, which the constructor validates.
        with pytest.raises(ScheduleAxiomError):
            Schedule("S", self.TXNS)
        self.adopt()


class TestConflictConsistency:
    def make(self, execution, conflicts, weak_input=()):
        return Schedule.from_sequence(
            "S",
            [t("T1", ["a", "b"]), t("T2", ["c"])],
            execution,
            conflicts=conflicts,
            weak_input=weak_input,
        )

    def test_serialization_order(self):
        s = self.make(["a", "c", "b"], [("a", "c"), ("c", "b")])
        order = s.serialization_order()
        assert ("T1", "T2") in order
        assert ("T2", "T1") in order

    def test_non_serializable_interleaving_fails_cc(self):
        s = self.make(["a", "c", "b"], [("a", "c"), ("c", "b")])
        assert not s.is_conflict_consistent()
        assert s.consistency_violation() is not None

    def test_serializable_interleaving_passes_cc(self):
        s = self.make(["a", "b", "c"], [("a", "c"), ("c", "b")])
        assert s.is_conflict_consistent()
        assert s.serializable_total_order().index("T1") == 0

    def test_input_order_violation_fails_cc(self):
        # T2 serialized before T1 although the client required T1 -> T2.
        s = Schedule.from_sequence(
            "S",
            [t("T1", ["a"]), t("T2", ["c"])],
            ["c", "a"],
            conflicts=[("a", "c")],
            weak_input=[("T2", "T1")],
        )
        assert s.is_conflict_consistent()
        bad = Schedule.from_sequence(
            "S",
            [t("T1", ["a"]), t("T2", ["c"])],
            ["c", "a"],
            conflicts=[],
            weak_input=[("T1", "T2")],
        )
        # No conflicts: execution order is free, input order alone decides.
        assert bad.is_conflict_consistent()

    def test_commuting_interleaving_always_cc(self):
        s = self.make(["a", "c", "b"], [])
        assert s.is_conflict_consistent()
