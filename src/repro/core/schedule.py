"""Schedules (Def. 3 of the paper).

A schedule abstracts one transactional component: the set of
transactions it executed, which of its operations conflict, the weak and
strong *input* orders it was asked to respect (between transactions),
and the weak and strong *output* orders it produced (between
operations).  Def. 3 constrains the outputs:

1. for conflicting operations ``o ∈ O_t``, ``o' ∈ O_t'`` of distinct
   transactions:
   (a) ``t → t'`` implies ``o ≺ o'``;
   (b) ``t' → t`` implies ``o' ≺ o``;
   (c) otherwise they must still be ordered one way or the other;
2. intra-transaction orders are honoured: (a) ``o ≺_t o'`` implies
   ``o ≺ o'`` and (b) ``o ≪_t o'`` implies ``o ≪ o'``;
3. a strong input order ``t ↠ t'`` sequences *every* operation pair
   across the two transactions strongly;
4. ``≪ ⊆ ≺``.

The key subtlety (and the source of the extra parallelism the model
offers): *weak orders propagate only through conflicts*.  A schedule
that knows two operations commute may execute them in either order no
matter how their parent transactions were weakly ordered.

A ``Schedule`` records one concrete (already happened or simulated)
behaviour; it is the static input to the Comp-C checker.
"""

from __future__ import annotations

from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.orders import Relation
from repro.core.transaction import Transaction
from repro.exceptions import CycleError, ModelError, ScheduleAxiomError

# Shared empty adjacency row for operations with no declared conflicts.
_NO_NEIGHBOURS: FrozenSet[str] = frozenset()

ConflictPair = FrozenSet[str]

#: Callback used by :func:`_normalize_conflicts` to report a defective
#: pair: ``(issue, (a, b))`` where ``issue`` is ``"self-conflict"`` or
#: ``"duplicate"``.
ConflictIssueHandler = Callable[[str, Tuple[str, str]], None]


def _normalize_conflicts(
    pairs: Iterable[Tuple[str, str]],
    on_issue: Optional[ConflictIssueHandler] = None,
) -> Set[ConflictPair]:
    """Normalize a conflict declaration into a set of unordered pairs.

    Without ``on_issue`` (the engine's construction path) the first
    self-conflicting pair raises :class:`ModelError` and duplicates are
    silently collapsed.  With ``on_issue`` (the lint path) *every*
    self-conflicting and duplicate pair is reported through the callback
    in one pass — the collector decides what to do with them — and the
    usable pairs are still returned.
    """
    normalized: Set[ConflictPair] = set()
    for a, b in pairs:
        if a == b:
            if on_issue is None:
                raise ModelError(
                    f"operation {a!r} cannot conflict with itself"
                )
            on_issue("self-conflict", (a, b))
            continue
        key: ConflictPair = frozenset((a, b))
        if key in normalized:
            if on_issue is not None:
                on_issue("duplicate", (a, b))
            continue
        normalized.add(key)
    return normalized


class ConflictIndex:
    """A conflict predicate grown one pair at a time: the normalized
    pair set and the symmetric adjacency map a :class:`Schedule` keeps.

    :meth:`Schedule.from_closed` copies an index instead of normalizing
    a pair list, so a caller that keeps one across many schedule builds
    (the streaming assembler, once per commit) pays a copy, not a
    rebuild."""

    __slots__ = ("pairs", "adjacency")

    def __init__(self) -> None:
        self.pairs: Set[ConflictPair] = set()
        self.adjacency: Dict[str, Set[str]] = {}

    def add(self, a: str, b: str) -> None:
        """Add ``CON(a, b)`` (idempotent; ``a`` and ``b`` must differ)."""
        if a == b:
            raise ModelError(f"operation {a!r} cannot conflict with itself")
        key: ConflictPair = frozenset((a, b))
        if key not in self.pairs:
            self.pairs.add(key)
            self.adjacency.setdefault(a, set()).add(b)
            self.adjacency.setdefault(b, set()).add(a)


class Schedule:
    """One component's recorded behaviour (Def. 3)."""

    def __init__(
        self,
        name: str,
        transactions: Sequence[Transaction],
        *,
        conflicts: Iterable[Tuple[str, str]] = (),
        weak_input: Iterable[Tuple[str, str]] = (),
        strong_input: Iterable[Tuple[str, str]] = (),
        weak_output: Iterable[Tuple[str, str]] = (),
        strong_output: Iterable[Tuple[str, str]] = (),
        validate: bool = True,
    ) -> None:
        self._index_structure(name, transactions, conflicts)
        operations = tuple(self._owner_of)

        strong_in = Relation(elements=self._transactions)
        strong_in.add_all(self._check_txn_pairs(strong_input, "strong input"))
        weak_in = strong_in.copy()
        weak_in.add_all(self._check_txn_pairs(weak_input, "weak input"))
        self._weak_input = weak_in.transitive_closure()
        self._strong_input = strong_in.transitive_closure()

        strong_out = Relation(elements=operations)
        strong_out.add_all(self._check_op_pairs(strong_output, "strong output"))
        weak_out = strong_out.copy()
        weak_out.add_all(self._check_op_pairs(weak_output, "weak output"))
        self._weak_output = weak_out.transitive_closure()
        self._strong_output = strong_out.transitive_closure()

        self._check_acyclic()
        if validate:
            self.validate_axioms()

    @classmethod
    def from_closed(
        cls,
        name: str,
        transactions: Sequence[Transaction],
        *,
        conflicts: ConflictIndex,
        weak_input: Relation,
        strong_input: Relation,
        weak_output: Relation,
        strong_output: Relation,
    ) -> "Schedule":
        """A schedule over order relations that are already transitively
        closed — the constructor's result without re-closing anything.

        The input relations must have exactly the transactions as their
        carrier, in declaration order, and the output relations exactly
        the operations; ``weak_input`` must contain ``strong_input`` and
        ``weak_output`` must contain ``strong_output``, as the
        constructor's seeding guarantees.  The relations are adopted, not
        copied; the :class:`ConflictIndex` is copied.  The axioms are not
        validated.  Every structural check of the constructor still
        runs: names, duplicate transactions and operations, conflicts,
        and the carriers; acyclicity is probed in O(V) with
        :meth:`~repro.core.orders.Relation.first_self_loop` (a closed
        relation is cyclic iff some element relates to itself), and a
        cyclic order raises the same :class:`CycleError`, with the same
        witness, as the constructor.  The streaming assembler uses this
        to hand over its maintained closures.
        """
        self = cls.__new__(cls)
        self._index_structure(name, transactions, ())
        self._adopt_conflicts(conflicts)
        txns = tuple(self._transactions)
        ops = tuple(self._owner_of)
        for label, relation, carrier, role in (
            ("strong input", strong_input, txns, "transactions"),
            ("weak input", weak_input, txns, "transactions"),
            ("strong output", strong_output, ops, "operations"),
            ("weak output", weak_output, ops, "operations"),
        ):
            if relation.elements != carrier:
                raise ModelError(
                    f"closed {label} order of schedule {name!r} is not "
                    f"carried by its {role} in declaration order"
                )
        self._weak_input = weak_input
        self._strong_input = strong_input
        self._weak_output = weak_output
        self._strong_output = strong_output
        self._check_acyclic()
        return self

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def _index_structure(
        self,
        name: str,
        transactions: Sequence[Transaction],
        conflicts: Iterable[Tuple[str, str]],
    ) -> None:
        """Name, transactions, operation owners and the conflict
        adjacency, with every structural check on them."""
        if not name:
            raise ModelError("schedule name must be non-empty")
        self.name = name

        self._transactions: Dict[str, Transaction] = {}
        self._owner_of: Dict[str, str] = {}
        for txn in transactions:
            if txn.name in self._transactions:
                raise ModelError(
                    f"schedule {name!r} lists transaction {txn.name!r} twice"
                )
            self._transactions[txn.name] = txn
            for op in txn.operations:
                if op in self._owner_of:
                    raise ModelError(
                        f"operation {op!r} belongs to two transactions "
                        f"({self._owner_of[op]!r} and {txn.name!r}) of "
                        f"schedule {name!r}"
                    )
                self._owner_of[op] = txn.name

        self._conflicts = _normalize_conflicts(conflicts)
        # Adjacency view of the conflict set: `conflicting` sits on the
        # observed-order and constraint hot paths, and a per-call
        # frozenset construction dominated it.
        self._conflict_adj: Dict[str, Set[str]] = {}
        for pair in self._conflicts:
            for op in pair:
                if op not in self._owner_of:
                    raise ModelError(
                        f"conflict on {op!r} which is not an operation of "
                        f"schedule {name!r}"
                    )
            a, b = tuple(pair)
            self._conflict_adj.setdefault(a, set()).add(b)
            self._conflict_adj.setdefault(b, set()).add(a)

    def _adopt_conflicts(self, index: ConflictIndex) -> None:
        """Install a copy of ``index``, checking that it names only
        operations of this schedule."""
        unknown = index.adjacency.keys() - self._owner_of.keys()
        if unknown:
            raise ModelError(
                f"conflict on {min(unknown)!r} which is not an operation "
                f"of schedule {self.name!r}"
            )
        self._conflicts = set(index.pairs)
        self._conflict_adj = {
            op: set(nbrs) for op, nbrs in index.adjacency.items()
        }

    def _check_acyclic(self) -> None:
        """Raise :class:`CycleError` on a cyclic weak input or output.

        Both relations are closed, so a cycle shows as a self-loop; the
        O(V) probe gates the traversal that extracts the witness."""
        for label, relation in (
            ("input", self._weak_input),
            ("output", self._weak_output),
        ):
            if relation.first_self_loop() is not None:
                cycle = relation.find_cycle()
                assert cycle is not None
                raise CycleError(
                    f"weak {label} order of {self.name!r} is cyclic", cycle
                )

    def _check_txn_pairs(
        self, pairs: Iterable[Tuple[str, str]], label: str
    ) -> List[Tuple[str, str]]:
        checked = []
        for a, b in pairs:
            for t in (a, b):
                if t not in self._transactions:
                    raise ModelError(
                        f"{label} order of schedule {self.name!r} mentions "
                        f"{t!r}, which is not one of its transactions"
                    )
            checked.append((a, b))
        return checked

    def _check_op_pairs(
        self, pairs: Iterable[Tuple[str, str]], label: str
    ) -> List[Tuple[str, str]]:
        checked = []
        for a, b in pairs:
            for o in (a, b):
                if o not in self._owner_of:
                    raise ModelError(
                        f"{label} order of schedule {self.name!r} mentions "
                        f"{o!r}, which is not one of its operations"
                    )
            checked.append((a, b))
        return checked

    @classmethod
    def from_sequence(
        cls,
        name: str,
        transactions: Sequence[Transaction],
        execution: Sequence[str],
        *,
        conflicts: Iterable[Tuple[str, str]] = (),
        weak_input: Iterable[Tuple[str, str]] = (),
        strong_input: Iterable[Tuple[str, str]] = (),
        validate: bool = True,
        mode: str = "conflicts",
    ) -> "Schedule":
        """Build a schedule from an execution sequence.

        With ``mode="conflicts"`` (default) only conflicting pairs of the
        sequence are committed to the weak output order — the paper's
        reading of Def. 3, under which weak orders between commuting
        operations "disappear".  ``mode="temporal"`` commits the whole
        sequence.  Intra-transaction weak orders are always included
        (axiom 2a requires them).

        The strong output order is left minimal (only what axioms 2b/3
        force is added via intra-transaction strong orders or strong
        inputs; pure interleaved histories have no incidental strong
        sequencing).
        """
        if mode not in ("conflicts", "temporal"):
            raise ModelError(f"unknown execution mode {mode!r}")
        ops_declared: Set[str] = set()
        for txn in transactions:
            ops_declared.update(txn.operations)
        if set(execution) != ops_declared:
            missing = ops_declared - set(execution)
            extra = set(execution) - ops_declared
            raise ModelError(
                f"execution sequence of {name!r} does not match the "
                f"declared operations (missing={sorted(missing)}, "
                f"extra={sorted(extra)})"
            )
        if mode == "temporal":
            weak_output = list(zip(execution, execution[1:]))
        else:
            index = {op: i for i, op in enumerate(execution)}
            weak_output = []
            for pair in _normalize_conflicts(conflicts):
                a, b = tuple(pair)
                if a not in index or b not in index:
                    raise ModelError(
                        f"conflict ({a!r}, {b!r}) mentions an operation "
                        f"outside the execution of {name!r}"
                    )
                ordered = (a, b) if index[a] < index[b] else (b, a)
                weak_output.append(ordered)
        # Intra-transaction weak orders (axiom 2a) must surface in the
        # weak output regardless of mode.
        for txn in transactions:
            weak_output.extend(txn.weak_order.pairs())
        # Strong obligations from strong inputs / intra strong orders are
        # honoured automatically because the sequence is total; emit the
        # required strong output pairs so axiom 2b/3 validation passes.
        strong_pairs: List[Tuple[str, str]] = []
        position = {op: i for i, op in enumerate(execution)}
        strong_in = Relation()
        strong_in.add_all(strong_input)
        strong_in = strong_in.transitive_closure()
        by_name = {txn.name: txn for txn in transactions}
        for txn in transactions:
            for a, b in txn.strong_order.pairs():
                strong_pairs.append((a, b) if position[a] < position[b] else (b, a))
        for t, t2 in strong_in.pairs():
            for a in by_name[t].operations:
                for b in by_name[t2].operations:
                    strong_pairs.append((a, b))
        return cls(
            name,
            transactions,
            conflicts=conflicts,
            weak_input=weak_input,
            strong_input=strong_input,
            weak_output=weak_output,
            strong_output=strong_pairs,
            validate=validate,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> Mapping[str, Transaction]:
        """``T_S`` keyed by transaction name."""
        return dict(self._transactions)

    @property
    def transaction_names(self) -> Tuple[str, ...]:
        return tuple(self._transactions)

    @property
    def operations(self) -> Tuple[str, ...]:
        """``O_S`` — every operation of every transaction of this schedule."""
        return tuple(self._owner_of)

    @property
    def conflicts(self) -> Set[ConflictPair]:
        """The symmetric conflict predicate ``CON_S`` as a pair set."""
        return set(self._conflicts)

    @property
    def weak_input(self) -> Relation:
        """``→`` over ``T_S`` (transitively closed, includes strong input)."""
        return self._weak_input

    @property
    def strong_input(self) -> Relation:
        """``↠`` over ``T_S`` (transitively closed)."""
        return self._strong_input

    @property
    def weak_output(self) -> Relation:
        """``≺`` over ``O_S`` (transitively closed, includes strong output)."""
        return self._weak_output

    @property
    def strong_output(self) -> Relation:
        """``≪`` over ``O_S`` (transitively closed)."""
        return self._strong_output

    def transaction_of(self, op: str) -> str:
        """The (schedule-local) transaction owning ``op``."""
        try:
            return self._owner_of[op]
        except KeyError:
            raise ModelError(
                f"{op!r} is not an operation of schedule {self.name!r}"
            ) from None

    def conflicting(self, a: str, b: str) -> bool:
        """``CON_S(a, b)`` — symmetric, irreflexive."""
        adj = self._conflict_adj.get(a)
        return adj is not None and b in adj

    def conflict_neighbours(self, op: str) -> "AbstractSet[str]":
        """All operations ``b`` with ``CON_S(op, b)`` — the whole-row
        form of :meth:`conflicting`, used by the bitset kernels to gate
        an entire successor row with one mask intersection."""
        return self._conflict_adj.get(op, _NO_NEIGHBOURS)

    def __repr__(self) -> str:
        return (
            f"Schedule({self.name!r}, txns={list(self._transactions)}, "
            f"{len(self._conflicts)} conflicts)"
        )

    # ------------------------------------------------------------------
    # Def. 3 axioms
    # ------------------------------------------------------------------
    def validate_axioms(self) -> None:
        """Raise :class:`ScheduleAxiomError` on the first violated axiom.

        The engine's fail-fast entry point.  The checks themselves live
        in :meth:`iter_axiom_violations` so the lint layer collects the
        *same* violations the constructor would raise — the two can
        never disagree.
        """
        for violation in self.iter_axiom_violations():
            raise violation

    def iter_axiom_violations(self) -> Iterator[ScheduleAxiomError]:
        """Yield every Def. 3 axiom violation as a structured
        (unraised) :class:`ScheduleAxiomError`, in axiom order."""
        for pair in sorted(self._conflicts, key=sorted):
            a, b = sorted(pair)
            ta, tb = self._owner_of[a], self._owner_of[b]
            if ta == tb:
                continue  # axiom 1 quantifies over distinct transactions
            if (ta, tb) in self._weak_input:
                if (a, b) not in self._weak_output:
                    yield ScheduleAxiomError(
                        "1a",
                        f"{self.name}: {ta} -> {tb} but conflicting "
                        f"{a},{b} not weakly ordered {a} < {b}",
                        schedule=self.name,
                        operations=(a, b),
                        transactions=(ta, tb),
                    )
            elif (tb, ta) in self._weak_input:
                if (b, a) not in self._weak_output:
                    yield ScheduleAxiomError(
                        "1b",
                        f"{self.name}: {tb} -> {ta} but conflicting "
                        f"{b},{a} not weakly ordered {b} < {a}",
                        schedule=self.name,
                        operations=(b, a),
                        transactions=(tb, ta),
                    )
            elif not self._weak_output.orders(a, b):
                yield ScheduleAxiomError(
                    "1c",
                    f"{self.name}: conflicting operations {a},{b} of "
                    "unordered transactions are not output-ordered",
                    schedule=self.name,
                    operations=(a, b),
                    transactions=(ta, tb),
                )
        for txn in self._transactions.values():
            for a, b in txn.weak_order.missing_pairs(self._weak_output):
                yield ScheduleAxiomError(
                    "2a",
                    f"{self.name}: intra order {a} < {b} of {txn.name} "
                    "not reflected in the weak output order",
                    schedule=self.name,
                    operations=(a, b),
                    transactions=(txn.name,),
                )
            for a, b in txn.strong_order.missing_pairs(self._strong_output):
                yield ScheduleAxiomError(
                    "2b",
                    f"{self.name}: strong intra order {a} << {b} of "
                    f"{txn.name} not reflected in the strong output",
                    schedule=self.name,
                    operations=(a, b),
                    transactions=(txn.name,),
                )
        for t, t2 in self._strong_input.pairs():
            for a in self._transactions[t].operations:
                for b in self._transactions[t2].operations:
                    if (a, b) not in self._strong_output:
                        yield ScheduleAxiomError(
                            "3",
                            f"{self.name}: {t} >> {t2} but {a} << {b} "
                            "missing from the strong output order",
                            schedule=self.name,
                            operations=(a, b),
                            transactions=(t, t2),
                        )
        # Axiom 4 (strong ⊆ weak) holds by construction, but re-check so a
        # future refactor cannot silently break it.  Row-wise: one
        # AND-NOT per element instead of a membership test per pair.
        for a, b in self._strong_output.missing_pairs(self._weak_output):
            yield ScheduleAxiomError(
                "4",
                f"{self.name}: {a} << {b} but not {a} < {b}",
                schedule=self.name,
                operations=(a, b),
            )

    # ------------------------------------------------------------------
    # per-schedule conflict consistency (used by SCC / FCC / JCC)
    # ------------------------------------------------------------------
    def serialization_order(self) -> Relation:
        """The serialization (observed) order over ``T_S``: ``t ⇝ t'``
        whenever some operation of ``t`` precedes a conflicting operation
        of ``t'`` in the weak output order."""
        order = Relation(elements=self._transactions)
        for pair in self._conflicts:
            a, b = sorted(pair)
            ta, tb = self._owner_of[a], self._owner_of[b]
            if ta == tb:
                continue
            if (a, b) in self._weak_output:
                order.add(ta, tb)
            if (b, a) in self._weak_output:
                order.add(tb, ta)
        return order

    def is_conflict_consistent(self) -> bool:
        """Conflict consistency of a single schedule: the union of its
        serialization order and its weak input order is acyclic.

        This is the building block of SCC (Def. 22), FCC (Def. 24) and
        JCC (Def. 27); Def. 13 is the front-level generalization.
        """
        return self.consistency_violation() is None

    def consistency_violation(self) -> Optional[List[str]]:
        """A witness cycle for CC failure, or ``None`` if consistent."""
        return self.serialization_order().union(self._weak_input).find_cycle()

    def serializable_total_order(self) -> List[str]:
        """A serial transaction order compatible with the serialization
        and input orders.  Raises :class:`CycleError` when not CC."""
        combined = self.serialization_order().union(self._weak_input)
        return combined.topological_sort()
