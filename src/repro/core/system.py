"""Composite systems (Def. 4–9 of the paper).

A composite system is a set of schedules whose operations may again be
transactions of other schedules.  This module derives and validates all
the structure the reduction needs:

* the *parent* function (Def. 5) — each operation/transaction node has a
  unique parent transaction; root transactions are their own parent;
* node classification (Def. 4.3–4.5) into **leaves** (operations that are
  nobody's transaction), **internal nodes** (transactions invoked as
  operations) and **roots** (transactions that are nobody's operation);
* the **invocation graph** (Def. 7–8) and its acyclicity, which is the
  recursion-freedom condition of Def. 4.6;
* schedule **levels** (Def. 9): ``level(S) = (longest IG path from S) + 1``;
* the order-propagation condition of Def. 4.7 (output orders of a caller
  appear as input orders of the callee when both operations go to the
  same callee);
* composite transactions / execution trees (Def. 6).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.exceptions import CycleError, ModelError, OrderPropagationError


class CompositeSystem:
    """An immutable, validated composite system (Def. 4)."""

    def __init__(
        self, schedules: Sequence[Schedule], *, validate: bool = True
    ) -> None:
        if not schedules:
            raise ModelError("a composite system needs at least one schedule")
        self._schedules: Dict[str, Schedule] = {}
        for schedule in schedules:
            if schedule.name in self._schedules:
                raise ModelError(
                    f"two schedules named {schedule.name!r} in the system"
                )
            self._schedules[schedule.name] = schedule

        self._index_structure()
        self._compute_invocation_graph()
        self._compute_levels()
        if validate:
            self._validate_order_propagation()

    # ------------------------------------------------------------------
    # structural indexing
    # ------------------------------------------------------------------
    def _index_structure(self) -> None:
        # Def. 4.1: a transaction belongs to exactly one schedule.
        self._schedule_of_txn: Dict[str, str] = {}
        for sname, schedule in self._schedules.items():
            for tname in schedule.transaction_names:
                if tname in self._schedule_of_txn:
                    raise ModelError(
                        f"transaction {tname!r} assigned to two schedules "
                        f"({self._schedule_of_txn[tname]!r} and {sname!r})"
                    )
                self._schedule_of_txn[tname] = sname

        # Def. 5: unique parents.  An operation name appearing in two
        # transactions (across any schedules) would make `parent` ambiguous.
        self._parent_of: Dict[str, str] = {}
        for sname, schedule in self._schedules.items():
            for tname, txn in schedule.transactions.items():
                for op in txn.operations:
                    if op in self._parent_of:
                        raise ModelError(
                            f"node {op!r} is an operation of both "
                            f"{self._parent_of[op]!r} and {tname!r}"
                        )
                    self._parent_of[op] = tname

        all_ops = tuple(self._parent_of)  # insertion order: deterministic
        all_txns = set(self._schedule_of_txn)
        # Transactions that are operations of nobody are roots (their own
        # parent, Def. 5).
        self._roots: Tuple[str, ...] = tuple(
            t for t in self._schedule_of_txn if t not in self._parent_of
        )
        for root in self._roots:
            self._parent_of[root] = root
        # node -> owning schedule (None for roots), precomputed: the
        # Def. 10/11 gates ask this for every candidate observed pair.
        self._op_schedule: Dict[str, Optional[str]] = {
            node: (None if parent == node else self._schedule_of_txn[parent])
            for node, parent in self._parent_of.items()
        }
        self._leaves: Tuple[str, ...] = tuple(
            o for o in all_ops if o not in all_txns
        )
        self._internal: Tuple[str, ...] = tuple(
            o for o in all_ops if o in all_txns
        )
        if not self._roots:
            raise ModelError(
                "system has no root transaction (every transaction is "
                "invoked by another one — the invocation structure is cyclic)"
            )

    def _compute_invocation_graph(self) -> None:
        graph = Relation(elements=self._schedules)
        for sname, schedule in self._schedules.items():
            for op in schedule.operations:
                target = self._schedule_of_txn.get(op)
                if target is not None:
                    if target == sname:
                        raise CycleError(
                            f"schedule {sname!r} invokes itself",
                            [sname, sname],
                        )
                    graph.add(sname, target)
        cycle = graph.find_cycle()
        if cycle is not None:
            raise CycleError(
                "recursion in the invocation graph (violates Def. 4.6)",
                cycle,
            )
        self._invocation_graph = graph

    def _compute_levels(self) -> None:
        # level(S) = longest path starting at S in the IG, plus one.
        levels: Dict[str, int] = {}
        order = self._invocation_graph.topological_sort()
        for sname in reversed(order):
            succ = self._invocation_graph.successors(sname)
            levels[sname] = 1 + max((levels[c] for c in succ), default=0)
        self._levels = levels
        self._order = max(levels.values())

    def _validate_order_propagation(self) -> None:
        """Def. 4.7: raise on the first missing input-order propagation.

        The checks live in :meth:`iter_order_propagation_violations` so
        the lint layer reports exactly what the constructor enforces.
        """
        for violation in self.iter_order_propagation_violations():
            raise violation

    def iter_order_propagation_violations(
        self,
    ) -> Iterator[OrderPropagationError]:
        """Yield every Def. 4.7 violation as a structured (unraised)
        :class:`OrderPropagationError`: a caller's output orders between
        two operations that are transactions of the *same* callee must
        appear as the callee's input orders.

        Each operation's closed output row is masked to the operations
        that are transactions of its own callee, so only the pairs Def.
        4.7 binds are probed.  Violations come in the caller's
        operation order, ``(a, b)`` by ``a`` then ``b``, weak before
        strong.
        """
        schedule_of_txn = self._schedule_of_txn
        for sname, schedule in self._schedules.items():
            weak_out = schedule.weak_output
            strong_out = schedule.strong_output
            # Per callee, the bitmap of its transactions among this
            # schedule's operations.  Schedule interns its operations
            # into the output relations before any pair, so bit order is
            # operation order.  The strong output is contained in the
            # weak one (Schedule seeds ``≺`` with ``≪``), so the weak
            # row's hits cover both kinds.
            callee_masks: Dict[str, int] = {}
            for j, op in enumerate(weak_out.elements):
                callee_name = schedule_of_txn.get(op)
                if callee_name is not None:
                    callee_masks[callee_name] = callee_masks.get(
                        callee_name, 0
                    ) | (1 << j)
            for a in schedule.operations:
                sa = schedule_of_txn.get(a)
                if sa is None:
                    continue
                hits = (
                    weak_out.row_bits(a)
                    & callee_masks[sa]
                    & ~weak_out.mask_of((a,))
                )
                if not hits:
                    continue
                callee = self._schedules[sa]
                for b in weak_out.unpack(hits):
                    if (a, b) not in callee.weak_input:
                        yield OrderPropagationError(
                            f"Def. 4.7 violated: {a} < {b} in the output of "
                            f"{sname!r} but {a} -> {b} missing from the "
                            f"input order of {sa!r}",
                            caller=sname,
                            callee=sa,
                            pair=(a, b),
                            kind="weak",
                        )
                    if (a, b) in strong_out and (
                        a,
                        b,
                    ) not in callee.strong_input:
                        yield OrderPropagationError(
                            f"Def. 4.7 violated: {a} << {b} in the output of "
                            f"{sname!r} but {a} ->> {b} missing from the "
                            f"strong input order of {sa!r}",
                            caller=sname,
                            callee=sa,
                            pair=(a, b),
                            kind="strong",
                        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def schedules(self) -> Mapping[str, Schedule]:
        return dict(self._schedules)

    def schedule(self, name: str) -> Schedule:
        try:
            return self._schedules[name]
        except KeyError:
            raise ModelError(f"no schedule named {name!r}") from None

    @property
    def invocation_graph(self) -> Relation:
        """Def. 8: schedule-to-schedule invocation edges (acyclic)."""
        return self._invocation_graph.copy()

    @property
    def levels(self) -> Mapping[str, int]:
        """Def. 9: schedule name → level."""
        return dict(self._levels)

    def level_of(self, schedule_name: str) -> int:
        return self._levels[schedule_name]

    @property
    def order(self) -> int:
        """The order ``N`` of the system: the highest schedule level."""
        return self._order

    def schedules_at_level(self, level: int) -> Tuple[str, ...]:
        return tuple(s for s, l in self._levels.items() if l == level)

    @property
    def roots(self) -> Tuple[str, ...]:
        """Def. 4.5: root transactions."""
        return self._roots

    @property
    def leaves(self) -> Tuple[str, ...]:
        """Def. 4.3: leaf operations."""
        return self._leaves

    @property
    def internal_nodes(self) -> Tuple[str, ...]:
        """Def. 4.4: transactions invoked as operations."""
        return self._internal

    # ------------------------------------------------------------------
    # node-level structure
    # ------------------------------------------------------------------
    def parent(self, node: str) -> str:
        """Def. 5: the parent transaction (roots are their own parent)."""
        try:
            return self._parent_of[node]
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def is_root(self, node: str) -> bool:
        return self._parent_of.get(node) == node and node in self._schedule_of_txn

    def is_leaf(self, node: str) -> bool:
        return node in self._parent_of and node not in self._schedule_of_txn

    def is_transaction(self, node: str) -> bool:
        return node in self._schedule_of_txn

    def schedule_of_transaction(self, txn: str) -> str:
        """The unique schedule having ``txn`` among its transactions."""
        try:
            return self._schedule_of_txn[txn]
        except KeyError:
            raise ModelError(f"{txn!r} is not a transaction") from None

    def schedule_of_operation(self, node: str) -> Optional[str]:
        """The schedule that ``node`` is an *operation of* — i.e. the
        schedule owning ``parent(node)`` — or ``None`` for roots."""
        try:
            return self._op_schedule[node]
        except KeyError:
            raise ModelError(f"unknown node {node!r}") from None

    def common_schedule(self, a: str, b: str) -> Optional[str]:
        """The schedule both nodes are operations of, if any.

        This is the gate of Def. 10.2/Def. 11.1: when two nodes are
        operations of a common schedule, that schedule's own conflict
        predicate is authoritative.
        """
        table = self._op_schedule
        try:
            sa = table[a]
            return sa if sa is not None and sa == table[b] else None
        except KeyError as exc:
            raise ModelError(f"unknown node {exc.args[0]!r}") from None

    def conflicting(self, a: str, b: str) -> bool:
        """Schedule-local conflict between two nodes that are operations
        of a common schedule (``False`` otherwise; cross-schedule
        conflicts are the business of Def. 11, see
        :mod:`repro.core.conflicts`)."""
        shared = self.common_schedule(a, b)
        if shared is None:
            return False
        return self._schedules[shared].conflicting(a, b)

    # ------------------------------------------------------------------
    # execution trees (Def. 6)
    # ------------------------------------------------------------------
    def children(self, txn: str) -> Tuple[str, ...]:
        """The operations of transaction ``txn``."""
        schedule = self._schedules[self.schedule_of_transaction(txn)]
        return schedule.transactions[txn].operations

    def activity(self, txn: str) -> Set[str]:
        """``Act(T)``: every descendant node of ``txn`` (excluding it)."""
        seen: Set[str] = set()
        stack = list(self.children(txn))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if self.is_transaction(node):
                stack.extend(self.children(node))
        return seen

    def composite_transaction(self, root: str) -> Set[str]:
        """Def. 6: a root and all its descendants (the execution tree)."""
        if not self.is_root(root):
            raise ModelError(f"{root!r} is not a root transaction")
        tree = self.activity(root)
        tree.add(root)
        return tree

    def leaves_of(self, txn: str) -> Set[str]:
        """The leaf operations in the execution (sub)tree of ``txn``."""
        if self.is_leaf(txn):
            return {txn}
        return {n for n in self.activity(txn) if self.is_leaf(n)}

    def ancestors(self, node: str) -> List[str]:
        """Proper ancestors of ``node`` from parent up to its root."""
        chain: List[str] = []
        cursor = node
        while True:
            parent = self.parent(cursor)
            if parent == cursor:
                break
            chain.append(parent)
            cursor = parent
        return chain

    def root_of(self, node: str) -> str:
        """The root transaction of the execution tree containing ``node``."""
        chain = self.ancestors(node)
        return chain[-1] if chain else node

    def depth(self, node: str) -> int:
        """Distance from ``node`` to its root (root has depth 0)."""
        return len(self.ancestors(node))

    # ------------------------------------------------------------------
    # reduction support
    # ------------------------------------------------------------------
    def materialization_level(self, node: str) -> int:
        """The reduction step after which ``node`` exists as a front node:
        0 for leaves, ``level(S)`` for transactions of schedule ``S``."""
        if self.is_leaf(node):
            return 0
        return self._levels[self.schedule_of_transaction(node)]

    def grouping_level(self, node: str) -> Optional[int]:
        """The reduction step at which ``node`` is folded into its parent:
        ``level(schedule_of(parent))``; ``None`` for roots (kept to the
        end by Def. 16.5)."""
        parent = self.parent(node)
        if parent == node:
            return None
        return self._levels[self._schedule_of_txn[parent]]

    def all_nodes(self) -> Iterator[str]:
        """Every node: leaves, internal transactions and roots."""
        seen: Set[str] = set()
        for leaf in self._leaves:
            seen.add(leaf)
            yield leaf
        for txn in self._schedule_of_txn:
            if txn not in seen:
                seen.add(txn)
                yield txn

    def __repr__(self) -> str:
        return (
            f"CompositeSystem(order={self._order}, "
            f"schedules={list(self._schedules)}, roots={list(self._roots)})"
        )
