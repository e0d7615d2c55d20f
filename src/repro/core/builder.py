"""Fluent construction API for composite systems.

:class:`SystemBuilder` assembles schedules, transactions, conflicts and
orders incrementally and performs the bookkeeping Def. 4 requires but
that is tedious to write by hand:

* intra-transaction orders are folded into the owning schedule's output
  orders (axiom 2 of Def. 3 demands them there anyway);
* output orders of a caller schedule are propagated as input orders of
  the callee when both operations are transactions of the same callee
  (Def. 4.7) — so a model stays well-formed without the user repeating
  every order twice;
* strong input orders are expanded into the strong output pairs axiom 3
  demands when the recorded execution satisfies them.

Example
-------
>>> b = SystemBuilder()
>>> _ = b.transaction("T1", "Top", ["t11", "t12"])
>>> _ = b.transaction("t11", "Bottom", ["a"], )
>>> _ = b.transaction("t12", "Bottom", ["b"])
>>> _ = b.conflict("Bottom", "a", "b")
>>> _ = b.executed("Bottom", ["a", "b"])
>>> _ = b.executed("Top", ["t11", "t12"])
>>> system = b.build()
>>> system.order
2
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.core.system import CompositeSystem
from repro.core.transaction import Transaction
from repro.exceptions import ModelError

#: One schedule's order collections, keyed ``weak_output``,
#: ``strong_output``, ``weak_input`` and ``strong_input``.  Each is a
#: dict used as an insertion-ordered set of pairs.
_Orders = Dict[str, Dict[Tuple[str, str], None]]


def _execution_pairs(
    sequence: Sequence[str],
    mode: str,
    conflicts: Iterable[Tuple[str, str]],
) -> List[Tuple[str, str]]:
    """Weak-output pairs committed by a recorded execution sequence."""
    if mode == "temporal":
        return list(zip(sequence, sequence[1:]))
    position = {op: i for i, op in enumerate(sequence)}
    pairs: List[Tuple[str, str]] = []
    for a, b in conflicts:
        if a in position and b in position:
            if position[a] < position[b]:
                pairs.append((a, b))
            else:
                pairs.append((b, a))
    return pairs


@dataclass
class _ScheduleDraft:
    name: str
    transactions: "Dict[str, Transaction]" = field(default_factory=dict)
    conflicts: List[Tuple[str, str]] = field(default_factory=list)
    weak_input: List[Tuple[str, str]] = field(default_factory=list)
    strong_input: List[Tuple[str, str]] = field(default_factory=list)
    weak_output: List[Tuple[str, str]] = field(default_factory=list)
    strong_output: List[Tuple[str, str]] = field(default_factory=list)
    execution: Optional[List[str]] = None
    execution_mode: str = "conflicts"


class SystemBuilder:
    """Incremental builder for :class:`repro.core.system.CompositeSystem`."""

    def __init__(self) -> None:
        self._drafts: Dict[str, _ScheduleDraft] = {}
        self._txn_schedule: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # declaration
    # ------------------------------------------------------------------
    def schedule(self, name: str) -> "SystemBuilder":
        """Declare a schedule (idempotent; usually implicit)."""
        if name not in self._drafts:
            self._drafts[name] = _ScheduleDraft(name)
        return self

    def transaction(
        self,
        name: str,
        schedule: str,
        operations: Sequence[str],
        *,
        weak_order: Iterable[Tuple[str, str]] = (),
        strong_order: Iterable[Tuple[str, str]] = (),
        sequential: bool = False,
    ) -> "SystemBuilder":
        """Declare transaction ``name`` of ``schedule`` with the given
        operations and intra-transaction orders (Def. 2)."""
        self.schedule(schedule)
        if name in self._txn_schedule:
            raise ModelError(
                f"transaction {name!r} already declared on schedule "
                f"{self._txn_schedule[name]!r}"
            )
        txn = Transaction(
            name,
            operations,
            weak_order=weak_order,
            strong_order=strong_order,
            sequential=sequential,
        )
        self._drafts[schedule].transactions[name] = txn
        self._txn_schedule[name] = schedule
        return self

    def conflict(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        """Declare ``CON_schedule(a, b)`` (symmetric)."""
        self.schedule(schedule)
        self._drafts[schedule].conflicts.append((a, b))
        return self

    def conflicts(
        self, schedule: str, pairs: Iterable[Tuple[str, str]]
    ) -> "SystemBuilder":
        for a, b in pairs:
            self.conflict(schedule, a, b)
        return self

    # ------------------------------------------------------------------
    # orders
    # ------------------------------------------------------------------
    def executed(
        self, schedule: str, sequence: Sequence[str], *, mode: str = "conflicts"
    ) -> "SystemBuilder":
        """Record the schedule's behaviour as a total temporal sequence of
        its operations (the usual shape of an observed history).

        ``mode`` controls which temporal pairs become *weak output order*
        commitments:

        ``"conflicts"`` (default)
            only pairs the schedule must order — conflicting operations —
            are committed.  This matches the paper's reading of Def. 3
            ("weak orders are only propagated when operations conflict,
            otherwise the weak order disappears") and keeps the recorded
            history maximally permissive.
        ``"temporal"``
            the whole sequence becomes the weak output order (the
            conservative reading; used by the A1 ablation benchmark).
        """
        if mode not in ("conflicts", "temporal"):
            raise ModelError(f"unknown execution mode {mode!r}")
        self.schedule(schedule)
        self._drafts[schedule].execution = list(sequence)
        self._drafts[schedule].execution_mode = mode
        return self

    def weak_output(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        self.schedule(schedule)
        self._drafts[schedule].weak_output.append((a, b))
        return self

    def strong_output(self, schedule: str, a: str, b: str) -> "SystemBuilder":
        self.schedule(schedule)
        self._drafts[schedule].strong_output.append((a, b))
        return self

    def weak_input(self, schedule: str, t1: str, t2: str) -> "SystemBuilder":
        """Require ``t1 → t2`` at ``schedule`` (restricted parallelism)."""
        self.schedule(schedule)
        self._drafts[schedule].weak_input.append((t1, t2))
        return self

    def strong_input(self, schedule: str, t1: str, t2: str) -> "SystemBuilder":
        """Require ``t1 ↠ t2`` at ``schedule`` (strict sequencing)."""
        self.schedule(schedule)
        self._drafts[schedule].strong_input.append((t1, t2))
        return self

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def build(
        self, *, validate: bool = True, propagate_orders: bool = True
    ) -> CompositeSystem:
        """Assemble and validate the composite system.

        ``propagate_orders`` applies Def. 4.7 automatically: every output
        order between two operations that are transactions of the same
        callee schedule is added to that callee's input orders.
        """
        resolved = self._resolve()
        if propagate_orders:
            self._propagate(resolved)

        schedules = []
        for name, draft in self._drafts.items():
            orders = resolved[name]
            schedules.append(
                Schedule(
                    name,
                    list(draft.transactions.values()),
                    conflicts=draft.conflicts,
                    weak_input=orders["weak_input"],
                    strong_input=orders["strong_input"],
                    weak_output=orders["weak_output"],
                    strong_output=orders["strong_output"],
                    validate=validate,
                )
            )
        return CompositeSystem(schedules, validate=validate)

    def _resolve(self) -> Dict[str, _Orders]:
        """Every schedule's declared orders plus the axiom-2 and axiom-3
        pairs its drafts imply, before Def. 4.7 propagation."""
        if not self._drafts:
            raise ModelError("no schedules declared")
        resolved: Dict[str, _Orders] = {}
        for name, draft in self._drafts.items():
            weak_out = list(draft.weak_output)
            strong_out = list(draft.strong_output)
            if draft.execution is not None:
                weak_out.extend(
                    _execution_pairs(
                        draft.execution, draft.execution_mode, draft.conflicts
                    )
                )
            # Axiom 2: intra-transaction orders must surface in outputs.
            for txn in draft.transactions.values():
                weak_out.extend(txn.weak_order.pairs())
                strong_out.extend(txn.strong_order.pairs())
            # Axiom 3: strong inputs sequence whole transactions.
            for t1, t2 in draft.strong_input:
                ops1 = draft.transactions[t1].operations
                ops2 = draft.transactions[t2].operations
                for a in ops1:
                    for b in ops2:
                        strong_out.append((a, b))
            resolved[name] = {
                "weak_output": dict.fromkeys(weak_out),
                "strong_output": dict.fromkeys(strong_out),
                "weak_input": dict.fromkeys(draft.weak_input),
                "strong_input": dict.fromkeys(draft.strong_input),
            }
        return resolved

    def _propagate(self, resolved: Dict[str, _Orders]) -> None:
        """Def. 4.7: caller output orders become callee input orders.

        Validation checks the *transitively closed* output relations, so
        propagation must work on closures too (a pair derived through a
        chain of conflicts still binds the callee).  Outputs are also
        transitively relevant across levels — a propagated input order
        can force new strong outputs via axiom 3, which may propagate
        further down — so we iterate to a fixed point.

        Weak outputs never grow here, so one closure per schedule settles
        the weak inputs.  Strong orders run on a worklist of dirty
        schedules: a pass re-expands axiom 3 only where strong inputs
        grew, and re-closes and re-propagates only the strong outputs
        that expansion grew.  Every order collection is a dict used as an
        insertion-ordered set, so a pass costs one membership probe per
        closed pair of the dirty schedules' outputs.
        """
        drafts = self._drafts
        for name in drafts:
            self._propagate_closed(name, resolved, "weak_output", "weak_input")
            self._propagate_closed(
                name, resolved, "strong_output", "strong_input"
            )
        dirty = set(drafts)
        passes = 0
        while dirty:
            passes += 1
            if passes > 2 * len(drafts) + 4:  # pragma: no cover
                raise ModelError("order propagation did not converge")
            grown = [
                name
                for name in drafts
                if name in dirty and self._expand_strong_input(name, resolved)
            ]
            dirty = set()
            for name in grown:
                dirty.update(
                    self._propagate_closed(
                        name, resolved, "strong_output", "strong_input"
                    )
                )

    def _propagate_closed(
        self,
        name: str,
        resolved: Dict[str, _Orders],
        kind_out: str,
        kind_in: str,
    ) -> Set[str]:
        """Add every closed ``kind_out`` pair of ``name`` between two
        transactions of one callee to that callee's ``kind_in``; returns
        the callees whose inputs grew."""
        txn_schedule = self._txn_schedule
        closed = Relation(resolved[name][kind_out]).transitive_closure()
        # Per callee, the bitmap of the closure's elements that are its
        # transactions: a row AND finds every pair the callee must see.
        callee_masks: Dict[str, int] = {}
        for j, element in enumerate(closed.elements):
            callee = txn_schedule.get(element)
            if callee is not None and callee != name:
                callee_masks[callee] = callee_masks.get(callee, 0) | (1 << j)
        grown: Set[str] = set()
        for callee, mask in callee_masks.items():
            target = resolved[callee][kind_in]
            for a in closed.unpack(mask):
                for b in closed.unpack(closed.row_bits(a) & mask):
                    if (a, b) not in target:
                        target[(a, b)] = None
                        grown.add(callee)
        return grown

    def _expand_strong_input(
        self, name: str, resolved: Dict[str, _Orders]
    ) -> bool:
        """Axiom 3 over the closed strong input of ``name``; returns
        whether its strong output grew."""
        transactions = self._drafts[name].transactions
        orders = resolved[name]
        strong_out = orders["strong_output"]
        closed_in = Relation(orders["strong_input"]).transitive_closure()
        grew = False
        for t1, t2 in closed_in.pairs():
            ops2 = transactions[t2].operations
            for a in transactions[t1].operations:
                for b in ops2:
                    if (a, b) not in strong_out:
                        strong_out[(a, b)] = None
                        grew = True
        return grew

    # ------------------------------------------------------------------
    # declarative construction
    # ------------------------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Mapping) -> "SystemBuilder":
        """Build from a nested-dict specification (the shape used by the
        text format in :mod:`repro.io.text_format` and by tests).

        ::

            {"schedules": {
                "S1": {
                    "transactions": {"T1": ["a", "b"],
                                     "T2": {"ops": ["c"], "sequential": True}},
                    "conflicts": [["a", "c"]],
                    "executed": ["a", "c", "b"],
                    "weak_input": [["T1", "T2"]],
                },
            }}
        """
        builder = cls()
        schedules = spec.get("schedules", {})
        for sname, body in schedules.items():
            builder.schedule(sname)
            for tname, tdef in body.get("transactions", {}).items():
                if isinstance(tdef, Mapping):
                    builder.transaction(
                        tname,
                        sname,
                        tdef.get("ops", []),
                        weak_order=[tuple(p) for p in tdef.get("weak", [])],
                        strong_order=[tuple(p) for p in tdef.get("strong", [])],
                        sequential=bool(tdef.get("sequential", False)),
                    )
                else:
                    builder.transaction(tname, sname, list(tdef))
            draft = builder._drafts[sname]
            draft.conflicts.extend(
                (a, b) for a, b in body.get("conflicts", [])
            )
            if "executed" in body:
                builder.executed(
                    sname,
                    list(body["executed"]),
                    mode=body.get("executed_mode", "conflicts"),
                )
            # Order lists can hold every closed pair of a schedule: extend
            # the draft directly rather than one fluent call per pair.
            draft.weak_output.extend(
                (a, b) for a, b in body.get("weak_output", [])
            )
            draft.strong_output.extend(
                (a, b) for a, b in body.get("strong_output", [])
            )
            draft.weak_input.extend(
                (a, b) for a, b in body.get("weak_input", [])
            )
            draft.strong_input.extend(
                (a, b) for a, b in body.get("strong_input", [])
            )
        return builder


def build_system(spec: Mapping, **kwargs) -> CompositeSystem:
    """One-shot: :meth:`SystemBuilder.from_spec` followed by ``build``."""
    return SystemBuilder.from_spec(spec).build(**kwargs)
