"""Fold a typed event stream into the committed composite system.

The assembler is the state machine between the wire format
(:mod:`repro.io.eventlog`) and the model layer: it stages declarations
under their roots, tracks root lifecycle (begin / commit / abort), and
materializes the committed composite system on demand.

:meth:`StreamAssembler.build` replays every activated declaration — in
original arrival order — through a fresh
:class:`~repro.core.builder.SystemBuilder`.  Replaying in arrival order
is what makes the streaming path byte-compatible with the batch path:
the builder interns schedules, transactions and operations in call
order, so a log produced by :func:`repro.io.eventlog.events_from_recorded`
reassembles into a system whose element orders (and hence every
packed-bitset ``Relation``, witness, and telemetry byte downstream) are
identical to the original's.  The checker's per-commit recheck and
``finalize`` both use it.

Activation rule: a ``txn`` declaration folds in when its root commits;
a ``conflict``/``order`` declaration folds in once *every* node it
mentions belongs to a committed root.  Because declarations only ever
activate (commits are permanent; aborts discard whole staged roots
before they commit), the committed system grows monotonically — the
property the checker's incremental observed order relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.builder import SystemBuilder
from repro.criteria.registry import RecordedExecution
from repro.exceptions import ModelError, ScheduleAxiomError, StreamError
from repro.io.eventlog import Event, event_from_dict, event_to_dict

__all__ = ["CommitDelta", "StreamAssembler"]


@dataclass(frozen=True)
class CommitDelta:
    """What a ``commit`` event added to the committed system."""

    root: str
    ordinal: int
    txns: Tuple[str, ...]


@dataclass
class _Arrival:
    schedule: str
    root: str
    op: str
    item: Optional[str]
    mode: Optional[str]


class StreamAssembler:
    """Incremental event-log consumer (see module docstring)."""

    def __init__(self) -> None:
        self.derive: Optional[str] = None
        self._decls: List[Event] = []
        self._root_of: Dict[str, str] = {}
        self._committed: Set[str] = set()
        self._begun: Set[str] = set()
        self._commit_order: List[str] = []
        self._arrivals: List[_Arrival] = []
        self._ended = False

    # ------------------------------------------------------------------
    @property
    def committed_roots(self) -> Tuple[str, ...]:
        return tuple(self._commit_order)

    @property
    def ended(self) -> bool:
        return self._ended

    # ------------------------------------------------------------------
    def apply(self, event: Event) -> Optional[CommitDelta]:
        """Consume one event; returns a delta for ``commit`` events."""
        if self._ended:
            raise StreamError(
                f"event {event.kind!r} after the end of stream"
            )
        if self.derive is None and event.kind != "log":
            raise StreamError(
                f"event {event.kind!r} before the 'log' header"
            )
        handler = getattr(self, f"_apply_{event.kind}")
        result = handler(event)
        return result  # type: ignore[no-any-return]

    def _apply_log(self, event: Event) -> None:
        if self.derive is not None:
            raise StreamError("duplicate 'log' header")
        self.derive = event.derive

    def _apply_txn(self, event: Event) -> None:
        assert event.root is not None and event.txn is not None
        known = self._root_of.get(event.txn)
        if known is not None and known != event.root:
            raise StreamError(
                f"transaction {event.txn!r} declared under two roots "
                f"({known!r} and {event.root!r})"
            )
        if event.root in self._committed:
            raise StreamError(
                f"declaration for already-committed root {event.root!r}"
            )
        self._root_of[event.txn] = event.root
        for op in event.ops:
            self._root_of[op] = event.root
        self._decls.append(event)

    def _apply_conflict(self, event: Event) -> None:
        self._decls.append(event)

    _apply_order = _apply_conflict

    def _apply_begin(self, event: Event) -> None:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(
                f"begin of already-committed root {event.root!r}"
            )
        if event.root in self._begun:
            # A retry: the previous (unfinished) attempt is discarded,
            # recorder-style.  Declarations staged *before* the first
            # begin (the converter's layout) are untouched.
            self._discard_root(event.root)
        self._begun.add(event.root)

    def _apply_access(self, event: Event) -> None:
        assert (
            event.root is not None
            and event.schedule is not None
            and event.op is not None
        )
        if event.root in self._committed:
            raise StreamError(
                f"operation {event.op!r} for already-committed root "
                f"{event.root!r}"
            )
        self._arrivals.append(
            _Arrival(
                schedule=event.schedule,
                root=event.root,
                op=event.op,
                item=event.item,
                mode=event.mode,
            )
        )

    _apply_call = _apply_access

    def _apply_commit(self, event: Event) -> CommitDelta:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(f"duplicate commit of root {event.root!r}")
        txns = tuple(
            d.txn
            for d in self._decls
            if d.kind == "txn" and d.root == event.root and d.txn is not None
        )
        if not txns:
            raise StreamError(
                f"commit of root {event.root!r} with no staged transactions"
            )
        self._committed.add(event.root)
        self._commit_order.append(event.root)
        return CommitDelta(
            root=event.root, ordinal=len(self._commit_order), txns=txns
        )

    def _apply_abort(self, event: Event) -> None:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(f"abort of committed root {event.root!r}")
        self._discard_root(event.root)
        self._begun.discard(event.root)

    def _apply_end(self, event: Event) -> None:
        self._ended = True

    # ------------------------------------------------------------------
    def _discard_root(self, root: str) -> None:
        """Drop the root's staged attempt (abort, or begin of a retry)."""
        kept: List[Event] = []
        for decl in self._decls:
            if decl.kind == "txn" and decl.root == root:
                if decl.txn is not None:
                    self._root_of.pop(decl.txn, None)
                for op in decl.ops:
                    self._root_of.pop(op, None)
            else:
                kept.append(decl)
        self._decls = kept
        self._arrivals = [a for a in self._arrivals if a.root != root]

    def _active(self, decl: Event) -> bool:
        """A conflict/order pair activates when both mentioned nodes
        belong to committed roots."""
        for node in (decl.a, decl.b):
            assert node is not None
            root = self._root_of.get(node)
            if root is None or root not in self._committed:
                return False
        return True

    # ------------------------------------------------------------------
    def executions(self) -> Dict[str, List[str]]:
        """Per-schedule arrival sequences of committed operations."""
        result: Dict[str, List[str]] = {}
        for arrival in self._arrivals:
            if arrival.root in self._committed:
                result.setdefault(arrival.schedule, []).append(arrival.op)
        return result

    # ------------------------------------------------------------------
    def _apply_decl(self, builder: SystemBuilder, decl: Event) -> None:
        """Feed one activated declaration to a builder."""
        if decl.kind == "txn":
            assert decl.schedule is not None and decl.txn is not None
            builder.transaction(
                decl.txn,
                decl.schedule,
                decl.ops,
                weak_order=decl.weak,
                strong_order=decl.strong,
            )
        elif decl.kind == "conflict":
            assert (
                decl.schedule is not None
                and decl.a is not None
                and decl.b is not None
            )
            builder.conflict(decl.schedule, decl.a, decl.b)
        else:
            assert (
                decl.schedule is not None
                and decl.order_kind is not None
                and decl.a is not None
                and decl.b is not None
            )
            getattr(builder, decl.order_kind)(decl.schedule, decl.a, decl.b)

    def build(self) -> Optional[RecordedExecution]:
        """The committed composite system via a replay of every
        activated declaration in declaration order, or ``None`` before
        the first commit.

        Mid-stream prefixes may violate validation-only axioms the
        finished system satisfies (e.g. an unordered conflict whose
        ordering pair has not activated yet); those fall back to
        ``validate=False`` exactly like the simulator's recorder does.
        A cyclic weak order, by contrast, can never appear in a prefix
        of a well-formed log (closed suborders of an acyclic order are
        acyclic), so :class:`~repro.exceptions.CycleError` propagates.
        """
        if not self._committed:
            return None
        builder = SystemBuilder()
        for decl in self._decls:
            if decl.kind == "txn":
                if decl.root not in self._committed:
                    continue
            elif not self._active(decl):
                continue
            self._apply_decl(builder, decl)
        if self.derive == "temporal":
            self._derive_temporal(builder)
        try:
            system = builder.build()
        except (ScheduleAxiomError, ModelError):
            system = builder.build(validate=False)
        return RecordedExecution(system=system, executions=self.executions())

    # ------------------------------------------------------------------
    def _derive_temporal(self, builder: SystemBuilder) -> None:
        """Temporal mode: derive conflicts from item/mode overlap and
        weak output orders from arrival order (recorder semantics)."""
        sequences = self.executions()
        by_schedule: Dict[str, List[_Arrival]] = {}
        for arrival in self._arrivals:
            if arrival.root in self._committed:
                by_schedule.setdefault(arrival.schedule, []).append(arrival)
        for sname, arrivals in by_schedule.items():
            for i, first in enumerate(arrivals):
                if first.item is None:
                    continue
                for second in arrivals[i + 1 :]:
                    if (
                        second.item == first.item
                        and second.op != first.op
                        and self._parent(first.op) != self._parent(second.op)
                        and "w" in ((first.mode or "") + (second.mode or ""))
                    ):
                        builder.conflict(sname, first.op, second.op)
        for sname, sequence in sequences.items():
            builder.executed(sname, sequence, mode="conflicts")

    def _parent(self, op: str) -> Optional[str]:
        for decl in self._decls:
            if decl.kind == "txn" and op in decl.ops:
                return decl.txn
        return None

    # ------------------------------------------------------------------
    # snapshot support (driven by repro.stream.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """The assembler's full state as a JSON-shaped document."""
        return {
            "derive": self.derive,
            "decls": [event_to_dict(d) for d in self._decls],
            "root_of": dict(self._root_of),
            "committed": sorted(self._committed),
            "begun": sorted(self._begun),
            "commit_order": list(self._commit_order),
            "arrivals": [
                [a.schedule, a.root, a.op, a.item, a.mode]
                for a in self._arrivals
            ],
            "ended": self._ended,
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`snapshot_state` output into this (fresh)
        assembler.  Older snapshots stored each declaration as an
        ``[id, event]`` pair plus ``next_decl``/``applied``/``rebuilds``
        keys for a persistent builder; the ids and keys are ignored."""
        derive = state["derive"]
        self.derive = None if derive is None else str(derive)
        self._decls = [
            event_from_dict(doc[1] if isinstance(doc, list) else doc)
            for doc in state["decls"]
        ]
        self._root_of = {
            str(k): str(v) for k, v in state["root_of"].items()
        }
        self._committed = {str(r) for r in state["committed"]}
        self._begun = {str(r) for r in state["begun"]}
        self._commit_order = [str(r) for r in state["commit_order"]]
        self._arrivals = [
            _Arrival(
                schedule=str(schedule),
                root=str(root),
                op=str(op),
                item=None if item is None else str(item),
                mode=None if mode is None else str(mode),
            )
            for schedule, root, op, item, mode in state["arrivals"]
        ]
        self._ended = bool(state["ended"])
