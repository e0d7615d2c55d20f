"""The from-scratch replay assembly, kept for testing.

This is :meth:`repro.stream.assembler.StreamAssembler.build` as it
stood before assembly became a delta over a live committed system:
every call rescans the staged declarations, tests each
``conflict``/``order`` declaration for activation (``_active``),
replays the active ones in declaration order into a fresh
:class:`~repro.core.builder.SystemBuilder`, derives temporal conflicts
with a linear scan per parent lookup, and builds with validation,
falling back to ``validate=False`` when an axiom fails.  Its cost grows
with every declaration staged so far, on every call.  It exists solely
as the differential-testing oracle for the live assembler, and as the
naive baseline the streaming benchmark times.

It reads the staged state of an ordinary :class:`StreamAssembler`
(declarations, root assignment, commits, arrivals), which the delta
machinery never rewrites, so one assembler feeds both paths.

Not part of the library — never import this from ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.builder import SystemBuilder
from repro.core.system import CompositeSystem
from repro.criteria.registry import RecordedExecution
from repro.exceptions import ModelError, ScheduleAxiomError
from repro.io.eventlog import Event
from repro.stream.assembler import StreamAssembler


def _active(asm: StreamAssembler, decl: Event) -> bool:
    """A conflict/order pair activates when both mentioned nodes
    belong to committed roots."""
    for node in (decl.a, decl.b):
        assert node is not None
        root = asm._root_of.get(node)
        if root is None or root not in asm._committed:
            return False
    return True


def _apply_decl(builder: SystemBuilder, decl: Event) -> None:
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
        builder.conflict(decl.schedule, decl.a, decl.b)
    else:
        getattr(builder, decl.order_kind)(decl.schedule, decl.a, decl.b)


def _parent(asm: StreamAssembler, op: str) -> Optional[str]:
    for decl in filter(None, asm._decls):
        if decl.kind == "txn" and op in decl.ops:
            return decl.txn
    return None


def _derive_temporal(asm: StreamAssembler, builder: SystemBuilder) -> None:
    """Temporal mode: derive conflicts from item/mode overlap and weak
    output orders from arrival order (recorder semantics)."""
    sequences = asm.executions()
    by_schedule: Dict[str, list] = {}
    for arrival in asm._arrivals:
        if arrival.root in asm._committed:
            by_schedule.setdefault(arrival.schedule, []).append(arrival)
    for sname, arrivals in by_schedule.items():
        for i, first in enumerate(arrivals):
            if first.item is None:
                continue
            for second in arrivals[i + 1 :]:
                if (
                    second.item == first.item
                    and second.op != first.op
                    and _parent(asm, first.op) != _parent(asm, second.op)
                    and "w" in ((first.mode or "") + (second.mode or ""))
                ):
                    builder.conflict(sname, first.op, second.op)
    for sname, sequence in sequences.items():
        builder.executed(sname, sequence, mode="conflicts")


def replay_system(asm: StreamAssembler) -> Optional[CompositeSystem]:
    """The committed system by a full replay of the activated
    declarations in declaration order, or ``None`` before the first
    commit."""
    if not asm._committed:
        return None
    builder = SystemBuilder()
    for decl in filter(None, asm._decls):
        if decl.kind == "txn":
            if decl.root not in asm._committed:
                continue
        elif not _active(asm, decl):
            continue
        _apply_decl(builder, decl)
    if asm.derive == "temporal":
        _derive_temporal(asm, builder)
    try:
        return builder.build()
    except (ScheduleAxiomError, ModelError):
        return builder.build(validate=False)


class ReplayAssembler(StreamAssembler):
    """A :class:`StreamAssembler` whose every :meth:`system` call is a
    from-scratch replay — drop it into an ``IncrementalChecker`` to get
    the pre-delta checker."""

    def system(self) -> Optional[CompositeSystem]:
        return replay_system(self)

    def build(self) -> Optional[RecordedExecution]:
        system = replay_system(self)
        if system is None:
            return None
        return RecordedExecution(system=system, executions=self.executions())


def describe_system(system: CompositeSystem) -> List[object]:
    """Everything two equal assemblies must agree on, as plain data:
    schedule order, transactions, operations, conflicts, the four
    relations (elements, rows via ``==``, pairs) and the node roles."""
    doc: List[object] = [
        list(system.schedules),
        system.roots,
        system.leaves,
        system.internal_nodes,
    ]
    for name, schedule in system.schedules.items():
        doc.append(
            (
                name,
                list(schedule.transactions.items()),
                schedule.operations,
                sorted(sorted(pair) for pair in schedule.conflicts),
            )
        )
        for kind in ("weak_input", "strong_input", "weak_output", "strong_output"):
            relation = getattr(schedule, kind)
            doc.append((name, kind, relation.elements, list(relation.pairs())))
    return doc
