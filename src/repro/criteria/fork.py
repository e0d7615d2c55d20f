"""Fork schedules and Fork Conflict Consistency (Def. 23–24, Thm. 3).

A *fork* is one caller schedule ``S_F`` whose operations are served by
``n`` disjoint callee schedules ``S_1 … S_n`` — the shape of a
distributed transaction or a federated database accessed through a
coordinator.  Operations handed to different branches must commute
(Def. 23.3 — the branches manage disjoint data): a caller that declares
a conflict across branches does not make a fork.

FCC — the caller conflict consistent and the branch orders jointly
acyclic — characterizes Comp-C on forks (Theorem 3, validated by the T3
benchmark).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.orders import Relation
from repro.core.system import CompositeSystem


def fork_parts(
    system: CompositeSystem,
) -> Optional[Tuple[str, List[str]]]:
    """``(S_F, [S_1 … S_n])`` when the system is a fork, else ``None``.

    Structure: exactly two levels; a single top schedule invoking every
    bottom schedule; every bottom transaction invoked by the top
    (``O_{S_F} = ∪ T_{S_i}``); bottom schedules host only leaves.  And
    Def. 23.3: operations served by different branches commute, so a
    caller conflict between two of them makes the system no fork —
    Theorem 3 does not apply and the reduction has to decide it.
    """
    if system.order != 2:
        return None
    tops = system.schedules_at_level(2)
    if len(tops) != 1:
        return None
    top = tops[0]
    branches = list(system.schedules_at_level(1))
    top_ops = set(system.schedule(top).operations)
    branch_txns = set()
    for branch in branches:
        schedule = system.schedule(branch)
        branch_txns.update(schedule.transaction_names)
        if any(system.is_transaction(op) for op in schedule.operations):
            return None
    if top_ops != branch_txns:
        return None
    for pair in system.schedule(top).conflicts:
        a, b = tuple(pair)
        if system.schedule_of_transaction(a) != system.schedule_of_transaction(b):
            return None
    return top, branches


def is_fork(system: CompositeSystem) -> bool:
    """Structural test for Def. 23."""
    return fork_parts(system) is not None


def branch_order_union(system: CompositeSystem, branches: List[str]) -> Relation:
    """``⋃ (serialization_{S_i} ∪ →_{S_i})`` over all branches — the
    joint relation Def. 24 requires to be acyclic.  Branch transaction
    sets are disjoint, so this is acyclic iff every branch is CC; the
    union form is kept because it is the paper's literal definition."""
    union = Relation()
    for branch in branches:
        schedule = system.schedule(branch)
        union = union.union(schedule.serialization_order(), schedule.weak_input)
    return union


def is_fcc(system: CompositeSystem) -> bool:
    """Def. 24: the caller is CC and the branch order union is acyclic."""
    parts = fork_parts(system)
    if parts is None:
        raise ValueError("FCC is only defined for fork schedules (Def. 23)")
    top, branches = parts
    if not system.schedule(top).is_conflict_consistent():
        return False
    return branch_order_union(system, branches).is_acyclic()
