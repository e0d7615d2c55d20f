"""Join schedules, the ghost graph and JCC (Def. 25–27, Thm. 4).

A *join* is the mirror image of a fork: ``n`` caller schedules
``S_1 … S_n`` share one callee schedule ``S_J`` — the shape of several
independent applications hitting one database.  The difficulty is that
transactions of different callers share no schedule, yet interfere
through the callee; the **ghost graph** (Def. 26) materializes exactly
those hidden dependencies (it is the two-level special case of the
observed order, as the Theorem 4 proof notes: ``<_o = 𝒢 ∪ ⋃ ⇝_{S_i}``).

JCC — the callee conflict consistent and the ghost graph joined with
every caller's serialization and input orders acyclic — characterizes
Comp-C on joins (Theorem 4, validated by the T4 benchmark).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.orders import Relation
from repro.core.system import CompositeSystem


def join_parts(
    system: CompositeSystem,
) -> Optional[Tuple[List[str], str]]:
    """``([S_1 … S_n], S_J)`` when the system is a join, else ``None``.

    Structure: exactly two levels; a single bottom schedule; every top
    operation is a transaction of the bottom schedule; tops host the
    roots.
    """
    if system.order != 2:
        return None
    bottoms = system.schedules_at_level(1)
    if len(bottoms) != 1:
        return None
    bottom = bottoms[0]
    tops = list(system.schedules_at_level(2))
    bottom_txns = set(system.schedule(bottom).transaction_names)
    top_ops = set()
    for top in tops:
        top_ops.update(system.schedule(top).operations)
    if top_ops != bottom_txns:
        return None
    return tops, bottom


def is_join(system: CompositeSystem) -> bool:
    """Structural test for Def. 25."""
    return join_parts(system) is not None


def ghost_graph(system: CompositeSystem, bottom: str) -> Relation:
    """Def. 26: ``T 𝒢 T'`` when children ``t`` of ``T`` and ``t'`` of
    ``T'`` (transactions of *different* caller schedules) are ordered by
    the callee.

    The callee's order here is the transitive closure of its
    serialization and input orders — the level-1 order the Thm-4 proof
    reads ``𝒢`` off.  A direct-pairs-only graph misses a path that
    passes through two operations of one caller which that caller lets
    commute: ``t9 ⇝ t8 ⇝ t4`` with ``t8``, ``t4`` of the same caller
    still orders ``T(t9)`` before ``T(t4)``.
    """
    schedule = system.schedule(bottom)
    callee_order = schedule.serialization_order().union(schedule.weak_input)
    ghost = Relation()
    for t, t2 in callee_order.transitive_closure().pairs():
        parent, parent2 = system.parent(t), system.parent(t2)
        if parent == parent2:
            continue
        owner = system.schedule_of_transaction(parent)
        owner2 = system.schedule_of_transaction(parent2)
        if owner != owner2:
            ghost.add(parent, parent2)
    return ghost


def is_jcc(system: CompositeSystem) -> bool:
    """Def. 27: callee CC, and ghost graph ∪ caller orders acyclic."""
    parts = join_parts(system)
    if parts is None:
        raise ValueError("JCC is only defined for join schedules (Def. 25)")
    tops, bottom = parts
    if not system.schedule(bottom).is_conflict_consistent():
        return False
    combined = ghost_graph(system, bottom)
    for top in tops:
        schedule = system.schedule(top)
        combined = combined.union(
            schedule.serialization_order(), schedule.weak_input
        )
    return combined.is_acyclic()
