"""The list-scan Def. 4.7 propagation, kept for testing.

This is ``SystemBuilder.build``'s order resolution and its
``_propagate`` fixed point exactly as they stood before propagation
moved to set-backed order collections and a dirty-schedule worklist:
every order collection is a list, membership is a linear scan, and
every pass re-closes every schedule's outputs and re-expands every
schedule's closed strong input.  Its cost is quadratic in closed pairs,
so keep the inputs small.  It exists solely as the differential-testing
oracle for :meth:`repro.core.builder.SystemBuilder._propagate`.

Not part of the library — never import this from ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.builder import SystemBuilder, _execution_pairs
from repro.core.orders import Relation
from repro.core.schedule import Schedule
from repro.core.system import CompositeSystem
from repro.exceptions import ModelError

Pair = Tuple[str, str]
ListOrders = Dict[str, Dict[str, List[Pair]]]


def list_scan_resolve(
    builder: SystemBuilder, *, propagate_orders: bool = True
) -> ListOrders:
    """Every schedule's resolved order lists, as ``build`` passed them to
    :class:`Schedule` before the rewrite."""
    drafts = builder._drafts
    if not drafts:
        raise ModelError("no schedules declared")
    resolved: ListOrders = {}
    for name, draft in drafts.items():
        weak_out = list(draft.weak_output)
        strong_out = list(draft.strong_output)
        if draft.execution is not None:
            weak_out.extend(
                _execution_pairs(
                    draft.execution, draft.execution_mode, draft.conflicts
                )
            )
        for txn in draft.transactions.values():
            weak_out.extend(txn.weak_order.pairs())
            strong_out.extend(txn.strong_order.pairs())
        for t1, t2 in draft.strong_input:
            ops1 = draft.transactions[t1].operations
            ops2 = draft.transactions[t2].operations
            for a in ops1:
                for b in ops2:
                    strong_out.append((a, b))
        resolved[name] = {
            "weak_output": weak_out,
            "strong_output": strong_out,
            "weak_input": list(draft.weak_input),
            "strong_input": list(draft.strong_input),
        }
    if propagate_orders:
        _list_scan_propagate(builder, resolved)
    return resolved


def _list_scan_propagate(builder: SystemBuilder, resolved: ListOrders) -> None:
    drafts = builder._drafts
    txn_schedule = builder._txn_schedule
    changed = True
    passes = 0
    while changed:
        passes += 1
        if passes > 2 * len(drafts) + 4:
            raise ModelError("order propagation did not converge")
        changed = False
        for name in drafts:
            orders = resolved[name]
            for kind_out, kind_in in (
                ("weak_output", "weak_input"),
                ("strong_output", "strong_input"),
            ):
                closed = Relation(orders[kind_out]).transitive_closure()
                for a, b in closed.pairs():
                    sa = txn_schedule.get(a)
                    sb = txn_schedule.get(b)
                    if sa is None or sa != sb or sa == name:
                        continue
                    target = resolved[sa][kind_in]
                    if (a, b) not in target:
                        target.append((a, b))
                        changed = True
        for name, draft in drafts.items():
            orders = resolved[name]
            closed_in = Relation(orders["strong_input"]).transitive_closure()
            for t1, t2 in closed_in.pairs():
                ops1 = draft.transactions[t1].operations
                ops2 = draft.transactions[t2].operations
                for a in ops1:
                    for b in ops2:
                        if (a, b) not in orders["strong_output"]:
                            orders["strong_output"].append((a, b))
                            changed = True


def list_scan_build(
    builder: SystemBuilder,
    *,
    validate: bool = True,
    propagate_orders: bool = True,
) -> CompositeSystem:
    """``builder.build(...)`` as it was computed before the rewrite."""
    resolved = list_scan_resolve(builder, propagate_orders=propagate_orders)
    schedules = []
    for name, draft in builder._drafts.items():
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


def probed_violations(system: CompositeSystem) -> List[Tuple[str, str, str, Pair, str]]:
    """Def. 4.7 violations found by probing every operation pair of every
    schedule, the way ``iter_order_propagation_violations`` did before
    it walked masked output rows: ``(caller, callee, kind, pair,
    message)`` in the order it yielded them."""
    found = []
    schedule_of_txn = {
        txn: name
        for name, schedule in system.schedules.items()
        for txn in schedule.transaction_names
    }
    for sname, schedule in system.schedules.items():
        ops = schedule.operations
        for a in ops:
            sa = schedule_of_txn.get(a)
            if sa is None:
                continue
            for b in ops:
                if a == b or schedule_of_txn.get(b) != sa:
                    continue
                callee = system.schedule(sa)
                if (a, b) in schedule.weak_output and (
                    a,
                    b,
                ) not in callee.weak_input:
                    found.append(
                        (
                            sname,
                            sa,
                            "weak",
                            (a, b),
                            f"Def. 4.7 violated: {a} < {b} in the output of "
                            f"{sname!r} but {a} -> {b} missing from the "
                            f"input order of {sa!r}",
                        )
                    )
                if (a, b) in schedule.strong_output and (
                    a,
                    b,
                ) not in callee.strong_input:
                    found.append(
                        (
                            sname,
                            sa,
                            "strong",
                            (a, b),
                            f"Def. 4.7 violated: {a} << {b} in the output of "
                            f"{sname!r} but {a} ->> {b} missing from the "
                            f"strong input order of {sa!r}",
                        )
                    )
    return found
