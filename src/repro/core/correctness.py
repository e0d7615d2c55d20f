"""Composite correctness — Comp-C (Def. 20, via Theorem 1).

The public entry point of the library: run the reduction; the execution
is Comp-C exactly when a level-N front exists.  The returned
:class:`CorrectnessReport` bundles the verdict with the whole front
chain, a serial witness over the root transactions (when correct) and a
counterexample cycle (when not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.front import Front, ReductionFailure
from repro.core.observed import ObservedOrderOptions
from repro.core.reduction import ReductionResult, reduce_to_roots
from repro.core.system import CompositeSystem


@dataclass
class CorrectnessReport:
    """Verdict and evidence for one composite execution."""

    system: CompositeSystem
    correct: bool
    reduction: ReductionResult
    serial_witness: Optional[List[str]] = None

    @property
    def failure(self) -> Optional[ReductionFailure]:
        return self.reduction.failure

    @property
    def fronts(self) -> List[Front]:
        return self.reduction.fronts

    @property
    def levels_completed(self) -> int:
        """How many reduction steps succeeded (== system order iff correct)."""
        return self.fronts[-1].level if self.fronts else -1

    def narrative(self) -> str:
        """Multi-line, human-readable account (used by examples/benches)."""
        head = (
            f"composite system of order {self.system.order} with "
            f"{len(self.system.schedules)} schedules, "
            f"{len(self.system.roots)} composite transactions, "
            f"{len(self.system.leaves)} leaf operations"
        )
        return head + "\n" + self.reduction.narrative()

    def explain(self) -> str:
        """Root-cause report for a rejection: each edge of the
        counterexample cycle traced back to concrete conflicting
        accesses (see :mod:`repro.core.diagnosis`).  Raises for correct
        executions."""
        from repro.core.diagnosis import explain_failure

        return explain_failure(self.reduction)

    def __repr__(self) -> str:
        verdict = "Comp-C" if self.correct else "NOT Comp-C"
        return f"CorrectnessReport({verdict}, levels={self.levels_completed})"


def check_composite_correctness(
    system: CompositeSystem,
    options: ObservedOrderOptions = ObservedOrderOptions(),
) -> CorrectnessReport:
    """Decide Comp-C for a composite execution (Theorem 1).

    Examples
    --------
    >>> from repro.core.builder import SystemBuilder
    >>> b = SystemBuilder()
    >>> _ = b.schedule("S1").transaction("T1", "S1", ["a", "b"])
    >>> _ = b.transaction("T2", "S1", ["c"])
    >>> _ = b.conflict("S1", "a", "c")
    >>> _ = b.conflict("S1", "c", "b")
    >>> _ = b.executed("S1", ["a", "c", "b"])
    >>> check_composite_correctness(b.build()).correct
    False

    The classic lost-update interleaving: ``T2`` reads/writes between two
    conflicting operations of ``T1``, so ``T1`` cannot be isolated.
    """
    reduction = reduce_to_roots(system, options)
    if reduction.succeeded:
        return CorrectnessReport(
            system=system,
            correct=True,
            reduction=reduction,
            serial_witness=reduction.serial_order(),
        )
    return CorrectnessReport(system=system, correct=False, reduction=reduction)


def is_composite_correct(
    system: CompositeSystem,
    options: ObservedOrderOptions = ObservedOrderOptions(),
) -> bool:
    """Boolean-only convenience wrapper around
    :func:`check_composite_correctness`."""
    return reduce_to_roots(system, options).succeeded
