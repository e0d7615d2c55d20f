"""The level-by-level reduction (Def. 15–16) and Theorem 1.

Starting from the level-0 front (all leaves), each step ``i``:

1. checks that every level-``i`` transaction admits a *calculation*
   (Def. 14) in some legal re-ordering of the front — the quotient
   acyclicity test of :mod:`repro.core.calculation`;
2. replaces the operations of each level-``i`` transaction by the
   transaction itself (the reduction step);
3. pulls the observed order up (Def. 10) and re-seeds it from schedule
   output orders that have become visible;
4. drops relations internal to reduced transactions;
5. keeps root transactions in the front (they are their own parent, so
   they are simply never grouped);
6. includes the input orders of the level-``i`` schedules and checks the
   new front is conflict consistent (Def. 13).

By Theorem 1, the composite execution is Comp-C **iff** all ``N`` steps
succeed.  On failure the engine returns a
:class:`repro.core.front.ReductionFailure` carrying a witness cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.core.calculation import (
    calculation_constraints,
    find_isolation_failure,
    grouping_for_level,
    witness_sequence,
)
from repro.core.front import Front, ReductionFailure
from repro.core.observed import (
    ObservedOrderOptions,
    carried_restriction,
    group_by_schedule,
    pull_up,
    pull_up_delta,
    schedule_seed_pairs,
    seed_observed_pairs,
)
from repro.core.orders import Relation, closure_counters
from repro.core.system import CompositeSystem
from repro.exceptions import ReductionError
from repro.obs.telemetry import Span, Telemetry, current


@dataclass
class LevelProfile:
    """Cost accounting for one reduction step (``check --profile``).

    ``closure_calls`` / ``closure_rows`` are deltas of the module-level
    counters in :mod:`repro.core.orders`: how many closure invocations
    the step made and how many bitset rows they actually (re)computed —
    the from-scratch path recomputes every row at every level, the
    incremental path only the rows whose reachability changed.
    """

    level: int
    seconds: float
    closure_calls: int
    closure_rows: int
    nodes: int
    observed_pairs: int


@dataclass
class ReductionResult:
    """The outcome of running the reduction on a composite system.

    ``fronts`` holds every successfully constructed front, level 0
    upward.  When ``failure`` is ``None`` the last front is the level-N
    front over the root transactions and the execution is Comp-C
    (Theorem 1).
    """

    system: CompositeSystem
    options: ObservedOrderOptions
    fronts: List[Front] = field(default_factory=list)
    failure: Optional[ReductionFailure] = None
    witnesses: List[List[str]] = field(default_factory=list)
    #: per-level cost accounting, filled in by :meth:`ReductionEngine.run`
    #: (empty when the fronts were built by direct ``next_front`` calls)
    profile: List[LevelProfile] = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.failure is None

    def profile_totals(self) -> Dict[str, float]:
        """Aggregate the per-level profile (zeroes when not profiled)."""
        return {
            "seconds": sum(p.seconds for p in self.profile),
            "closure_calls": sum(p.closure_calls for p in self.profile),
            "closure_rows": sum(p.closure_rows for p in self.profile),
        }

    @property
    def final_front(self) -> Front:
        if not self.fronts:
            raise ReductionError("reduction produced no fronts")
        return self.fronts[-1]

    def serial_order(self) -> List[str]:
        """A serial order of the root transactions witnessing correctness
        (Theorem 1's topological sort).  Raises when the reduction failed."""
        if not self.succeeded:
            raise ReductionError(
                "no serial order: the reduction failed "
                f"({self.failure.describe()})"
            )
        return self.final_front.serialization()

    def narrative(self) -> str:
        """A human-readable account of the whole reduction, front by
        front — the format the examples and the F3/F4 benchmarks print."""
        lines: List[str] = []
        for front in self.fronts:
            lines.append(
                f"level {front.level} front: "
                f"{{{', '.join(front.nodes)}}}"
            )
            obs = ", ".join(f"{a}<{b}" for a, b in front.observed.pairs())
            lines.append(f"  observed order: {obs or '(empty)'}")
            inp = ", ".join(f"{a}->{b}" for a, b in front.input_weak.pairs())
            lines.append(f"  input orders:   {inp or '(empty)'}")
        if self.failure is not None:
            lines.append(f"REJECTED -- {self.failure.describe()}")
        else:
            lines.append(
                "ACCEPTED -- serial witness: "
                + " << ".join(self.serial_order())
            )
        return "\n".join(lines)


class ReductionEngine:
    """Runs Def. 16 on one composite system.

    ``incremental`` (the default) reuses each front's already-closed
    relations: the next observed order is the closed restriction to the
    carried nodes plus a :meth:`~repro.core.orders.Relation.delta_closure`
    over the rewritten pull-up pairs and the level's seeds, and the input
    orders are closed restrictions (restriction preserves closedness)
    plus the level's schedule input pairs as a delta.  Per-schedule seed
    pairs are memoized across levels.  ``incremental=False`` keeps the
    original from-scratch closure per level — bit-identical verdicts,
    used as the baseline by the P2 benchmark and the equivalence tests.
    """

    def __init__(
        self,
        system: CompositeSystem,
        options: ObservedOrderOptions = ObservedOrderOptions(),
        *,
        incremental: bool = True,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.system = system
        self.options = options
        self.incremental = incremental
        #: explicit sink; ``None`` resolves to the ambient
        #: :func:`repro.obs.telemetry.current` at each ``run()``
        self.telemetry = telemetry
        #: (schedule, members) -> seed pairs; see ``schedule_seed_pairs``
        self._seed_cache: Dict[
            Tuple[str, Tuple[str, ...]], Tuple[Tuple[str, str], ...]
        ] = {}

    # ------------------------------------------------------------------
    def _tele(self) -> Telemetry:
        """The engine's sink: explicit if given, else the ambient one."""
        return self.telemetry if self.telemetry is not None else current()

    # ------------------------------------------------------------------
    @staticmethod
    def _close_with_delta(
        base: Relation,
        delta: List[Tuple[str, str]],
        *,
        kind: str = "observed",
    ) -> Relation:
        """Close ``base ∪ delta`` given an already-closed ``base``.

        Hybrid dispatch: per-edge in-place delta closure wins while the
        delta is no bigger than the carried closed base (carry-heavy
        levels — DAGs, mixed heights, persisting roots), but degenerates
        when new pairs swamp the carried ones, where the word-packed
        from-scratch closure is far cheaper.  The crossover was measured
        on the P2 workloads (deep stacks, dags and trees, serial
        layouts).  Both branches compute the same relation, so verdicts
        and printed fronts do not depend on the dispatch.

        ``kind`` labels the call site (``observed`` / ``input-weak`` /
        ``input-strong``); the engine ignores it, but the P2 closure-path
        measurement hooks this method and uses the label to isolate the
        observed-order maintenance (Def. 10.4) from input bookkeeping.
        """
        if len(delta) <= max(16, len(base)):
            base.add_closed(delta)
            return base
        base.add_all(delta)
        return base.transitive_closure()

    def _seeds(
        self,
        nodes: Tuple[str, ...],
        *,
        covered: "Optional[set]" = None,
    ) -> List[Tuple[str, str]]:
        """Seed pairs for ``nodes``, memoized per (schedule, members).

        Front nodes persist across levels (roots stay until the end), so
        without the cache every level redoes the full O(members²)
        conflict scan for every schedule that merely carried its members
        over.  ``covered`` marks nodes carried from the previous front:
        a schedule whose members are all covered re-contributes pairs
        that the previous level already seeded and closed in — pairs
        between two carried nodes survive the carried restriction — so
        the whole schedule is skipped.
        """
        out: List[Tuple[str, str]] = []
        for sname, members in group_by_schedule(self.system, nodes).items():
            if covered is not None and all(m in covered for m in members):
                continue  # already closed into the carried base
            key = (sname, tuple(members))
            cached = self._seed_cache.get(key)
            if cached is None:
                cached = schedule_seed_pairs(
                    self.system, sname, members, self.options
                )
                self._seed_cache[key] = cached
            out.extend(cached)
        return out

    def level0_front(self) -> Front:
        """Def. 15: the (unique) front over all leaves."""
        leaves = tuple(self.system.leaves)
        observed = Relation(elements=leaves)
        if self.incremental:
            observed.add_all(self._seeds(leaves))
        else:
            observed.add_all(
                seed_observed_pairs(self.system, leaves, self.options)
            )
        return Front(
            level=0,
            nodes=leaves,
            observed=observed.transitive_closure(),
            input_weak=Relation(elements=leaves),
            input_strong=Relation(elements=leaves),
        )

    def next_front(
        self,
        front: Front,
        *,
        _prepared: "Optional[tuple]" = None,
    ) -> Union[Front, ReductionFailure]:
        """One reduction step: construct the level-``i+1`` front, or
        explain why none exists.

        ``_prepared`` lets :meth:`run` pass an already-computed
        ``(grouping, constraints)`` pair so the witness extraction and
        the step share the work.
        """
        level = front.level + 1
        system = self.system
        tele = self._tele()
        if _prepared is None:
            self._check_materialization(front, level)
            grouping = grouping_for_level(system, front.nodes, level)
            constraints = calculation_constraints(system, front, grouping)
        else:
            grouping, constraints = _prepared
        failure = find_isolation_failure(constraints, grouping)
        if failure is not None:
            tele.count("reduce.isolation_reject")
            return failure

        new_nodes = grouping.new_nodes(front.nodes)
        # A level-i transaction with no operations is grouped from
        # nothing, but it still becomes a front node (Def. 16 step 2 —
        # its calculation is the empty sequence, trivially isolated).
        present = set(new_nodes)
        empties = tuple(
            tname
            for sname in system.schedules_at_level(level)
            for tname in system.schedule(sname).transaction_names
            if tname not in present
        )
        new_nodes = new_nodes + empties
        rep = grouping.rep
        if self.incremental:
            # The carried part of the pull-up (pairs between two ungrouped
            # nodes) is exactly front.observed restricted to those nodes —
            # and a restriction of a closed relation is closed, so it
            # serves as the delta-closure base.  Everything else (the
            # rewritten, Def.-10-gated pairs, plus this level's seeds) is
            # the delta.
            grouped = frozenset(
                n for n in front.observed.elements if rep(n) != n
            )
            observed = carried_restriction(front.observed, rep, grouped)
            for node in new_nodes:
                observed.add_element(node)
            delta = pull_up_delta(
                system, front.observed, rep, self.options, grouped=grouped
            )
            carried = set(front.observed.elements) - grouped
            delta.extend(self._seeds(new_nodes, covered=carried))
            observed = self._close_with_delta(observed, delta, kind="observed")
        else:
            observed = pull_up(system, front.observed, rep, self.options)
            for node in new_nodes:
                observed.add_element(node)
            observed.add_all(
                seed_observed_pairs(system, new_nodes, self.options)
            )
            observed = observed.transitive_closure()

        input_weak = front.input_weak.restricted_to(new_nodes)
        input_strong = front.input_strong.restricted_to(new_nodes)
        for node in new_nodes:
            input_weak.add_element(node)
            input_strong.add_element(node)
        weak_delta: List[Tuple[str, str]] = []
        strong_delta: List[Tuple[str, str]] = []
        for sname in system.schedules_at_level(level):
            schedule = system.schedule(sname)
            weak_delta.extend(schedule.weak_input.pairs())
            strong_delta.extend(schedule.strong_input.pairs())
        if self.incremental:
            # front.input_* are closed (engine invariant), and restriction
            # preserves closedness — only the new schedules' input pairs
            # need propagating.
            input_weak = self._close_with_delta(
                input_weak, weak_delta, kind="input-weak"
            )
            input_strong = self._close_with_delta(
                input_strong, strong_delta, kind="input-strong"
            )
        else:
            input_weak.add_all(weak_delta)
            input_strong.add_all(strong_delta)
            input_weak = input_weak.transitive_closure()
            input_strong = input_strong.transitive_closure()

        candidate = Front(
            level=level,
            nodes=new_nodes,
            observed=observed,
            input_weak=input_weak,
            input_strong=input_strong,
        )
        tele.count("reduce.cc_check")
        cycle = candidate.consistency_violation()
        if cycle is not None:
            tele.count("reduce.cc_reject")
            return ReductionFailure(
                level=level, stage="cc", cycle=cycle, rejected_front=candidate
            )
        return candidate

    def _check_materialization(self, front: Front, level: int) -> None:
        """Engine invariant: every operation of every level-``level``
        transaction must already be a front node."""
        members = set(front.nodes)
        for sname in self.system.schedules_at_level(level):
            for tname in self.system.schedule(sname).transaction_names:
                for op in self.system.children(tname):
                    if op not in members:
                        raise ReductionError(
                            f"operation {op!r} of level-{level} transaction "
                            f"{tname!r} is not in the level-{front.level} "
                            "front — reduction invariant broken"
                        )

    # ------------------------------------------------------------------
    def _note_level(
        self, span: Span, front: Front, before: Dict[str, int]
    ) -> None:
        """Attach the level's cost fields to its telemetry span (called
        inside the span, before the exit event is emitted)."""
        after = closure_counters()
        span.note(
            closure_calls=after["calls"] - before["calls"],
            closure_rows=after["rows"] - before["rows"],
            nodes=len(front.nodes),
            observed_pairs=len(front.observed),
        )

    def _record_level(
        self,
        result: ReductionResult,
        front: Front,
        span: Span,
    ) -> None:
        """Fill one :class:`LevelProfile` row from the finished span's
        duration and the cost fields noted by :meth:`_note_level`."""
        notes = span.notes
        result.profile.append(
            LevelProfile(
                level=front.level,
                seconds=span.seconds,
                closure_calls=int(notes.get("closure_calls", 0)),
                closure_rows=int(notes.get("closure_rows", 0)),
                nodes=len(front.nodes),
                observed_pairs=len(front.observed),
            )
        )

    def _record_failure(
        self,
        result: ReductionResult,
        failure: ReductionFailure,
        span: Span,
    ) -> ReductionResult:
        if failure.rejected_front is not None:
            self._record_level(result, failure.rejected_front, span)
        result.failure = failure
        return result

    def run(
        self,
        *,
        stop_level: Optional[int] = None,
        level0: Optional[Front] = None,
    ) -> ReductionResult:
        """Run the reduction up to ``stop_level`` (default: the system
        order ``N``, i.e. all the way to the roots).

        ``level0`` injects a pre-built level-0 front instead of calling
        :meth:`level0_front` — the streaming checker maintains the leaf
        observed order across commits with
        :meth:`~repro.core.orders.Relation.add_closed` deltas and feeds
        it here, skipping the from-scratch seed-and-close step that
        dominates the per-commit cost.  The injected front must cover
        exactly the system's leaves with a transitively closed observed
        order; the usual conflict-consistency check still runs on it,
        so verdicts cannot depend on the caller's maintenance being
        trusted.
        """
        result = ReductionResult(system=self.system, options=self.options)
        tele = self._tele()
        target = self.system.order if stop_level is None else stop_level
        if target > self.system.order:
            raise ReductionError(
                f"requested level {target} exceeds the system order "
                f"{self.system.order}"
            )
        with tele.span("reduce.level", level=0) as span:
            before = closure_counters()
            if level0 is None:
                front = self.level0_front()
            else:
                if level0.level != 0:
                    raise ReductionError(
                        f"injected front has level {level0.level}, "
                        "expected 0"
                    )
                if set(level0.nodes) != set(self.system.leaves):
                    raise ReductionError(
                        "injected level-0 front does not cover the "
                        "system's leaves"
                    )
                front = level0
            tele.count("reduce.cc_check")
            cycle = front.consistency_violation()
            self._note_level(span, front, before)
        self._record_level(result, front, span)
        if cycle is not None:
            tele.count("reduce.cc_reject")
            result.failure = ReductionFailure(level=0, stage="cc", cycle=cycle)
            return result
        result.fronts.append(front)
        while front.level < target:
            with tele.span("reduce.level", level=front.level + 1) as span:
                before = closure_counters()
                self._check_materialization(front, front.level + 1)
                grouping = grouping_for_level(
                    self.system, front.nodes, front.level + 1
                )
                constraints = calculation_constraints(
                    self.system, front, grouping
                )
                outcome = self.next_front(
                    front, _prepared=(grouping, constraints)
                )
                shown = (
                    outcome.rejected_front
                    if isinstance(outcome, ReductionFailure)
                    else outcome
                )
                if shown is not None:
                    self._note_level(span, shown, before)
            if isinstance(outcome, ReductionFailure):
                return self._record_failure(result, outcome, span)
            result.witnesses.append(
                witness_sequence(constraints, grouping, front.nodes)
            )
            front = outcome
            self._record_level(result, front, span)
            result.fronts.append(front)
        if target == self.system.order and result.succeeded:
            expected = set(self.system.roots)
            if set(front.nodes) != expected:  # pragma: no cover - invariant
                raise ReductionError(
                    "level-N front is not the root set: "
                    f"{set(front.nodes)} != {expected}"
                )
        return result


def reduce_to_roots(
    system: CompositeSystem,
    options: ObservedOrderOptions = ObservedOrderOptions(),
    *,
    incremental: bool = True,
    telemetry: Optional[Telemetry] = None,
) -> ReductionResult:
    """Run the full reduction (Theorem 1 decision procedure)."""
    return ReductionEngine(
        system, options, incremental=incremental, telemetry=telemetry
    ).run()
