"""The online Comp-C checker: live verdicts over an event stream.

:class:`IncrementalChecker` ingests :mod:`repro.io.eventlog` events one
at a time and keeps a *live verdict*: ACCEPTED-so-far, flipping to
REJECTED — with the same :class:`~repro.core.front.ReductionFailure`
witness the batch engine produces — the moment a committed prefix
closes a cycle.

Incrementality lives at level 0, where the cost is.  Schedule seed
pairs, conflicts, and committed output orders only ever *grow* as roots
commit (declarations activate, nothing retracts — see
:mod:`repro.stream.assembler`), so the checker maintains the closed
level-0 observed order across commits with
:meth:`~repro.core.orders.Relation.add_closed` over just the new seed
pairs, probes it for cycles with the O(V)
:meth:`~repro.core.orders.Relation.first_self_loop` gate, and injects
it into :meth:`~repro.core.reduction.ReductionEngine.run` via
``level0=`` instead of re-closing the leaf order from scratch on every
commit.  Higher levels re-run per commit — they are small (node counts
shrink as the reduction climbs) and their carried-closure path is
already incremental within a run.  Per-commit *assembly* is a delta
too: :meth:`~repro.stream.assembler.StreamAssembler.system` folds the
commit into the live committed system (activating only what the commit
releases, propagating only the closed pairs it adds) and rebuilds the
changed schedules from their maintained closures.  That work is timed
by a ``stream.assemble`` span inside each ``stream.ingest`` span, with
the counts of activated declarations and propagated pairs, so
``profile`` splits commit time into assembly and reduction.
``finalize`` certifies the same live system.

The checker is also *resumable*: :meth:`IncrementalChecker.snapshot_state`
/ :meth:`IncrementalChecker.restore_state` round-trip its entire state
(via :mod:`repro.stream.snapshot`), and replaying the unseen log
suffix after a restore reproduces the uninterrupted run's verdict,
witness, and canonical telemetry byte for byte.

Rejection is *sticky*: closed relations only grow, so once a committed
prefix closes a cycle every extension keeps it, and later commits are
counted (``stream.skip_after_reject``) but not re-checked.

:meth:`IncrementalChecker.finalize` is the certify-on-close step: it
re-runs the plain batch :func:`~repro.core.reduction.reduce_to_roots`
over the assembled final system under the *ambient* telemetry and
hard-asserts that the live status agrees — which makes a finished
stream's verdict and canonical telemetry byte-identical to the batch
path, the equivalence the streaming tests pin.  The per-event work is
recorded on the checker's own ``"watch"`` stream, which
:func:`~repro.obs.sink.canonical_dumps` drops, exactly like the fleet
coordinator's ``"fleet"`` stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.front import Front, ReductionFailure
from repro.core.observed import (
    ObservedOrderOptions,
    group_by_schedule,
    schedule_seed_pairs,
)
from repro.core.orders import Relation
from repro.core.reduction import (
    ReductionEngine,
    ReductionResult,
    reduce_to_roots,
)
from repro.criteria.registry import RecordedExecution
from repro.exceptions import StreamError
from repro.io.eventlog import Event
from repro.obs.telemetry import Span, Telemetry
from repro.stream.assembler import StreamAssembler

__all__ = [
    "IncrementalChecker",
    "StreamResult",
    "StreamVerdict",
    "WATCH_STREAM",
]

#: Telemetry stream for per-event/per-commit streaming work.  Listed in
#: :data:`repro.obs.sink.ENV_STREAMS`, so canonical dumps drop it — the
#: main stream stays byte-identical to a batch ``check``.
WATCH_STREAM = "watch"

ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"


@dataclass(frozen=True)
class StreamVerdict:
    """The live verdict after some prefix of the stream.

    ``status`` is ACCEPTED while every committed prefix reduces to the
    roots, REJECTED from the first commit whose reduction fails on.
    ``failure`` carries the live witness; because the maintained
    observed order interns elements in *commit* order (the batch path
    interns in declaration order), its cycle may name the same cycle
    starting from a different element than the batch witness — the
    certified batch witness is :attr:`StreamResult.reduction`'s.
    """

    status: str
    events: int
    commits: int
    failure: Optional[ReductionFailure] = None
    rejected_at_event: Optional[int] = None
    rejected_at_commit: Optional[int] = None

    @property
    def rejected(self) -> bool:
        return self.status == REJECTED

    def describe(self) -> str:
        head = (
            f"{self.status} after {self.events} events "
            f"({self.commits} commits)"
        )
        if self.failure is None:
            return head
        return (
            f"{head}; rejected at event {self.rejected_at_event} "
            f"(commit {self.rejected_at_commit}): "
            f"{self.failure.describe()}"
        )


@dataclass
class StreamResult:
    """What :meth:`IncrementalChecker.finalize` certifies.

    ``reduction`` is the plain batch result over the assembled final
    system — the canonical verdict, witness and serial order;
    ``verdict`` is the live stream verdict whose status is hard-asserted
    to agree.  ``recorded`` is the reassembled execution (``None`` when
    the stream committed nothing).
    """

    verdict: StreamVerdict
    reduction: Optional[ReductionResult]
    recorded: Optional[RecordedExecution]


class IncrementalChecker:
    """Ingest events, keep a live verdict (see module docstring)."""

    def __init__(
        self,
        options: ObservedOrderOptions = ObservedOrderOptions(),
        *,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.options = options
        self.telemetry = (
            telemetry if telemetry is not None else Telemetry(stream=WATCH_STREAM)
        )
        self.assembler = StreamAssembler()
        #: the maintained, transitively closed level-0 observed order
        self._observed0 = Relation()
        self._known_leaves: Set[str] = set()
        self._seeded: Set[Tuple[str, str]] = set()
        self._events = 0
        self._failure: Optional[ReductionFailure] = None
        self._rejected_at_event: Optional[int] = None
        self._rejected_at_commit: Optional[int] = None
        #: the most recent live reduction result (one per commit)
        self.last_result: Optional[ReductionResult] = None
        # Per-event bookkeeping is plain dict increments; the counters
        # flush to telemetry in one batch (identical totals — counters
        # aggregate by name and fields) so the amortized per-event cost
        # stays O(1) dictionary work, which BENCH_ST1 measures.
        self._kind_counts: Dict[str, int] = {}
        self._skips = 0
        self._verdict_cache: Optional[StreamVerdict] = None

    # ------------------------------------------------------------------
    @property
    def ended(self) -> bool:
        return self.assembler.ended

    def verdict(self) -> StreamVerdict:
        return StreamVerdict(
            status=ACCEPTED if self._failure is None else REJECTED,
            events=self._events,
            commits=len(self.assembler.committed_roots),
            failure=self._failure,
            rejected_at_event=self._rejected_at_event,
            rejected_at_commit=self._rejected_at_commit,
        )

    # ------------------------------------------------------------------
    def ingest(self, event: Event) -> StreamVerdict:
        """Consume one event; returns the (possibly flipped) verdict.

        The returned verdict's *status* is always current (it can only
        change at a commit, which rebuilds it); its event/commit counts
        are as of the most recent commit — call :meth:`verdict` for
        exact counts.  Non-commit events cost O(1) dictionary work.
        """
        self._events += 1
        self._kind_counts[event.kind] = (
            self._kind_counts.get(event.kind, 0) + 1
        )
        delta = self.assembler.apply(event)
        if delta is not None:
            if self._failure is not None:
                # Sticky rejection: closed relations only grow, so the
                # witnessed cycle survives every later commit.
                self._skips += 1
            else:
                with self.telemetry.span(
                    "stream.ingest", root=delta.root, commit=delta.ordinal
                ) as span:
                    self._recheck(span)
        cache = self._verdict_cache
        if delta is not None or cache is None:
            cache = self.verdict()
            self._verdict_cache = cache
        return cache

    def ingest_all(self, events: List[Event]) -> StreamVerdict:
        for event in events:
            self.ingest(event)
        return self.verdict()

    # ------------------------------------------------------------------
    def _recheck(self, span: Span) -> None:
        with self.telemetry.span("stream.assemble") as assemble:
            system = self.assembler.system()
            stats = self.assembler.last_stats
            assemble.note(
                activated=stats.activated,
                propagated=stats.propagated,
                schedules=stats.schedules,
                rebuilt=stats.rebuilt,
            )
        assert system is not None  # a commit just landed
        new_leaves = [
            leaf for leaf in system.leaves if leaf not in self._known_leaves
        ]
        self._known_leaves.update(new_leaves)
        seed_delta: List[Tuple[str, str]] = []
        for sname, members in group_by_schedule(
            system, system.leaves
        ).items():
            for pair in schedule_seed_pairs(
                system, sname, members, self.options
            ):
                if pair not in self._seeded:
                    self._seeded.add(pair)
                    seed_delta.append(pair)
        touched = self._observed0.add_closed(seed_delta, elements=new_leaves)
        gate = self._observed0.first_self_loop()
        front0 = Front.level0(
            tuple(self._observed0.elements), self._observed0.copy()
        )
        engine = ReductionEngine(
            system, self.options, telemetry=self.telemetry
        )
        result = engine.run(level0=front0)
        self.last_result = result
        span.note(
            new_leaves=len(new_leaves),
            seed_delta=len(seed_delta),
            closure_rows=touched,
            gated=gate is not None,
        )
        if gate is not None and result.failure is None:
            raise StreamError(
                "maintained observed order has a cycle (self-loop at "
                f"{gate!r}) but the reduction accepted — streaming "
                "state is corrupt"
            )
        if result.failure is not None:
            self._failure = result.failure
            self._rejected_at_event = self._events
            self._rejected_at_commit = len(self.assembler.committed_roots)

    # ------------------------------------------------------------------
    def _flush_counters(self) -> None:
        """Push the batched per-event counters into the telemetry
        stream (``stream.event`` per kind, ``stream.skip_after_reject``)
        — totals identical to counting one by one, paid once."""
        for kind, count in self._kind_counts.items():
            self.telemetry.count("stream.event", count, kind=kind)
        self._kind_counts.clear()
        if self._skips:
            self.telemetry.count("stream.skip_after_reject", self._skips)
            self._skips = 0

    # ------------------------------------------------------------------
    # snapshot support (driven by repro.stream.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, object]:
        """The checker's full resumable state.

        Values are live Python objects (packed-bitset relations, sets,
        the :class:`~repro.core.front.ReductionFailure` witness with
        its rejected front); :mod:`repro.stream.snapshot` serializes
        them through the typed checkpoint codec.  ``last_result`` and
        the verdict cache are deliberately absent — both are rebuilt by
        the next commit and never cross a restart boundary.
        """
        return {
            "assembler": self.assembler.snapshot_state(),
            "observed0": self._observed0,
            "known_leaves": self._known_leaves,
            "seeded": self._seeded,
            "events": self._events,
            "failure": self._failure,
            "rejected_at_event": self._rejected_at_event,
            "rejected_at_commit": self._rejected_at_commit,
            "kind_counts": dict(self._kind_counts),
            "skips": self._skips,
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`snapshot_state` output into this (fresh)
        checker.  Replaying the log suffix after this yields the same
        verdict, witness, and canonical telemetry bytes as an
        uninterrupted run over the whole log — the resume contract the
        snapshot tests pin."""
        assembler_state = state["assembler"]
        assert isinstance(assembler_state, dict)
        self.assembler.restore_state(assembler_state)
        observed0 = state["observed0"]
        assert isinstance(observed0, Relation)
        self._observed0 = observed0
        known_leaves = state["known_leaves"]
        assert isinstance(known_leaves, set)
        self._known_leaves = {str(leaf) for leaf in known_leaves}
        seeded = state["seeded"]
        assert isinstance(seeded, set)
        self._seeded = {(str(a), str(b)) for a, b in seeded}
        self._events = int(state["events"])  # type: ignore[call-overload]
        failure = state["failure"]
        assert failure is None or isinstance(failure, ReductionFailure)
        self._failure = failure
        rejected_at_event = state["rejected_at_event"]
        self._rejected_at_event = (
            None if rejected_at_event is None else int(rejected_at_event)  # type: ignore[call-overload]
        )
        rejected_at_commit = state["rejected_at_commit"]
        self._rejected_at_commit = (
            None if rejected_at_commit is None else int(rejected_at_commit)  # type: ignore[call-overload]
        )
        kind_counts = state["kind_counts"]
        assert isinstance(kind_counts, dict)
        self._kind_counts = {
            str(kind): int(count) for kind, count in kind_counts.items()
        }
        self._skips = int(state["skips"])  # type: ignore[call-overload]
        self._verdict_cache = None
        self.last_result = None

    # ------------------------------------------------------------------
    def finalize(self) -> StreamResult:
        """Certify the finished stream against the batch path.

        Runs the plain batch reduction over the assembled final system
        under the *ambient* telemetry — a caller that wraps this in the
        same spans ``check`` uses gets canonical telemetry
        byte-identical to a batch run — and hard-asserts the live
        status agrees (live REJECTED stays rejected by monotonicity;
        live ACCEPTED covered the full committed system at its last
        commit).  A disagreement falsifies the streaming invariant and
        raises :class:`~repro.exceptions.StreamError`.
        """
        self._flush_counters()
        recorded = self.assembler.build()
        live = self.verdict()
        if recorded is None:
            return StreamResult(verdict=live, reduction=None, recorded=None)
        reduction = reduce_to_roots(recorded.system, self.options)
        if (reduction.failure is not None) != live.rejected:
            raise StreamError(
                "streaming/batch verdict disagreement: live verdict is "
                f"{live.status} but the batch reduction "
                f"{'rejected' if reduction.failure else 'accepted'} the "
                "assembled system"
            )
        return StreamResult(
            verdict=live, reduction=reduction, recorded=recorded
        )
