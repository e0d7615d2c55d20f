"""Fold a typed event stream into the committed composite system.

The assembler is the state machine between the wire format
(:mod:`repro.io.eventlog`) and the model layer: it stages declarations
under their roots, tracks root lifecycle (begin / commit / abort), and
keeps the committed composite system *live* across commits.

Activation rule: a ``txn`` declaration folds in when its root commits;
a ``conflict``/``order`` declaration folds in once *every* node it
mentions belongs to a committed root.  Declarations only ever activate
(commits are permanent; aborts discard whole staged roots before they
commit), so the committed system only grows, and so do its closed
orders.  The assembler therefore applies each commit as a **delta**:

* the committing root's ``txn`` declarations come from an index by
  root;
* the ``conflict``/``order`` declarations waiting on the root's nodes
  come from a pending index keyed by node, so nothing rescans the
  staged declarations (a declaration waits under one uncommitted node
  at a time, and moves to its other node when the first one commits);
* every schedule keeps its five closed orders (weak and strong output,
  weak and strong input, and the closure of the weak output
  generators alone, which is what Def. 4.7 propagates) and grows them
  with :meth:`~repro.core.orders.Relation.add_closed`; Def. 4.7
  propagation and the axiom-3 strong sequencing run on the closed
  pairs each insertion added, never on the whole order.

:meth:`StreamAssembler.system` applies the pending commits and
materializes the committed system: each changed schedule is rebuilt
with :meth:`~repro.core.schedule.Schedule.from_closed` from copies of
its closed orders, restricted to its transactions and operations in
*declaration* order, and unchanged schedules are reused.  The result
equals what replaying every activated declaration, in declaration
order, through a fresh :class:`~repro.core.builder.SystemBuilder`
builds with ``validate=False``: the same schedules, transactions,
operations and conflicts, and every relation with the same elements in
the same order and the same rows.  That is what keeps the streaming
path byte-compatible with the batch path — a log produced by
:func:`repro.io.eventlog.events_from_recorded` reassembles into a
system whose element orders (and hence every packed-bitset
``Relation``, witness, and telemetry byte downstream) are identical to
the original's.  Malformed logs raise the exception that replay would
raise, at the same event.  The Def. 3 axioms are not validated: a
mid-stream prefix may violate validation-only axioms the finished
system satisfies (e.g. an unordered conflict whose ordering pair has
not activated yet), which is why the replay fell back to
``validate=False`` anyway.

Commits are applied lazily, at the next :meth:`~StreamAssembler.system`
call, so a checker that stops rechecking after a rejection applies the
remaining commits once, at ``finalize``.  A log that breaks
monotonicity — a node re-declared under another root, an abort that
strips a committed node of its root — marks the live state stale.  A
stale state, like a snapshot restore, is rebuilt from the staged
declarations by the same indexing and activation path, applied to
every committed root at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro.core.orders import Relation
from repro.core.schedule import ConflictIndex, Schedule
from repro.core.system import CompositeSystem
from repro.core.transaction import Transaction
from repro.criteria.registry import RecordedExecution
from repro.exceptions import ModelError, StreamError
from repro.io.eventlog import ORDER_KINDS, Event, event_from_dict, event_to_dict

__all__ = ["AssemblyStats", "CommitDelta", "StreamAssembler"]

Pair = Tuple[str, str]

#: order kinds that relate transactions (the rest relate operations)
_INPUT_KINDS = ("weak_input", "strong_input")


@dataclass(frozen=True)
class CommitDelta:
    """What a ``commit`` event added to the committed system."""

    root: str
    ordinal: int
    txns: Tuple[str, ...]


@dataclass(frozen=True)
class AssemblyStats:
    """What one :meth:`StreamAssembler.system` call applied.

    ``activated`` is how many declarations the pending commits
    activated, ``propagated`` how many closed pairs Def. 4.7 handed to
    callee input orders, and ``schedules`` how many schedules had to be
    rebuilt (the rest were reused).  ``rebuilt`` is true when a log that
    broke monotonicity forced a rebuild of the live state from the
    staged declarations (after a restore, the first call applies every
    commit as one delta)."""

    activated: int = 0
    propagated: int = 0
    schedules: int = 0
    rebuilt: bool = False


@dataclass
class _Arrival:
    schedule: str
    root: str
    op: str
    item: Optional[str]
    mode: Optional[str]
    seq: int


#: an activated conflict/order declaration: its number and nodes
_Staged = Tuple[int, str, str]
#: activated declarations grouped by (schedule, kind)
_Groups = Dict[Tuple[str, str], List[_Staged]]


class _LiveSchedule:
    """One schedule of the live committed system.

    ``weak``/``strong`` are the closures of the weak and strong output
    generators, ``weak_out`` the closure of both (the schedule's weak
    output order; the very object ``weak`` is until the first strong
    output pair arrives), ``strong_in``/``weak_in`` its closed input
    orders.
    ``masks`` holds, for ``weak`` and ``strong``, the bitmap of the
    elements that are transactions of each callee — the rows Def. 4.7
    propagates."""

    def __init__(self, name: str) -> None:
        self.name = name
        #: smallest declaration number of an active declaration naming it
        self.first_seq: Optional[int] = None
        #: smallest arrival number of a committed arrival (temporal mode)
        self.first_arrival: Optional[int] = None
        self.txns: List[Tuple[int, Transaction]] = []
        self.txn_names: Set[str] = set()
        self.ops: Set[str] = set()
        self.conflicts: List[_Staged] = []
        #: the conflicts (declared and derived) between two distinct
        #: operations; the others wait in ``conflict_suspects`` until
        #: their nodes are operations, or a build raises replay's error
        self.conflict_index = ConflictIndex()
        self.conflict_suspects: List[Pair] = []
        #: derived conflicts keyed by the two arrival numbers
        self.derived: List[Tuple[int, int, str, str]] = []
        #: declared order pairs naming a node outside the schedule when
        #: they activated: (seq, kind, a, b)
        self.suspects: List[Tuple[int, str, str, str]] = []
        self.weak = Relation()
        self.strong = Relation()
        self.weak_out = self.weak
        self.strong_in = Relation()
        self.weak_in = Relation()
        self.masks: Dict[str, Dict[str, int]] = {"weak": {}, "strong": {}}
        #: temporal mode: op -> number of its committed arrival here
        self.arrived: Dict[str, int] = {}
        self.by_item: Dict[str, List[_Arrival]] = {}
        self.partners: Dict[str, Set[str]] = {}
        self.dirty = True
        self.built: Optional[Schedule] = None

    def mention(self, seq: int) -> None:
        if self.first_seq is None or seq < self.first_seq:
            self.first_seq = seq

    def intern(self, kind: str, node: str, callees: Dict[str, str]) -> None:
        """Add ``node`` to the ``kind`` (``"weak"``/``"strong"``)
        generator closure; a transaction of another schedule (its
        ``callees`` entry) joins that callee's mask."""
        relation = self.weak if kind == "weak" else self.strong
        if relation.mask_of((node,)):
            return
        relation.add_element(node)
        callee = callees.get(node)
        if callee is not None and callee != self.name:
            masks = self.masks[kind]
            masks[callee] = masks.get(callee, 0) | relation.mask_of((node,))

    def add_conflict(self, a: str, b: str) -> None:
        if a != b and a in self.ops and b in self.ops:
            self.conflict_index.add(a, b)
        else:
            self.conflict_suspects.append((a, b))

    def invalid_conflicts(self) -> bool:
        """Whether a conflict still names a non-operation or one
        operation twice; the ones that became valid join the map."""
        suspects = self.conflict_suspects
        self.conflict_suspects = []
        for a, b in suspects:
            self.add_conflict(a, b)
        return bool(self.conflict_suspects)

    def invalid_suspects(self) -> List[Tuple[int, str, str, str]]:
        """Suspect pairs still naming a node outside the schedule."""
        found = []
        for suspect in sorted(self.suspects):
            _seq, kind, a, b = suspect
            members = self.txn_names if kind in _INPUT_KINDS else self.ops
            if a not in members or b not in members:
                found.append(suspect)
        return found


def _transaction_of(decl: Event) -> Union[Transaction, ModelError]:
    """The declared transaction, or the error constructing it raises."""
    assert decl.txn is not None
    try:
        return Transaction(
            decl.txn, decl.ops, weak_order=decl.weak, strong_order=decl.strong
        )
    except ModelError as exc:
        return exc


def _add_closed(
    relation: Relation,
    pairs: List[Pair],
    grown: Optional[Dict[str, int]] = None,
) -> None:
    """:meth:`~repro.core.orders.Relation.add_closed` of the pairs not
    yet implied, widest first.  The closure is the same in any order;
    this one cuts per-commit assembly by a third or more on accepted
    depth-2 stacks of 50 and 100 roots."""
    relation.add_closed(relation._widest_first(pairs), grown=grown)


def _closed_on(relation: Relation, carrier: Tuple[str, ...]) -> Relation:
    """An independent copy of ``relation`` carried by ``carrier``."""
    if relation.elements == carrier:
        return relation.copy()
    return relation.restricted_to(carrier, carrier=carrier)


class StreamAssembler:
    """Incremental event-log consumer (see module docstring)."""

    def __init__(self) -> None:
        self.derive: Optional[str] = None
        #: staged declarations, indexed by declaration number (arrival
        #: order); a discarded one leaves ``None``
        self._decls: List[Optional[Event]] = []
        self._root_of: Dict[str, str] = {}
        self._committed: Set[str] = set()
        self._begun: Set[str] = set()
        self._commit_order: List[str] = []
        self._arrivals: List[_Arrival] = []
        self._next_arrival = 0
        self._ended = False
        #: staged txn declaration numbers per root, and the staged txn
        #: declarations listing each operation (for temporal parents)
        self._txn_decls_of: Dict[str, List[int]] = {}
        #: each staged txn declaration's Transaction, built on arrival
        #: (or the ModelError building it raised, for its commit to
        #: raise in replay's order)
        self._built_txns: Dict[int, Union[Transaction, ModelError]] = {}
        self._listing: Dict[str, List[int]] = {}
        self._arrivals_of: Dict[str, List[_Arrival]] = {}
        #: numbers of the conflict/order declarations waiting under a
        #: node for its root to commit (under one uncommitted node at a
        #: time), and of those whose nodes are all committed
        self._waiting: Dict[str, List[int]] = {}
        self._ready: List[int] = []
        self._pending: List[str] = []
        self._stale = False
        self._reset_live()
        #: what the latest :meth:`system` call applied
        self.last_stats = AssemblyStats()

    def _reset_live(self) -> None:
        self._schedules: Dict[str, _LiveSchedule] = {}
        self._txn_schedule: Dict[str, str] = {}
        self._errors: List[Tuple[int, ModelError]] = []
        self._arrived_ops: Set[str] = set()
        self._system: Optional[CompositeSystem] = None

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
        seq = len(self._decls)
        self._decls.append(event)
        self._stage_txn(seq, event, claim=True)
        self._built_txns[seq] = _transaction_of(event)

    def _stage_txn(self, seq: int, event: Event, *, claim: bool) -> None:
        """Index a staged txn declaration; ``claim`` assigns its nodes
        to its root (a rebuild keeps the current assignment, which a
        restore takes from the snapshot)."""
        assert event.root is not None and event.txn is not None
        self._txn_decls_of.setdefault(event.root, []).append(seq)
        for op in event.ops:
            listing = self._listing.setdefault(op, [])
            if not listing and op in self._arrived_ops:
                # a committed arrival's temporal parent changes
                self._stale = True
            listing.append(seq)
        if claim:
            for node in (event.txn, *event.ops):
                self._claim(node, event.root)

    def _claim(self, node: str, root: str) -> None:
        previous = self._root_of.get(node)
        if previous is not None and previous != root:
            # A node declared under two roots (malformed): it may leave
            # the committed system, or be a transaction whose name
            # already sits in closed orders as a plain node.
            self._stale = True
        self._root_of[node] = root

    def _apply_conflict(self, event: Event) -> None:
        self._file(len(self._decls), event)
        self._decls.append(event)

    _apply_order = _apply_conflict

    def _file(self, seq: int, event: Event) -> None:
        """File a conflict/order declaration under a node whose root has
        not committed, or as ready when both roots have.  The second
        node goes first: the later operation of an order pair tends to
        belong to the later commit, so most declarations wait once."""
        a, b = event.a, event.b
        assert a is not None and b is not None
        root_of = self._root_of
        committed = self._committed
        if root_of.get(b) not in committed:
            self._waiting.setdefault(b, []).append(seq)
        elif root_of.get(a) not in committed:
            self._waiting.setdefault(a, []).append(seq)
        else:
            self._ready.append(seq)

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
        arrival = _Arrival(
            event.schedule, event.root, event.op, event.item, event.mode,
            self._next_arrival,
        )
        self._next_arrival += 1
        self._arrivals.append(arrival)
        self._arrivals_of.setdefault(event.root, []).append(arrival)

    _apply_call = _apply_access

    def _apply_commit(self, event: Event) -> CommitDelta:
        assert event.root is not None
        if event.root in self._committed:
            raise StreamError(f"duplicate commit of root {event.root!r}")
        txns = tuple(
            str(self._decl(seq).txn)
            for seq in self._txn_decls_of.get(event.root, ())
        )
        if not txns:
            raise StreamError(
                f"commit of root {event.root!r} with no staged transactions"
            )
        self._committed.add(event.root)
        self._commit_order.append(event.root)
        self._pending.append(event.root)
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
        for seq in self._txn_decls_of.pop(root, ()):
            decl = self._decl(seq)
            self._decls[seq] = None
            self._built_txns.pop(seq, None)
            assert decl.txn is not None
            for node in (decl.txn, *decl.ops):
                if self._root_of.pop(node, root) in self._committed:
                    self._stale = True  # a committed node loses its root
            for op in decl.ops:
                listing = self._listing[op]
                if listing[0] == seq and op in self._arrived_ops:
                    self._stale = True  # a temporal parent changes
                listing.remove(seq)
                if not listing:
                    del self._listing[op]
        if self._arrivals_of.pop(root, None):
            self._arrivals = [a for a in self._arrivals if a.root != root]

    # ------------------------------------------------------------------
    def executions(self) -> Dict[str, List[str]]:
        """Per-schedule arrival sequences of committed operations."""
        result: Dict[str, List[str]] = {}
        for arrival in self._arrivals:
            if arrival.root in self._committed:
                result.setdefault(arrival.schedule, []).append(arrival.op)
        return result

    def build(self) -> Optional[RecordedExecution]:
        """The committed composite system with its arrival sequences,
        or ``None`` before the first commit (see :meth:`system`)."""
        system = self.system()
        if system is None:
            return None
        return RecordedExecution(system=system, executions=self.executions())

    def system(self) -> Optional[CompositeSystem]:
        """The committed composite system, or ``None`` before the first
        commit.

        Applies the commits since the previous call as a delta (or
        rebuilds a stale live state), then rebuilds the schedules that
        changed.  Raises what a from-scratch replay of the activated
        declarations would raise on a malformed log (``ModelError``
        and its subclasses; ``KeyError`` for a declared strong input
        naming a non-transaction).  A :class:`CycleError` cannot come
        from a prefix of a well-formed log: closed suborders of an
        acyclic order are acyclic.
        """
        if not self._committed:
            return None
        rebuilt = self._stale or self._breaks_monotonicity(self._pending)
        if rebuilt:
            self._rebuild_live()
        activated = propagated = 0
        if self._pending or self._ready:
            activated, propagated = self._activate(self._pending)
            self._pending = []
        system, schedules = self._materialize()
        self.last_stats = AssemblyStats(
            activated=activated,
            propagated=propagated,
            schedules=schedules,
            rebuilt=rebuilt,
        )
        return system

    # ------------------------------------------------------------------
    # the delta: activation and closed-order growth
    # ------------------------------------------------------------------
    def _rebuild_live(self) -> None:
        """Drop the live state, re-index every staged declaration and
        arrival, and queue every committed root, so the next activation
        applies the whole committed system as one delta."""
        self._reset_live()
        self._txn_decls_of = {}
        self._listing = {}
        self._arrivals_of = {}
        self._waiting = {}
        self._ready = []
        for seq, decl in enumerate(self._decls):
            if decl is None:
                continue
            if decl.kind == "txn":
                self._stage_txn(seq, decl, claim=False)
                if seq not in self._built_txns:
                    self._built_txns[seq] = _transaction_of(decl)
            else:
                self._file(seq, decl)
        for arrival in self._arrivals:
            self._arrivals_of.setdefault(arrival.root, []).append(arrival)
        self._pending = list(self._commit_order)
        self._stale = False

    def _activate(self, roots: List[str]) -> Tuple[int, int]:
        """Fold the commits of ``roots`` into the live state; returns
        (declarations activated, pairs propagated)."""
        txn_seqs = sorted(
            seq for root in roots for seq in self._txn_decls_of.get(root, ())
        )
        registered = [
            (seq, txn)
            for seq, txn in map(self._register, txn_seqs)
            if txn is not None
        ]
        for root in roots:
            for seq in self._txn_decls_of.get(root, ()):
                decl = self._decl(seq)
                assert decl.txn is not None
                for node in (decl.txn, *decl.ops):
                    self._release(node, root)
        pairs = self._ready
        self._ready = []
        work = _Work(self)
        for seq, txn in registered:
            work.intern_transaction(self._txn_schedule[txn.name], seq, txn)
        groups: _Groups = {}
        decls = self._decls
        for seq in pairs:
            pair = decls[seq]
            assert pair is not None and pair.a is not None and pair.b is not None
            key = (str(pair.schedule), pair.order_kind or pair.kind)
            groups.setdefault(key, []).append((seq, pair.a, pair.b))
        work.activate_pairs(groups)
        if self.derive == "temporal":
            arrivals = sorted(
                (a for root in roots for a in self._arrivals_of.get(root, ())),
                key=lambda a: a.seq,
            )
            work.arrive(arrivals)
        work.run()
        return len(txn_seqs) + len(pairs), work.propagated

    def _breaks_monotonicity(self, roots: List[str]) -> bool:
        """Would applying ``roots`` as a delta miss something a replay
        sees?  In temporal mode, a committed arrival of an operation
        that already arrived at its schedule moves the operation's
        position, and with it the orders derived from it."""
        if self.derive != "temporal":
            return False
        for root in roots:
            for arrival in self._arrivals_of.get(root, ()):
                live = self._schedules.get(arrival.schedule)
                if live is not None and arrival.op in live.arrived:
                    return True
        return False

    def _register(self, seq: int) -> Tuple[int, Optional[Transaction]]:
        """Activate one txn declaration: the builder's duplicate check,
        then its :class:`Transaction`; errors are recorded by
        declaration number (a replay raises the first one)."""
        decl = self._decl(seq)
        assert decl.txn is not None and decl.schedule is not None
        known = self._txn_schedule.get(decl.txn)
        txn = self._built_txns[seq]
        if known is not None:
            txn = ModelError(
                f"transaction {decl.txn!r} already declared on "
                f"schedule {known!r}"
            )
        if isinstance(txn, ModelError):
            self._errors.append((seq, txn))
            return seq, None
        self._txn_schedule[decl.txn] = decl.schedule
        return seq, txn

    def _release(self, node: str, root: str) -> None:
        """``root`` committed: the declarations waiting under its
        ``node`` wait under their other node if that one's root has not
        committed, and are ready otherwise."""
        if node not in self._waiting or self._root_of.get(node) != root:
            return
        decls = self._decls
        root_of = self._root_of
        committed = self._committed
        for seq in self._waiting.pop(node):
            pair = decls[seq]
            assert pair is not None and pair.a is not None and pair.b is not None
            other = pair.b if pair.a == node else pair.a
            if root_of.get(other) not in committed:
                self._waiting.setdefault(other, []).append(seq)
            else:
                self._ready.append(seq)

    def _decl(self, seq: int) -> Event:
        decl = self._decls[seq]
        assert decl is not None, f"declaration {seq} was discarded"
        return decl

    def _live(self, name: str) -> _LiveSchedule:
        live = self._schedules.get(name)
        if live is None:
            live = self._schedules[name] = _LiveSchedule(name)
        return live

    def _parent(self, op: str) -> Optional[str]:
        """The first staged transaction listing ``op`` (temporal mode's
        notion of an arrival's parent)."""
        listing = self._listing.get(op)
        return None if not listing else self._decl(listing[0]).txn

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------
    def _materialize(self) -> Tuple[CompositeSystem, int]:
        """The committed system from the live state; returns it and how
        many schedules were rebuilt.  Raises in replay's order: txn
        declarations first, then declared strong inputs naming a
        non-transaction, then each schedule's structural checks in
        schedule order, then the system's."""
        if self._errors:
            raise min(self._errors, key=lambda entry: entry[0])[1]
        ordered = sorted(
            (live for live in self._schedules.values()
             if live.first_seq is not None),
            key=lambda live: live.first_seq or 0,
        ) + sorted(
            (live for live in self._schedules.values()
             if live.first_seq is None),
            key=lambda live: live.first_arrival or 0,
        )
        invalid = {
            live.name: live.invalid_suspects() for live in ordered if live.suspects
        }
        for live in ordered:
            for _seq, kind, a, b in invalid.get(live.name, []):
                if kind == "strong_input":
                    for txn in (a, b):
                        if txn not in live.txn_names:
                            raise KeyError(txn)
        if self._system is not None and not any(
            live.dirty for live in ordered
        ):
            return self._system, 0
        self._system = None
        rebuilt = 0
        schedules = []
        for live in ordered:
            if live.dirty or live.built is None:
                live.built = self._schedule_of(live, invalid.get(live.name, []))
                live.dirty = False
                rebuilt += 1
            schedules.append(live.built)
        self._system = CompositeSystem(schedules, validate=False)
        return self._system, rebuilt

    def _schedule_of(
        self, live: _LiveSchedule, invalid: List[Tuple[int, str, str, str]]
    ) -> Schedule:
        live.txns.sort(key=lambda entry: entry[0])
        transactions = [txn for _seq, txn in live.txns]
        if invalid or live.invalid_conflicts():
            # The constructor's own checks, in its own order, over the
            # conflicts in declaration order and the offending declared
            # pairs: raises what replay raises.
            live.conflicts.sort()
            live.derived.sort()
            conflicts = [(a, b) for _seq, a, b in live.conflicts] + [
                (a, b) for _i, _j, a, b in live.derived
            ]
            declared: Dict[str, List[Pair]] = {kind: [] for kind in ORDER_KINDS}
            for _seq, kind, a, b in invalid:
                declared[kind].append((a, b))
            Schedule(
                live.name,
                transactions,
                conflicts=conflicts,
                weak_input=declared["weak_input"],
                strong_input=declared["strong_input"],
                weak_output=declared["weak_output"],
                strong_output=declared["strong_output"],
                validate=False,
            )
            raise StreamError(  # pragma: no cover - the line above raises
                f"schedule {live.name!r} accepted invalid declarations"
            )
        txns = tuple(txn.name for txn in transactions)
        ops = tuple(chain.from_iterable(txn.operations for txn in transactions))
        return Schedule.from_closed(
            live.name,
            transactions,
            conflicts=live.conflict_index,
            weak_input=_closed_on(live.weak_in, txns),
            strong_input=_closed_on(live.strong_in, txns),
            weak_output=_closed_on(live.weak_out, ops),
            strong_output=_closed_on(live.strong, ops),
        )

    # ------------------------------------------------------------------
    # snapshot support (driven by repro.stream.snapshot)
    # ------------------------------------------------------------------
    def snapshot_state(self) -> Dict[str, Any]:
        """The assembler's full state as a JSON-shaped document.  The
        live system is derived state and is not stored: a restore
        rebuilds it from the declarations."""
        return {
            "derive": self.derive,
            "decls": [event_to_dict(d) for d in self._decls if d is not None],
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
        self._built_txns = {}
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
                seq=number,
            )
            for number, (schedule, root, op, item, mode) in enumerate(
                state["arrivals"]
            )
        ]
        self._next_arrival = len(self._arrivals)
        self._ended = bool(state["ended"])
        self._rebuild_live()


class _Work:
    """One activation's worklist: generator pairs per schedule and
    order, grown with ``add_closed`` until Def. 4.7 propagation and
    axiom 3 add nothing new (their least fixed point, as
    :meth:`~repro.core.builder.SystemBuilder.build` computes it)."""

    def __init__(self, assembler: StreamAssembler) -> None:
        self.asm = assembler
        #: activated generator pairs, batched per schedule and order
        self.generators: Dict[Tuple[str, str], List[Pair]] = {}
        self.queue: List[Tuple[_LiveSchedule, str, List[Pair]]] = []
        self.propagated = 0

    def _generate(self, live: _LiveSchedule, kind: str, pairs: List[Pair]) -> None:
        self.generators.setdefault((live.name, kind), []).extend(pairs)

    # -- entry points ---------------------------------------------------
    def intern_transaction(self, schedule: str, seq: int, txn: Transaction) -> None:
        live = self.asm._live(schedule)
        live.mention(seq)
        live.txns.append((seq, txn))
        live.txn_names.add(txn.name)
        live.ops.update(txn.operations)
        live.dirty = True
        txn_schedule = self.asm._txn_schedule
        for kind in ("weak", "strong"):
            for op in txn.operations:
                live.intern(kind, op, txn_schedule)
        if live.weak_out is not live.weak:
            for op in txn.operations:
                live.weak_out.add_element(op)
        live.strong_in.add_element(txn.name)
        live.weak_in.add_element(txn.name)
        # Axiom 2: intra-transaction orders surface in the outputs.
        self._generate(live, "weak_output", list(txn.weak_order.pairs()))
        self._generate(live, "strong_output", list(txn.strong_order.pairs()))

    def activate_pairs(self, groups: "_Groups") -> None:
        """Activate conflict/order declarations, grouped by schedule and
        kind: conflicts join their schedule's list and conflict index,
        order pairs its generators (and its suspects when they name a
        node outside the schedule)."""
        temporal = self.asm.derive == "temporal"
        for (name, kind), group in groups.items():
            live = self.asm._live(name)
            live.mention(min(seq for seq, _a, _b in group))
            live.dirty = True
            if kind == "conflict":
                live.conflicts.extend(group)
                for _seq, a, b in group:
                    live.add_conflict(a, b)
                    if temporal:
                        live.partners.setdefault(a, set()).add(b)
                        live.partners.setdefault(b, set()).add(a)
                        if a in live.arrived and b in live.arrived:
                            self._execution_pair(live, a, b)
                continue
            members = live.txn_names if kind in _INPUT_KINDS else live.ops
            batch = [(a, b) for _seq, a, b in group]
            if not members.issuperset({node for pair in batch for node in pair}):
                live.suspects.extend(
                    (seq, kind, a, b)
                    for seq, a, b in group
                    if a not in members or b not in members
                )
            self._generate(live, kind, batch)

    def arrive(self, arrivals: List[_Arrival]) -> None:
        """Temporal mode: place newly committed arrivals, derive the
        conflicts they close (same item, different parents, a write
        among them), then order every conflict whose two operations
        have both arrived by arrival position."""
        asm = self.asm
        placed: List[Tuple[_LiveSchedule, str]] = []
        for arrival in arrivals:
            live = asm._live(arrival.schedule)
            live.dirty = True
            if live.first_arrival is None or arrival.seq < live.first_arrival:
                live.first_arrival = arrival.seq
            live.arrived[arrival.op] = arrival.seq
            asm._arrived_ops.add(arrival.op)
            placed.append((live, arrival.op))
            if arrival.item is None:
                continue
            same_item = live.by_item.setdefault(arrival.item, [])
            parent = asm._parent(arrival.op)
            for earlier in same_item:
                if (
                    earlier.op != arrival.op
                    and asm._parent(earlier.op) != parent
                    and "w" in (earlier.mode or "") + (arrival.mode or "")
                ):
                    first, second = sorted((earlier, arrival), key=lambda a: a.seq)
                    live.derived.append(
                        (first.seq, second.seq, first.op, second.op)
                    )
                    live.add_conflict(first.op, second.op)
                    live.partners.setdefault(first.op, set()).add(second.op)
                    live.partners.setdefault(second.op, set()).add(first.op)
            same_item.append(arrival)
        for live, op in placed:
            for other in live.partners.get(op, ()):
                if other in live.arrived:
                    self._execution_pair(live, op, other)

    def _execution_pair(self, live: _LiveSchedule, a: str, b: str) -> None:
        pair = (a, b) if live.arrived[a] < live.arrived[b] else (b, a)
        self._generate(live, "weak_output", [pair])

    # -- the fixed point ------------------------------------------------
    def run(self) -> None:
        queue = self.queue
        schedules = self.asm._schedules
        for (name, kind), pairs in self.generators.items():
            if pairs:
                queue.append((schedules[name], kind, pairs))
        self.generators = {}
        while queue:
            live, kind, pairs = queue.pop()
            live.dirty = True
            if kind == "weak_output":
                self._grow_output(live, "weak", live.weak, pairs, "weak_input")
            elif kind == "strong_output":
                self._grow_output(
                    live, "strong", live.strong, pairs, "strong_input"
                )
            elif kind == "weak_input":
                _add_closed(live.weak_in, pairs)
            else:
                grown: Dict[str, int] = {}
                _add_closed(live.strong_in, pairs, grown)
                if grown:
                    _add_closed(live.weak_in, pairs)
                self._sequence_strongly(live, grown)

    def _grow_output(
        self,
        live: _LiveSchedule,
        kind: str,
        relation: Relation,
        pairs: List[Pair],
        callee_kind: str,
    ) -> None:
        """Close new output generators, and hand the closed pairs they
        added between two transactions of one callee to that callee's
        input order (Def. 4.7)."""
        masks = live.masks[kind]
        txn_schedule = self.asm._txn_schedule
        if live.suspects:
            # Operations were interned when their transaction registered;
            # only a declared pair naming a non-operation brings news.
            ops = live.ops
            for a, b in pairs:
                for node in (a, b):
                    if node not in ops:
                        live.intern(kind, node, txn_schedule)
        grown: Dict[str, int] = {}
        _add_closed(relation, pairs, grown)
        if grown:
            if live.weak_out is live.weak and relation is live.strong:
                live.weak_out = live.weak.copy()
            if live.weak_out is not relation:
                _add_closed(live.weak_out, pairs)
        handed: Dict[str, List[Pair]] = {}
        for a, bits in grown.items():
            callee = txn_schedule.get(a)
            if callee is None or callee == live.name:
                continue
            hits = bits & masks.get(callee, 0)
            if hits:
                handed.setdefault(callee, []).extend(
                    (a, b) for b in relation.unpack(hits)
                )
        for callee, propagated in handed.items():
            self.propagated += len(propagated)
            self.queue.append(
                (self.asm._schedules[callee], callee_kind, propagated)
            )

    def _sequence_strongly(
        self, live: _LiveSchedule, grown: Dict[str, int]
    ) -> None:
        """Axiom 3 over the closed strong-input pairs just added: every
        operation pair across the two transactions is strongly
        ordered."""
        if not grown:
            return
        operations = {txn.name: txn.operations for _seq, txn in live.txns}
        sequenced: List[Pair] = []
        for t1, bits in grown.items():
            ops1 = operations.get(t1)
            if ops1 is None:
                continue  # a declared pair naming a non-transaction
            for t2 in live.strong_in.unpack(bits):
                ops2 = operations.get(t2)
                if ops2 is None:
                    continue
                sequenced.extend((a, b) for a in ops1 for b in ops2)
        if sequenced:
            self.queue.append((live, "strong_output", sequenced))
