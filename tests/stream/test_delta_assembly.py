"""Delta assembly against the from-scratch replay oracle.

The live assembler applies each commit as a delta to closed orders it
keeps across commits; :mod:`tests.stream.replay_oracle` rebuilds the
committed system from every staged declaration.  Fed the same events,
the two must agree at every commit — schedule order, transactions,
operations, conflicts, all four relations (elements, rows, pairs),
roots and leaves, and the arrival sequences — and on malformed logs
they must raise the same exception at the same event.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core.reduction import reduce_to_roots
from repro.io import load
from repro.io.eventlog import (
    Event,
    events_from_recorded,
    interleave_by_commit,
    save_event_log,
)
from repro.stream import (
    EventLogTail,
    IncrementalChecker,
    StreamAssembler,
    read_snapshot,
    restore_checker,
    write_snapshot,
)
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import (
    fork_topology,
    join_topology,
    stack_topology,
    tree_topology,
)
from tests.stream.replay_oracle import (
    ReplayAssembler,
    describe_system,
    replay_system,
)
from tests.stream.test_checker import _shuffled_log

FIXTURE = "tests/fixtures/unsafe_lost_update.json"

_SPECS = [
    stack_topology(2),
    stack_topology(3),
    fork_topology(3),
    join_topology(2),
    tree_topology(2, 2),
]


def _agree(asm):
    """The live system equals the oracle's replay of the same state."""
    live = asm.system()
    oracle = replay_system(asm)
    assert (live is None) == (oracle is None)
    if live is not None:
        assert describe_system(live) == describe_system(oracle)
    return live


def _drive(events, asm=None, *, every_commit=True, rng=None):
    """Apply ``events``, comparing at every commit (or at a random
    subset of them, which exercises lazily applied commits) and at the
    end; returns the assembler."""
    asm = asm if asm is not None else StreamAssembler()
    for event in events:
        delta = asm.apply(event)
        if delta is not None and (every_commit or rng.random() < 0.3):
            _agree(asm)
    _agree(asm)
    return asm


def _generated(spec, seed):
    return generate(
        spec,
        WorkloadConfig(
            seed=seed,
            roots=3,
            conflict_probability=(seed % 4) * 0.1,
            intra_order_probability=0.2 if seed % 5 == 0 else 0.0,
        ),
    )


# ----------------------------------------------------------------------
# the generated population of the streaming equivalence test
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_live_system_equals_replay_at_every_commit(spec):
    for seed in range(100):
        events = events_from_recorded(_generated(spec, seed))
        if seed % 2:
            events = interleave_by_commit(events)
        asm = _drive(events)
        assert asm.executions() == {
            k: list(v) for k, v in asm.build().executions.items()
        }


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_lazily_applied_commits_match_the_replay(spec):
    rng = random.Random(spec.name)
    for seed in range(0, 100, 7):
        events = interleave_by_commit(events_from_recorded(_generated(spec, seed)))
        _drive(events, every_commit=False, rng=rng)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_any_arrival_order_matches_the_replay(data):
    """The re-interleavings of the arrival-order test: commit order
    permuted, so commits activate transactions out of declaration
    order and the live carriers are re-ordered on materialization."""
    seed = data.draw(st.integers(min_value=0, max_value=24))
    recorded = generate(
        tree_topology(2, 2),
        WorkloadConfig(seed=seed, roots=3, conflict_probability=0.2),
    )
    _drive(_shuffled_log(events_from_recorded(recorded), data))


def _abort_and_redeclare_log():
    """The abort test's log: one root runs, aborts, re-declares its
    transactions after every conflict/order declaration, and commits."""
    events = events_from_recorded(load(FIXTURE))
    root = [e.root for e in events if e.kind == "commit"][0]
    decls = [e for e in events if e.kind in ("txn", "conflict", "order")]
    arrivals = [e for e in events if e.kind in ("access", "call")]
    commits = [e for e in events if e.kind == "commit"]
    out = [events[0]] + decls
    out.append(Event(kind="begin", root=root))
    out += [a for a in arrivals if a.root == root]
    out.append(Event(kind="abort", root=root))
    out.append(Event(kind="begin", root=root))
    out += [d for d in decls if d.kind == "txn" and d.root == root]
    out += [a for a in arrivals if a.root == root]
    out += [a for a in arrivals if a.root != root]
    out += commits
    out.append(Event(kind="end"))
    return out


def test_abort_and_redeclare_matches_the_replay():
    _drive(_abort_and_redeclare_log())


def _restored(asm):
    """A fresh assembler restored from ``asm``'s snapshot, through JSON
    as the snapshot file stores it."""
    clone = StreamAssembler()
    clone.restore_state(json.loads(json.dumps(asm.snapshot_state())))
    return clone


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_restored_assemblers_match_the_replay(spec):
    """Restore at arbitrary prefixes — before the first commit, between
    commits, right after a commit whose delta was never applied — and
    keep comparing the rest of the stream."""
    rng = random.Random(f"restore:{spec.name}")
    for seed in range(0, 100, 9):
        events = interleave_by_commit(events_from_recorded(_generated(spec, seed)))
        cut = rng.randrange(1, len(events))
        asm = StreamAssembler()
        for event in events[:cut]:
            asm.apply(event)
        if rng.random() < 0.5:
            _agree(asm)
        clone = _restored(asm)
        assert clone.snapshot_state() == asm.snapshot_state()
        _drive(events[cut:], clone)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_restored_checkers_match_the_replay(spec, tmp_path):
    """A checker snapshotted to a file at an arbitrary prefix and
    restored through the snapshot codec keeps assembling what the
    replay builds, commit after commit, and reaches the uninterrupted
    run's verdict."""
    rng = random.Random(f"checker-restore:{spec.name}")
    log = tmp_path / "log.jsonl"
    snap = tmp_path / "snap.json"
    for seed in range(0, 100, 17):
        events = interleave_by_commit(events_from_recorded(_generated(spec, seed)))
        cut = rng.randrange(1, len(events))
        save_event_log(events[:cut], log)
        head = IncrementalChecker()
        tail = EventLogTail(log)
        head.ingest_all([tailed.event for tailed in tail.poll()])
        write_snapshot(snap, head, tail)
        checker = restore_checker(read_snapshot(snap))
        for event in events[cut:]:
            checker.ingest(event)
            if event.kind == "commit":
                _agree(checker.assembler)
        _agree(checker.assembler)
        whole = IncrementalChecker()
        assert checker.verdict().status == whole.ingest_all(events).status


def test_stale_rebuild_refiles_every_declaration():
    """A root that claims another root's operation and aborts marks the
    live state stale; the rebuild at the next commit must file again
    the declarations filed before it (the conflict and order waiting on
    ``b``), which the replay activates once T2 commits."""
    def txn(root, schedule, name, op):
        return Event(kind="txn", root=root, schedule=schedule, txn=name, ops=(op,))

    events = [
        Event(kind="log", derive="declared"),
        Event(kind="begin", root="T1"),
        txn("T1", "Top", "T1", "t1"),
        txn("T1", "Bottom", "t1", "a"),
        Event(kind="begin", root="T2"),
        txn("T2", "Top", "T2", "t2"),
        txn("T2", "Bottom", "t2", "b"),
        Event(kind="conflict", schedule="Bottom", a="a", b="b"),
        Event(kind="order", schedule="Bottom", order_kind="weak_output",
              a="a", b="b"),
        Event(kind="commit", root="T1"),
        txn("R3", "Side", "x", "b"),
        Event(kind="abort", root="R3"),
        Event(kind="begin", root="T2"),
        txn("T2", "Top", "T2", "t2"),
        txn("T2", "Bottom", "t2", "b"),
        Event(kind="commit", root="T2"),
    ]
    asm = StreamAssembler()
    for event in events:
        if asm.apply(event) is not None:
            system = _agree(asm)
    assert asm.last_stats.rebuilt
    assert system.schedule("Bottom").conflicts == {frozenset("ab")}


def test_restore_mid_abort_log_matches_the_replay():
    events = _abort_and_redeclare_log()
    for cut in range(1, len(events), max(1, len(events) // 12)):
        asm = StreamAssembler()
        for event in events[:cut]:
            asm.apply(event)
        _drive(events[cut:], _restored(asm))


# ----------------------------------------------------------------------
# propagated and strongly sequenced orders
# ----------------------------------------------------------------------
def _outcomes(asm):
    """The live and replayed systems described — or the exception each
    raised, as (type, message)."""
    results = []
    for assemble in (asm.system, lambda: replay_system(asm)):
        try:
            system = assemble()
        except Exception as exc:  # noqa: BLE001 - compared verbatim
            results.append((type(exc), str(exc)))
        else:
            results.append(None if system is None else describe_system(system))
    return results


def _derived_orders_log(recorded, rng):
    """A log that leaves Def. 4.7 and axiom 3 their work: intra
    orders made strong, every declared order but the weak outputs
    dropped, and strong inputs declared between random pairs of roots
    of one schedule — so strong outputs come from axiom 3 and the
    inputs of every callee from propagation."""
    system = recorded.system
    events = events_from_recorded(recorded)
    out = [events[0]]
    by_schedule = {}
    for root in system.roots:
        by_schedule.setdefault(system.schedule_of_transaction(root), []).append(root)
    for sname, roots in by_schedule.items():
        if len(roots) > 1:
            t1, t2 = sorted(rng.sample(roots, 2), key=roots.index)
            out.append(Event(kind="order", schedule=sname,
                             order_kind="strong_input", a=t1, b=t2))
    for event in events[1:]:
        if event.kind == "order" and event.order_kind != "weak_output":
            continue
        if event.kind == "txn" and event.weak:
            event = Event(kind="txn", root=event.root, schedule=event.schedule,
                          txn=event.txn, ops=event.ops, strong=event.weak)
        out.append(event)
    return interleave_by_commit(out)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_propagation_and_axiom3_deltas_match_the_replay(spec):
    rng = random.Random(f"derived:{spec.name}")
    failed = accepted = 0
    for seed in range(25):
        recorded = generate(
            spec,
            WorkloadConfig(seed=seed, roots=4, conflict_probability=0.2,
                           intra_order_probability=0.5,
                           layout=("random", "serial", "perturbed")[seed % 3]),
        )
        asm = StreamAssembler()
        for event in _derived_orders_log(recorded, rng):
            if asm.apply(event) is not None:
                live, oracle = _outcomes(asm)
                assert live == oracle
        failed += isinstance(live, tuple)
        accepted += isinstance(live, list)
    assert failed and accepted


# ----------------------------------------------------------------------
# temporal derivation
# ----------------------------------------------------------------------
def _lost_update_log():
    """Two single-level roots read then write item ``x``, interleaved
    r1 r2 w1 w2: each read precedes the other root's write."""
    events = [Event(kind="log", derive="temporal")]
    for root, ops in (("T1", ("r1", "w1")), ("T2", ("r2", "w2"))):
        events.append(
            Event(kind="txn", root=root, schedule="S", txn=root, ops=ops)
        )
        events.append(Event(kind="begin", root=root))
    for op, root, mode in (
        ("r1", "T1", "r"), ("r2", "T2", "r"), ("w1", "T1", "w"), ("w2", "T2", "w"),
    ):
        events.append(
            Event(kind="access", root=root, schedule="S", txn=root, op=op,
                  item="x", mode=mode)
        )
    events += [
        Event(kind="commit", root="T1"),
        Event(kind="commit", root="T2"),
        Event(kind="end"),
    ]
    return events


def test_temporal_lost_update_rejects_at_the_second_commit():
    events = _lost_update_log()
    checker = IncrementalChecker()
    checker.ingest_all(events)
    verdict = checker.verdict()
    assert verdict.rejected
    assert verdict.rejected_at_commit == 2
    assert verdict.rejected_at_event == len(events) - 1
    result = checker.finalize()
    assert result.reduction.failure is not None
    _drive(events)


def _temporal_log(recorded, rng):
    """A temporal-derivation log of a generated execution: transaction
    declarations, upper-level conflicts declared, leaf conflicts left
    to be derived from random items and modes on the arrivals, and
    every order left to propagation and arrival order."""
    system = recorded.system
    leaves = set(system.leaves)
    events = [Event(kind="log", derive="temporal")]
    for event in events_from_recorded(recorded)[1:]:
        if event.kind == "order":
            continue
        if event.kind == "conflict" and system.schedule(event.schedule).operations[0] in leaves:
            continue
        if event.kind == "access":
            event = Event(
                kind="access", root=event.root, schedule=event.schedule,
                txn=event.txn, op=event.op,
                item=rng.choice("xyz"), mode=rng.choice("rrw"),
            )
        events.append(event)
    return interleave_by_commit(events)


@pytest.mark.parametrize("spec", _SPECS, ids=lambda s: s.name)
def test_temporal_logs_match_the_replay(spec):
    rng = random.Random(f"temporal:{spec.name}")
    rejected = 0
    for seed in range(20):
        recorded = generate(spec, WorkloadConfig(seed=seed, roots=3))
        events = _temporal_log(recorded, rng)
        asm = _drive(events)
        checker = IncrementalChecker()
        checker.ingest_all(events)
        result = checker.finalize()
        assert describe_system(result.recorded.system) == describe_system(
            replay_system(asm)
        )
        rejected += result.verdict.rejected
    # both verdicts occur, except on fork3, whose 20 logs all happen
    # to be Comp-C
    assert rejected < 20
    assert rejected > 0 or spec.name == "fork3"


def test_temporal_parent_lookup_reads_the_index():
    """The derived-conflict parent is the first staged transaction
    listing the operation, found without scanning the declarations."""
    asm = StreamAssembler()
    for event in _lost_update_log()[:5]:
        asm.apply(event)
    assert asm._parent("w1") == "T1" and asm._parent("r2") == "T2"
    assert asm._parent("nobody") is None


# ----------------------------------------------------------------------
# error parity on malformed logs
# ----------------------------------------------------------------------
def _outcome(events, assembler_class):
    """(event index, exception type, message) of the first failure of
    a checker over ``events`` — or of its ``finalize`` (index None)."""
    checker = IncrementalChecker()
    checker.assembler = assembler_class()
    for i, event in enumerate(events):
        try:
            checker.ingest(event)
        except Exception as exc:  # noqa: BLE001 - compared verbatim
            return i, type(exc), str(exc)
    try:
        checker.finalize()
    except Exception as exc:  # noqa: BLE001
        return None, type(exc), str(exc)
    return None, None, checker.verdict().status


def _two_level(**extra):
    """T1 and T2 over schedule Top, each calling one subtransaction of
    Bottom; ``extra`` appends declarations before the commits."""
    events = [
        Event(kind="log", derive="declared"),
        Event(kind="txn", root="T1", schedule="Top", txn="T1", ops=("t1",)),
        Event(kind="txn", root="T1", schedule="Bottom", txn="t1", ops=("a",)),
        Event(kind="txn", root="T2", schedule="Top", txn="T2", ops=("t2",)),
        Event(kind="txn", root="T2", schedule="Bottom", txn="t2", ops=("b",)),
        Event(kind="conflict", schedule="Bottom", a="a", b="b"),
        Event(kind="order", schedule="Bottom", order_kind="weak_output",
              a="a", b="b"),
    ]
    events += extra.get("decls", [])
    events += [Event(kind="commit", root="T1"), Event(kind="commit", root="T2")]
    events += extra.get("tail", [])
    events.append(Event(kind="end"))
    return events


_MALFORMED = {
    "order-names-a-non-operation": _two_level(
        decls=[Event(kind="order", schedule="Bottom", order_kind="weak_output",
                     a="a", b="t2")]
    ),
    "input-names-a-non-transaction": _two_level(
        decls=[Event(kind="order", schedule="Bottom", order_kind="weak_input",
                     a="t1", b="a")]
    ),
    "strong-input-names-a-non-transaction": _two_level(
        decls=[Event(kind="order", schedule="Top", order_kind="strong_input",
                     a="T1", b="t2")]
    ),
    "operation-in-two-transactions": _two_level(
        decls=[Event(kind="txn", root="T2", schedule="Bottom", txn="t3",
                     ops=("a",))]
    ),
    "operation-in-two-schedules": _two_level(
        decls=[Event(kind="txn", root="T2", schedule="Side", txn="s2",
                     ops=("a",))]
    ),
    "cyclic-declared-weak-output": _two_level(
        decls=[Event(kind="order", schedule="Bottom", order_kind="weak_output",
                     a="b", b="a")]
    ),
    "cyclic-intra-transaction-order": _two_level(
        decls=[Event(kind="txn", root="T2", schedule="Side", txn="s2",
                     ops=("c", "d"), weak=(("c", "d"), ("d", "c")))]
    ),
    "transaction-declared-twice": _two_level(
        decls=[Event(kind="txn", root="T2", schedule="Side", txn="t2",
                     ops=("c",))]
    ),
    "conflict-names-a-non-operation": _two_level(
        decls=[Event(kind="conflict", schedule="Top", a="t1", b="b")]
    ),
    "self-conflict": _two_level(
        decls=[Event(kind="conflict", schedule="Bottom", a="a", b="a")]
    ),
    "recursive-invocation": _two_level(
        decls=[Event(kind="txn", root="T2", schedule="Bottom", txn="u",
                     ops=("T2x",)),
               Event(kind="txn", root="T2", schedule="Top", txn="T2x",
                     ops=("c",))]
    ),
    "op-taken-by-an-aborted-root-between-commits": [
        *_two_level()[:7],
        Event(kind="commit", root="T1"),
        Event(kind="txn", root="T3", schedule="Bottom", txn="t3", ops=("a",)),
        Event(kind="abort", root="T3"),
        Event(kind="commit", root="T2"),
        Event(kind="end"),
    ],
    "op-reassigned-after-its-root-committed": _two_level(
        tail=[Event(kind="txn", root="T3", schedule="Bottom", txn="t3",
                    ops=("a",)),
              Event(kind="commit", root="T3")]
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_malformed_logs_fail_like_the_replay(name):
    events = _MALFORMED[name]
    expected = _outcome(events, ReplayAssembler)
    assert _outcome(events, StreamAssembler) == expected
    if not name.startswith("op-"):
        assert expected[1] is not None, "the log is not malformed"


def _after_rejection(decls):
    """The lost-update fixture interleaved by commit, with ``decls``
    staged (for a root that commits after the rejection) right before
    the end."""
    events = interleave_by_commit(events_from_recorded(load(FIXTURE)))
    tail = [
        Event(kind="txn", root="Z", schedule="Zs", txn="Z", ops=("z1", "z2")),
        *decls,
        Event(kind="commit", root="Z"),
    ]
    return events[:-1] + tail + [events[-1]]


@pytest.mark.parametrize(
    "decls",
    [
        [Event(kind="order", schedule="Zs", order_kind="weak_output",
               a="z1", b="T1")],
        [Event(kind="order", schedule="Zs", order_kind="weak_output",
               a="z1", b="z2"),
         Event(kind="order", schedule="Zs", order_kind="weak_output",
               a="z2", b="z1")],
        [Event(kind="txn", root="Z", schedule="Zs", txn="Z2", ops=("z1",))],
    ],
    ids=["non-operation", "cycle", "operation-in-two-transactions"],
)
def test_errors_after_a_sticky_rejection_surface_at_finalize(decls):
    """After a rejection the checker stops assembling, so the delta is
    applied lazily: the malformed commit fails at ``finalize``, exactly
    where the replay fails."""
    events = _after_rejection(decls)
    expected = _outcome(events, ReplayAssembler)
    assert expected[0] is None and expected[1] is not None
    assert _outcome(events, StreamAssembler) == expected


def test_build_is_reused_until_something_commits():
    events = interleave_by_commit(
        events_from_recorded(generate(stack_topology(2), WorkloadConfig(seed=3)))
    )
    asm = StreamAssembler()
    first = None
    for event in events:
        if asm.apply(event) is not None:
            first = asm.system()
            break
    assert asm.system() is first
    assert asm.last_stats.activated == 0 and asm.last_stats.schedules == 0


def test_stream_assemble_span_nests_inside_ingest():
    """Commit time splits into assembly and reduction: each recheck's
    ``stream.ingest`` span on the watch stream encloses one
    ``stream.assemble`` span carrying the delta's counts."""
    events = events_from_recorded(
        generate(stack_topology(2), WorkloadConfig(seed=2, conflict_probability=0.0))
    )
    checker = IncrementalChecker()
    checker.ingest_all(events)
    records = [e for e in checker.telemetry.collect() if e.kind in ("enter", "exit")]
    stack, assembled = [], []
    for event in records:
        if event.kind == "enter":
            stack.append(event.name)
        else:
            assert stack.pop() == event.name
            if event.name == "stream.assemble":
                assert stack and stack[-1] == "stream.ingest"
                fields = dict(event.fields)
                assert fields["activated"] > 0
                assert fields["propagated"] >= 0
                assembled.append(fields)
    commits = [e for e in events if e.kind == "commit"]
    assert len(assembled) == len(commits)
    assert sum(f["activated"] for f in assembled) == len(
        [e for e in events if e.kind in ("txn", "conflict", "order")]
    )
    assert reduce_to_roots(checker.finalize().recorded.system).succeeded
