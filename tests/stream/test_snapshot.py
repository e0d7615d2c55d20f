"""Snapshot/resume contract: a checker frozen after ANY prefix and
resumed over the suffix is byte-for-byte the uninterrupted watch —
same verdict, same witness, same canonical telemetry — and snapshots
that cannot be trusted (corrupt, wrong version, log diverged or
truncated) are rejected with the right CTX diagnostic instead of
resuming lying state."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import SnapshotError
from repro.io.eventlog import dumps_event, events_from_recorded
from repro.obs import canonical_dumps
from repro.obs.sink import sort_events, to_record
from repro.obs.telemetry import Telemetry, current, using
from repro.stream import (
    SNAPSHOT_VERSION,
    EventLogTail,
    IncrementalChecker,
    SnapshotWriter,
    read_snapshot,
    restore_checker,
    restore_tail,
    verify_snapshot,
    write_snapshot,
)
from repro.workloads.generator import WorkloadConfig, generate
from repro.workloads.topologies import stack_topology

SPEC = stack_topology(3)


def _workload(seed):
    recorded = generate(
        SPEC,
        WorkloadConfig(seed=seed, roots=3, conflict_probability=0.2),
    )
    return events_from_recorded(recorded)


def _write_log(path, events):
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(dumps_event(event) + "\n")


def _records(telemetry):
    return [to_record(e) for e in sort_events(telemetry.collect())]


def _watch(log_path, *, snapshot=None, resume_from=None):
    """A ``cmd_watch``-shaped run over a complete log file: ambient
    main-stream command span, watch records absorbed at the end."""
    telemetry = Telemetry(stream="main")
    with using(telemetry):
        with telemetry.span("cli.command", command="watch"):
            if resume_from is not None:
                document = read_snapshot(resume_from)
                verify_snapshot(
                    document, log_path, snapshot_path=str(resume_from)
                )
                checker = restore_checker(document)
                tail = restore_tail(document, log_path)
            else:
                checker = IncrementalChecker()
                tail = EventLogTail(log_path)
            writer = (
                SnapshotWriter(snapshot, telemetry=checker.telemetry)
                if snapshot is not None
                else None
            )
            replayed = 0
            while True:
                events = tail.poll()
                for tailed in events:
                    checker.ingest(tailed.event)
                    replayed += 1
                if writer is not None and events:
                    writer.maybe(checker, tail)
                if checker.ended or not events:
                    break
            result = checker.finalize()
            current().absorb(checker.telemetry.collect())
    return result, _records(telemetry), replayed


class TestRoundTrip:
    def test_resume_matches_uninterrupted_byte_for_byte(self, tmp_path):
        events = _workload(seed=11)
        log = tmp_path / "log.jsonl"
        _write_log(log, events)
        ref_result, ref_records, ref_replayed = _watch(str(log))
        assert ref_replayed == len(events)

        # watch half the log, snapshotting as we go
        half = tmp_path / "half.jsonl"
        _write_log(half, events[: len(events) // 2])
        snap = tmp_path / "snap.json"
        telemetry = Telemetry(stream="main")
        with using(telemetry):
            with telemetry.span("cli.command", command="watch"):
                checker = IncrementalChecker()
                tail = EventLogTail(str(half))
                writer = SnapshotWriter(
                    str(snap), telemetry=checker.telemetry
                )
                for tailed in tail.poll():
                    checker.ingest(tailed.event)
                writer.maybe(checker, tail)
        assert writer.written == 1

        # the snapshot binds to the half log's prefix; the full log
        # shares that prefix, so resume over it replays the suffix only
        _write_log(half, events)
        result, records, replayed = _watch(
            str(half), resume_from=str(snap)
        )
        assert replayed == len(events) - len(events) // 2
        assert result.verdict.rejected == ref_result.verdict.rejected
        assert result.reduction is not None
        assert ref_result.reduction is not None
        assert result.reduction.failure == ref_result.reduction.failure
        assert canonical_dumps(records) == canonical_dumps(ref_records)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(0, 7), frac=st.floats(0.05, 0.95))
    def test_any_prefix_snapshot_resumes_identically(
        self, tmp_path, seed, frac
    ):
        """The headline property: snapshot after an arbitrary prefix,
        resume over the suffix, and verdict + witness + canonical
        telemetry are indistinguishable from never having stopped."""
        events = _workload(seed=seed)
        cut = max(1, min(len(events) - 1, int(len(events) * frac)))
        log = tmp_path / f"log-{seed}-{cut}.jsonl"
        _write_log(log, events)
        ref_result, ref_records, _ = _watch(str(log))

        prefix = tmp_path / f"pre-{seed}-{cut}.jsonl"
        _write_log(prefix, events[:cut])
        checker = IncrementalChecker()
        tail = EventLogTail(str(prefix))
        for tailed in tail.poll():
            checker.ingest(tailed.event)
        snap = tmp_path / f"snap-{seed}-{cut}.json"
        write_snapshot(str(snap), checker, tail)

        _write_log(prefix, events)
        result, records, replayed = _watch(
            str(prefix), resume_from=str(snap)
        )
        assert replayed == len(events) - cut
        assert result.verdict.rejected == ref_result.verdict.rejected
        assert result.reduction.failure == ref_result.reduction.failure
        assert canonical_dumps(records) == canonical_dumps(ref_records)

    def test_restored_checker_is_internally_identical(self, tmp_path):
        """The codec stores relations row-for-row: the restored
        checker's own snapshot document is byte-identical to the
        original's (same state, same fingerprint)."""
        events = _workload(seed=3)
        log = tmp_path / "log.jsonl"
        _write_log(log, events[: len(events) // 2])
        checker = IncrementalChecker()
        tail = EventLogTail(str(log))
        for tailed in tail.poll():
            checker.ingest(tailed.event)
        document = write_snapshot(str(tmp_path / "s.json"), checker, tail)

        restored = restore_checker(document)
        again = restore_tail(document, str(log))
        from repro.stream.snapshot import snapshot_document

        assert snapshot_document(restored, again) == document


class TestTrust:
    def _snapshot(self, tmp_path):
        events = _workload(seed=5)
        log = tmp_path / "log.jsonl"
        _write_log(log, events[:50])
        checker = IncrementalChecker()
        tail = EventLogTail(str(log))
        for tailed in tail.poll():
            checker.ingest(tailed.event)
        snap = tmp_path / "snap.json"
        write_snapshot(str(snap), checker, tail)
        return snap, log, events

    def test_missing_and_torn_snapshots_are_ctx503(self, tmp_path):
        with pytest.raises(SnapshotError) as err:
            read_snapshot(str(tmp_path / "absent.json"))
        assert err.value.diagnostic.code == "CTX503"
        torn = tmp_path / "torn.json"
        torn.write_text('{"v": 1, "log"')
        with pytest.raises(SnapshotError, match="unreadable") as err:
            read_snapshot(str(torn))
        assert err.value.diagnostic.code == "CTX503"

    def test_bit_flip_breaks_the_self_digest(self, tmp_path):
        snap, _, _ = self._snapshot(tmp_path)
        document = json.loads(snap.read_text())
        document["log"]["line"] += 1  # the flip
        snap.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="self-digest") as err:
            read_snapshot(str(snap))
        assert err.value.diagnostic.code == "CTX503"

    def test_wrong_schema_version_is_refused(self, tmp_path):
        snap, _, _ = self._snapshot(tmp_path)
        document = json.loads(snap.read_text())
        assert document["v"] == SNAPSHOT_VERSION
        document["v"] = SNAPSHOT_VERSION + 1
        snap.write_text(json.dumps(document))
        with pytest.raises(SnapshotError, match="version"):
            read_snapshot(str(snap))

    def test_rewritten_log_fails_the_fingerprint(self, tmp_path):
        """CTX501: the log's consumed prefix no longer hashes to the
        snapshot's fingerprint — a diverged log must not be resumed."""
        snap, log, events = self._snapshot(tmp_path)
        document = read_snapshot(str(snap))
        _write_log(log, list(reversed(events[:50])))
        with pytest.raises(SnapshotError, match="diverged") as err:
            verify_snapshot(document, str(log))
        assert err.value.diagnostic.code == "CTX501"

    def test_truncated_log_fails_the_fingerprint(self, tmp_path):
        snap, log, events = self._snapshot(tmp_path)
        document = read_snapshot(str(snap))
        _write_log(log, events[:10])
        with pytest.raises(SnapshotError, match="shorter") as err:
            verify_snapshot(document, str(log))
        assert err.value.diagnostic.code == "CTX501"

    def test_undecodable_state_is_ctx503(self, tmp_path):
        """A state value the codec cannot decode (here a dataclass
        record with a field the class lacks) is a corrupt snapshot."""
        from repro.analysis.checkpoint import encode_value
        from repro.simulator.metrics import Metrics

        snap, _, _ = self._snapshot(tmp_path)
        document = read_snapshot(str(snap))
        stray = encode_value(Metrics())
        stray["fields"]["retired_counter"] = 0
        document["state"]["kind_counts"] = stray
        with pytest.raises(SnapshotError, match="retired_counter") as err:
            restore_checker(document)
        assert err.value.diagnostic.code == "CTX503"

    def test_matching_log_verifies_silently(self, tmp_path):
        snap, log, _ = self._snapshot(tmp_path)
        verify_snapshot(read_snapshot(str(snap)), str(log))


class TestWriterCadence:
    def test_every_n_skips_intermediate_writes(self, tmp_path):
        events = _workload(seed=1)
        log = tmp_path / "log.jsonl"
        snap = tmp_path / "snap.json"
        writer = SnapshotWriter(str(snap), every=40)
        checker = IncrementalChecker()
        tail = EventLogTail(str(log))
        with open(log, "w", encoding="utf-8") as handle:
            for event in events[:100]:
                handle.write(dumps_event(event) + "\n")
                handle.flush()
                for tailed in tail.poll():
                    checker.ingest(tailed.event)
                writer.maybe(checker, tail)
        assert writer.written == 100 // 40
        assert writer.last_document is not None

    def test_zero_cadence_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="cadence"):
            SnapshotWriter(str(tmp_path / "s.json"), every=0)


class TestLegacySnapshot:
    """A snapshot written before the assembler lost its persistent
    builder: declarations stored as ``[id, event]`` pairs plus
    ``next_decl``/``applied``/``rebuilds`` keys.  It still restores,
    and the resumed watch certifies ``check``'s narrative."""

    def test_resumes_to_checks_narrative(self):
        from pathlib import Path

        from repro.core.correctness import check_composite_correctness
        from repro.io import load

        fixtures = Path(__file__).resolve().parents[1] / "fixtures" / "legacy"
        log = str(fixtures / "tree2x2_seed2.jsonl")
        document = read_snapshot(str(fixtures / "tree2x2_seed2.snapshot.json"))
        legacy = document["state"]["assembler"]
        assert legacy["applied"] and "rebuilds" in legacy
        verify_snapshot(document, log)
        checker = restore_checker(document)
        tail = restore_tail(document, log)
        suffix = tail.poll()
        assert any(tailed.event.kind == "commit" for tailed in suffix)
        for tailed in suffix:
            checker.ingest(tailed.event)
        result = checker.finalize()
        expected = check_composite_correctness(
            load(str(fixtures / "tree2x2_seed2.json")).system
        )
        assert expected.correct and not result.verdict.rejected
        assert result.reduction.narrative() == expected.reduction.narrative()
