"""Online (streaming) Comp-C checking.

This package turns the batch Def.-16 reduction into a service that
watches an execution *as it happens*:

- :mod:`repro.stream.assembler` folds the typed event log of
  :mod:`repro.io.eventlog` into the committed composite system, kept
  live across commits: each commit is applied as a delta to the
  schedules' closed orders;
- :mod:`repro.stream.checker` maintains the level-0 observed order
  incrementally across commits and re-runs the reduction with the
  maintained front injected, emitting a live verdict that flips to
  REJECTED the moment a cycle closes;
- :mod:`repro.stream.tail` tails a growing JSONL event log with
  torn-tail tolerance (the ``composite-tx watch`` transport);
- :mod:`repro.stream.snapshot` freezes the whole checker into an
  atomically written, fingerprint-bound snapshot and restores it, so
  a killed watch resumes by replaying only the unseen log suffix;
- :mod:`repro.stream.supervisor` runs the watch loop under the batch
  layer's supervision contract: seeded-backoff restarts from the
  latest valid snapshot, and poison-event quarantine.

See ``docs/STREAMING.md`` for semantics, the equivalence argument,
and the snapshot/recovery contract; ``docs/RESILIENCE.md`` for how
supervision composes with the rest of the resilience toolkit.
"""

from repro.stream.assembler import CommitDelta, StreamAssembler
from repro.stream.checker import (
    IncrementalChecker,
    StreamResult,
    StreamVerdict,
    WATCH_STREAM,
)
from repro.stream.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotWriter,
    read_snapshot,
    restore_checker,
    restore_tail,
    snapshot_document,
    verify_snapshot,
    write_snapshot,
)
from repro.stream.supervisor import (
    PoisonEvent,
    StreamSupervisor,
    SupervisedWatch,
)
from repro.stream.tail import EventLogTail, TailedEvent

__all__ = [
    "CommitDelta",
    "EventLogTail",
    "IncrementalChecker",
    "PoisonEvent",
    "SNAPSHOT_VERSION",
    "SnapshotWriter",
    "StreamAssembler",
    "StreamResult",
    "StreamSupervisor",
    "StreamVerdict",
    "SupervisedWatch",
    "TailedEvent",
    "WATCH_STREAM",
    "read_snapshot",
    "restore_checker",
    "restore_tail",
    "snapshot_document",
    "verify_snapshot",
    "write_snapshot",
]
