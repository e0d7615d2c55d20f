"""Crash-safe checker snapshots: freeze a live watch, resume the suffix.

A :data:`SNAPSHOT_VERSION`-stamped snapshot document captures the
complete resumable state of a ``composite-tx watch``: the
:class:`~repro.stream.checker.IncrementalChecker` (closed level-0
observed order, seeded pairs, sticky verdict and witness, batched
counters), its :class:`~repro.stream.assembler.StreamAssembler`
(staged declarations, root lifecycle, arrival log), and the
:class:`~repro.stream.tail.EventLogTail` position (byte offset and
line number).  State serializes through the typed checkpoint codec
(:mod:`repro.analysis.checkpoint`) — the packed-bitset relations are
stored row-for-row, so a restored checker is *internally* identical to
the live one, and replaying the unseen log suffix reproduces the
uninterrupted run's verdict, witness, and canonical telemetry byte for
byte.

Two digests make the document trustworthy:

* a **self digest** over the canonical JSON of the document body —
  a torn or bit-flipped snapshot is rejected as corrupt (``CTX503``)
  instead of resuming garbage state;
* a **log-prefix fingerprint** — the SHA-256 of the first ``offset``
  bytes of the event log at snapshot time.  Resume re-hashes the same
  prefix of the log it is pointed at; disagreement (``CTX501``) means
  the log was rewritten, rotated, or diverged, so the snapshot
  summarizes bytes that no longer exist and must not be trusted.  A
  log now *shorter* than the snapshot offset is unverifiable for the
  same reason.

Documents are written with the checkpoint layer's
write-fsync-rename discipline (:func:`repro.obs.atomic_write_text`):
a SIGKILL at any instant leaves the previous complete snapshot on
disk, never a torn one.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Optional, Union

from repro.analysis.checkpoint import decode_value, encode_value
from repro.exceptions import CheckpointError, SnapshotError
from repro.io.eventlog import log_prefix_digest
from repro.lint.diagnostics import Diagnostic, Location, Severity
from repro.obs import atomic_write_text
from repro.obs.telemetry import Telemetry
from repro.stream.checker import IncrementalChecker
from repro.stream.tail import EventLogTail

__all__ = [
    "SNAPSHOT_VERSION",
    "SnapshotWriter",
    "read_snapshot",
    "restore_checker",
    "restore_tail",
    "snapshot_document",
    "verify_snapshot",
    "write_snapshot",
]

#: bump when the snapshot document shape changes incompatibly
SNAPSHOT_VERSION = 1


def _canonical(document: Dict[str, Any]) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def _self_digest(document: Dict[str, Any]) -> str:
    body = {k: v for k, v in document.items() if k != "digest"}
    return hashlib.sha256(_canonical(body).encode("utf-8")).hexdigest()


def _corrupt(path: str, message: str) -> SnapshotError:
    return SnapshotError(
        f"{path}: {message}",
        diagnostic=Diagnostic(
            code="CTX503",
            severity=Severity.ERROR,
            location=Location(file=path),
            message=message,
            fix_hint="take a fresh snapshot; this one cannot be trusted",
        ),
    )


# ----------------------------------------------------------------------
# producing snapshots
# ----------------------------------------------------------------------
def snapshot_document(
    checker: IncrementalChecker, tail: EventLogTail
) -> Dict[str, Any]:
    """Freeze the checker + tail into a snapshot document.

    Raises :class:`~repro.exceptions.SnapshotError` when the log's
    consumed prefix cannot be fingerprinted (the file vanished or
    shrank between the poll and the snapshot) — an unfingerprinted
    snapshot could never be verified at resume, so it is never
    written.
    """
    digest = log_prefix_digest(tail.path, tail.offset)
    if digest is None:
        raise _corrupt(
            tail.path,
            f"cannot fingerprint the first {tail.offset} bytes of the "
            "event log (file missing or shorter than the consumed "
            "offset)",
        )
    document: Dict[str, Any] = {
        "v": SNAPSHOT_VERSION,
        "log": {
            "path": tail.path,
            "offset": tail.offset,
            "line": tail.line,
            "digest": digest,
        },
        "state": encode_value(checker.snapshot_state()),
    }
    document["digest"] = _self_digest(document)
    return document


def write_snapshot(
    path: Union[str, "os.PathLike[str]"],
    checker: IncrementalChecker,
    tail: EventLogTail,
) -> Dict[str, Any]:
    """Atomically write a snapshot of ``checker``/``tail`` to ``path``
    and return the document."""
    document = snapshot_document(checker, tail)
    atomic_write_text(str(path), _canonical(document) + "\n")
    return document


class SnapshotWriter:
    """Cadenced snapshot producer for the watch loop.

    ``maybe(checker, tail)`` writes a snapshot whenever at least
    ``every`` events have been ingested since the last write (and on
    the first call that has consumed anything).  Each write is spanned
    as ``stream.snapshot`` on the checker's ``"watch"`` telemetry
    stream — dropped from canonical dumps, so snapshotting never
    perturbs the byte-identity contract.
    """

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        *,
        every: int = 1,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if every < 1:
            raise ValueError("snapshot cadence must be >= 1 event")
        self.path = str(path)
        self.every = every
        self.telemetry = telemetry
        self.written = 0
        self._last_events = 0
        self.last_document: Optional[Dict[str, Any]] = None

    def maybe(
        self, checker: IncrementalChecker, tail: EventLogTail
    ) -> Optional[Dict[str, Any]]:
        events = checker.verdict().events
        if events - self._last_events < self.every:
            return None
        return self.write(checker, tail)

    def write(
        self, checker: IncrementalChecker, tail: EventLogTail
    ) -> Dict[str, Any]:
        events = checker.verdict().events
        telemetry = (
            self.telemetry if self.telemetry is not None
            else checker.telemetry
        )
        with telemetry.span(
            "stream.snapshot", events=events, offset=tail.offset
        ):
            document = write_snapshot(self.path, checker, tail)
        self._last_events = events
        self.written += 1
        self.last_document = document
        return document


# ----------------------------------------------------------------------
# consuming snapshots
# ----------------------------------------------------------------------
def read_snapshot(path: Union[str, "os.PathLike[str]"]) -> Dict[str, Any]:
    """Load, version-check, and integrity-check a snapshot document.

    Unreadable files, non-JSON text, wrong schema versions, and self
    digest mismatches all raise :class:`~repro.exceptions.SnapshotError`
    carrying the ``CTX503`` diagnostic.
    """
    name = str(path)
    try:
        with open(name, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError as err:
        raise _corrupt(name, "no such snapshot") from err
    except (OSError, json.JSONDecodeError) as err:
        raise _corrupt(name, f"unreadable snapshot ({err})") from err
    if not isinstance(document, dict):
        raise _corrupt(name, "snapshot is not a JSON object")
    version = document.get("v")
    if version != SNAPSHOT_VERSION:
        raise _corrupt(
            name,
            f"snapshot schema version {version!r} "
            f"(this build reads version {SNAPSHOT_VERSION})",
        )
    recorded = document.get("digest")
    if recorded != _self_digest(document):
        raise _corrupt(
            name,
            "snapshot self-digest mismatch (torn or corrupted write)",
        )
    log = document.get("log")
    if not (
        isinstance(log, dict)
        and isinstance(log.get("offset"), int)
        and isinstance(log.get("line"), int)
        and isinstance(log.get("digest"), str)
    ):
        raise _corrupt(name, "snapshot log section is malformed")
    return document


def verify_snapshot(
    document: Dict[str, Any],
    log_path: Union[str, "os.PathLike[str]"],
    *,
    snapshot_path: str = "<snapshot>",
) -> None:
    """Check the snapshot's log-prefix fingerprint against ``log_path``.

    Raises :class:`~repro.exceptions.SnapshotError` with the ``CTX501``
    diagnostic when the first ``offset`` bytes of the log no longer
    hash to the snapshot's recorded fingerprint — including when the
    log is now shorter than ``offset`` (nothing left to verify
    against).
    """
    log = document["log"]
    offset = int(log["offset"])
    recorded = str(log["digest"])
    actual = log_prefix_digest(log_path, offset)
    if actual == recorded:
        return
    reason = (
        f"log is shorter than the snapshot offset {offset}"
        if actual is None
        else "log prefix bytes differ from the snapshot's"
    )
    raise SnapshotError(
        f"{snapshot_path}: fingerprint disagrees with {log_path} "
        f"({reason}); the log diverged, rotated, or was rewritten",
        diagnostic=Diagnostic(
            code="CTX501",
            severity=Severity.ERROR,
            location=Location(file=str(log_path)),
            message=(
                f"prefix digest over {offset} bytes is "
                f"{actual!r}, snapshot recorded {recorded!r}"
            ),
            fix_hint=(
                "re-watch the log from offset 0, or resume from a "
                "snapshot taken against this log"
            ),
        ),
    )


def restore_checker(
    document: Dict[str, Any],
    *,
    telemetry: Optional[Telemetry] = None,
) -> IncrementalChecker:
    """Rebuild the checker a snapshot froze.

    The checker's observed-order options ride inside the serialized
    state's dataclasses where relevant; the checker itself is
    constructed with default options (the only configuration the
    watch command runs), then overwritten field-for-field by
    :meth:`~repro.stream.checker.IncrementalChecker.restore_state`.
    """
    checker = IncrementalChecker(telemetry=telemetry)
    try:
        state = decode_value(document["state"])
        if not isinstance(state, dict):
            raise ValueError("snapshot state is not a mapping")
        checker.restore_state(state)
    except (
        CheckpointError, KeyError, TypeError, ValueError, AssertionError
    ) as err:
        raise _corrupt(
            "<snapshot>", f"snapshot state does not restore ({err})"
        ) from err
    return checker


def restore_tail(
    document: Dict[str, Any],
    log_path: Union[str, "os.PathLike[str]"],
) -> EventLogTail:
    """A tailer positioned exactly where the snapshot left off."""
    log = document["log"]
    tail = EventLogTail(log_path)
    tail.restore(int(log["offset"]), int(log["line"]))
    return tail
