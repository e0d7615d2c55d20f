"""Atomic, schema-versioned checkpoints for batch runs.

A long (config x seed) grid — the chaos and experiment sweeps — should
survive being killed.  A :class:`CheckpointSession` records every
completed task of every :func:`repro.analysis.batch.run_batch_report`
call under it (result, telemetry events, quarantine entries) into one
JSON document, rewritten atomically (write-then-fsync-then-rename, the
same discipline as :func:`repro.obs.sink.atomic_write_text`) so a
SIGKILL at any instant leaves either the previous or the next complete
checkpoint on disk, never a torn one.

Resuming (``composite-tx resume CHECKPOINT``, or ``--resume-from`` on
the grid commands) replays the session: each ``run_batch_report`` call
claims the next checkpoint *section* in call order, verifies its
fingerprint (a digest of the worker and the task list — resuming a
checkpoint into a different grid is refused, not mis-merged), skips
the completed tasks, and re-absorbs their recorded telemetry.  Because
the batch layer merges in submission order regardless of which tasks
actually ran, a resumed run's merged metrics and canonical telemetry
are byte-identical to an uninterrupted run's.

Results are stored with a small typed codec (scalars, lists, tuples,
sets, string-keyed mappings, packed-bitset relations, and dataclasses
by qualified name) — the shapes batch workers return, and, since the
stream recovery layer (:mod:`repro.stream.snapshot`) reuses the same
codec, the shapes inside a live checker's state.  Floats survive the
JSON round trip exactly (``repr`` shortest-round-trip), which the
byte-identity contract relies on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.supervise import QuarantinedTask
from repro.core.orders import Relation
from repro.exceptions import CheckpointError
from repro.obs import TelemetryEvent, atomic_write_text, to_record

#: bump when the checkpoint document shape changes incompatibly
CHECKPOINT_VERSION = 1

_KIND = "__kind__"


# ----------------------------------------------------------------------
# value codec (worker results -> JSON and back)
# ----------------------------------------------------------------------
def encode_value(value: Any) -> Any:
    """Encode a worker result for the checkpoint document."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_KIND: "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return [encode_value(v) for v in value]
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value) and _KIND not in value:
            return {k: encode_value(v) for k, v in value.items()}
        return {
            _KIND: "dict",
            "items": [
                [encode_value(k), encode_value(v)] for k, v in value.items()
            ],
        }
    if isinstance(value, (set, frozenset)):
        # Canonical member order: sets have no order of their own, and
        # the snapshot layer hashes encoded documents — sorting by the
        # JSON image makes equal sets encode byte-identically.
        items = sorted(
            (encode_value(v) for v in value),
            key=lambda item: json.dumps(item, sort_keys=True),
        )
        return {_KIND: "set", "items": items}
    if isinstance(value, Relation):
        # The packed-bitset native state, verbatim: nodes in interned
        # order plus one hex successor bitmap per node, so a decoded
        # relation is *internally* identical (same interning, same
        # rows) — the property the stream snapshot's byte-for-byte
        # resume contract needs, not just pair-set equality.
        return {
            _KIND: "relation",
            "nodes": list(value.elements),
            "rows": [format(value.row_bits(e), "x") for e in value.elements],
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            _KIND: "dataclass",
            "type": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                spec.name: encode_value(getattr(value, spec.name))
                for spec in dataclasses.fields(value)
            },
        }
    raise CheckpointError(
        f"cannot checkpoint a value of type {type(value).__name__}: "
        "batch results must be JSON scalars, lists, tuples, sets, "
        "str-keyed dicts, relations, or dataclasses thereof"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    if not isinstance(value, dict):
        return value
    kind = value.get(_KIND)
    if kind is None:
        return {k: decode_value(v) for k, v in value.items()}
    if kind == "tuple":
        return tuple(decode_value(v) for v in value["items"])
    if kind == "set":
        return {decode_value(v) for v in value["items"]}
    if kind == "relation":
        nodes = [str(n) for n in value["nodes"]]
        rows = [int(str(r), 16) for r in value["rows"]]
        if len(rows) != len(nodes):
            raise CheckpointError(
                "relation state is torn: "
                f"{len(nodes)} nodes but {len(rows)} rows"
            )
        return Relation._from_state(nodes, rows, None)
    if kind == "dict":
        return {
            decode_value(k): decode_value(v) for k, v in value["items"]
        }
    if kind == "dataclass":
        module_name, _, qualname = str(value["type"]).partition(":")
        try:
            module = importlib.import_module(module_name)
            cls: Any = module
            for part in qualname.split("."):
                cls = getattr(cls, part)
        except (ImportError, AttributeError) as err:
            raise CheckpointError(
                f"checkpoint references unknown type {value['type']!r}: {err}"
            ) from err
        if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
            raise CheckpointError(
                f"checkpoint type {value['type']!r} is not a dataclass"
            )
        fields = {
            name: decode_value(v) for name, v in value["fields"].items()
        }
        specs = [spec for spec in dataclasses.fields(cls) if spec.init]
        required = {
            spec.name
            for spec in specs
            if spec.default is dataclasses.MISSING
            and spec.default_factory is dataclasses.MISSING
        }
        extra = sorted(set(fields) - {spec.name for spec in specs})
        missing = sorted(required - set(fields))
        if extra or missing:
            raise CheckpointError(
                f"checkpoint value of type {value['type']!r} does not match "
                f"the class: extra fields {extra}, missing fields {missing}"
            )
        return cls(**fields)
    raise CheckpointError(f"unknown checkpoint value kind {kind!r}")


def _events_to_records(events: Sequence[TelemetryEvent]) -> List[Dict[str, Any]]:
    return [to_record(event) for event in events]


def _events_from_records(
    records: Sequence[Dict[str, Any]],
) -> List[TelemetryEvent]:
    out: List[TelemetryEvent] = []
    for record in records:
        fields = record.get("fields", {})
        out.append(
            TelemetryEvent(
                stream=str(record["stream"]),
                seq=int(record["seq"]),
                kind=str(record["kind"]),
                name=str(record["name"]),
                depth=int(record["depth"]),
                dur_s=record.get("dur_s"),
                fields=tuple(sorted(fields.items())),
            )
        )
    return out


def batch_fingerprint(worker: Callable[..., Any], tasks: Sequence[Any]) -> str:
    """Digest identifying one batch: the worker's qualified name plus
    every task's ``repr``.  Stable across processes and runs (task
    objects here are dataclasses, tuples, and scalars with
    deterministic reprs), so a resumed grid either matches exactly or
    is refused."""
    digest = hashlib.sha256()
    name = f"{getattr(worker, '__module__', '?')}." f"{getattr(worker, '__qualname__', repr(worker))}"
    digest.update(name.encode("utf-8"))
    digest.update(str(len(tasks)).encode("ascii"))
    for task in tasks:
        digest.update(b"\x00")
        digest.update(repr(task).encode("utf-8", "replace"))
    return digest.hexdigest()[:16]


# ----------------------------------------------------------------------
# the session and its per-batch sections
# ----------------------------------------------------------------------
class CheckpointSection:
    """The checkpoint state of one ``run_batch_report`` call."""

    def __init__(
        self,
        session: "CheckpointSession",
        fingerprint: str,
        total: int,
        completed: Dict[int, Tuple[Any, List[TelemetryEvent]]],
        quarantined: List[QuarantinedTask],
    ) -> None:
        self._session = session
        self.fingerprint = fingerprint
        self.total = total
        #: index -> (decoded result, restored telemetry events)
        self.completed = completed
        self.quarantined = quarantined

    def record(
        self, index: int, result: Any, events: Sequence[TelemetryEvent]
    ) -> None:
        """Record one finished task and let the session flush."""
        self.completed[index] = (result, list(events))
        self._session.task_recorded()

    def record_quarantine(self, entry: QuarantinedTask) -> None:
        self.quarantined.append(entry)
        self.quarantined.sort(key=lambda e: e.index)
        self._session.flush()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "total": self.total,
            "completed": [
                {
                    "index": index,
                    "result": encode_value(result),
                    "events": _events_to_records(events),
                }
                for index, (result, events) in sorted(self.completed.items())
            ],
            "quarantined": [entry.to_dict() for entry in self.quarantined],
        }


class CheckpointSession:
    """One checkpoint file shared by every batch of one command run.

    ``interval`` controls flush cadence: the document is rewritten
    atomically after every ``interval`` completed tasks (and always
    when the session closes or a task is quarantined).
    """

    def __init__(
        self,
        path: str,
        *,
        argv: Sequence[str] = (),
        interval: int = 1,
    ) -> None:
        self.path = path
        self.argv = list(argv)
        self.interval = max(1, interval)
        self.completed_ok = False
        self._sections: List[CheckpointSection] = []
        self._restored: List[Dict[str, Any]] = []
        self._pending = 0

    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls, path: str, *, interval: int = 1
    ) -> "CheckpointSession":
        """Open an existing checkpoint for resumption."""
        document = read_checkpoint(path)
        session = cls(
            path, argv=[str(a) for a in document.get("argv", [])],
            interval=interval,
        )
        sections = document.get("sections", [])
        if not isinstance(sections, list):
            raise CheckpointError(f"{path}: 'sections' is not a list")
        session._restored = sections
        return session

    # ------------------------------------------------------------------
    def section(self, fingerprint: str, total: int) -> CheckpointSection:
        """Claim the next section (in call order) for a batch of
        ``total`` tasks with ``fingerprint``.

        On resume, the section restores the matching recorded state; a
        fingerprint or size mismatch means the command being resumed is
        not the command that wrote the checkpoint, and is refused.
        """
        position = len(self._sections)
        completed: Dict[int, Tuple[Any, List[TelemetryEvent]]] = {}
        quarantined: List[QuarantinedTask] = []
        if position < len(self._restored):
            raw = self._restored[position]
            recorded_fp = raw.get("fingerprint")
            recorded_total = raw.get("total")
            if recorded_fp != fingerprint or recorded_total != total:
                raise CheckpointError(
                    f"{self.path}: section {position} was written by a "
                    f"different grid (fingerprint {recorded_fp!r} over "
                    f"{recorded_total!r} tasks, resuming grid has "
                    f"{fingerprint!r} over {total}); refusing to resume"
                )
            for item in raw.get("completed", []):
                completed[int(item["index"])] = (
                    decode_value(item.get("result")),
                    _events_from_records(item.get("events", [])),
                )
            quarantined = [
                QuarantinedTask.from_dict(q)
                for q in raw.get("quarantined", [])
            ]
        section = CheckpointSection(
            self, fingerprint, total, completed, quarantined
        )
        self._sections.append(section)
        return section

    # ------------------------------------------------------------------
    def task_recorded(self) -> None:
        self._pending += 1
        if self._pending >= self.interval:
            self.flush()

    def to_dict(self) -> Dict[str, Any]:
        sections = [section.to_dict() for section in self._sections]
        # sections the resumed command has not (re-)claimed yet must
        # not be lost by an early flush
        sections.extend(self._restored[len(self._sections):])
        return {
            "v": CHECKPOINT_VERSION,
            "argv": self.argv,
            "complete": self.completed_ok,
            "sections": sections,
        }

    def mark_complete(self) -> None:
        """Record that the checkpointed command ran to the end — the
        definitive nothing-left-to-resume signal ``composite-tx
        resume`` consults before re-dispatching anything."""
        self.completed_ok = True

    def flush(self) -> None:
        """Atomically rewrite the checkpoint document."""
        atomic_write_text(
            self.path,
            json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
            + "\n",
        )
        self._pending = 0

    def close(self) -> None:
        self.flush()


def checkpoint_complete(document: Dict[str, Any]) -> bool:
    """Whether a checkpoint document records a finished run.

    True when the command marked the checkpoint complete on a clean
    exit, or when every recorded section is fully accounted for (each
    task completed or quarantined) — the state an already-finished
    run's checkpoint is in.  ``composite-tx resume`` uses this to
    print "nothing to resume" and exit 0 instead of re-dispatching
    the full recorded command (and spawning a fleet) for no work.
    """
    if document.get("complete") is True:
        return True
    sections = document.get("sections")
    if not isinstance(sections, list) or not sections:
        return False
    for section in sections:
        if not isinstance(section, dict):
            return False
        total = section.get("total")
        completed = section.get("completed", [])
        quarantined = section.get("quarantined", [])
        if not isinstance(total, int):
            return False
        if not isinstance(completed, list) or not isinstance(
            quarantined, list
        ):
            return False
        if len(completed) + len(quarantined) < total:
            return False
    return True


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Load and version-check a checkpoint document."""
    if not os.path.exists(path):
        raise CheckpointError(f"no such checkpoint: {path}")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise CheckpointError(f"{path}: unreadable checkpoint ({err})") from err
    if not isinstance(document, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    version = document.get("v")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint schema version {version!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return document


# ----------------------------------------------------------------------
# the ambient session (how the CLI reaches every nested run_batch)
# ----------------------------------------------------------------------
_SESSION: ContextVar[Optional[CheckpointSession]] = ContextVar(
    "repro_checkpoint_session", default=None
)


def ambient_session() -> Optional[CheckpointSession]:
    """The active checkpoint session of this context, if any."""
    return _SESSION.get()


@contextmanager
def checkpointing(session: CheckpointSession) -> Iterator[CheckpointSession]:
    """Make ``session`` ambient: every ``run_batch_report`` under the
    ``with`` block checkpoints into (and resumes from) it.  The
    session is flushed on entry (so the checkpoint file exists — and
    records the command line — from the first instant, making a run
    killed before its first completed task still resumable) and on
    exit, even on error.  A block that exits *cleanly* marks the
    checkpoint complete (see :func:`checkpoint_complete`)."""
    token = _SESSION.set(session)
    finished = False
    try:
        session.flush()
        yield session
        finished = True
    finally:
        _SESSION.reset(token)
        if finished:
            session.mark_complete()
        session.close()
