"""Worker supervision policy for the batch runner.

:mod:`repro.analysis.batch` executes (config x seed) grids; this module
holds the *resilience* vocabulary those executions run under:

* :class:`BatchSupervisor` — the supervision configuration: per-task
  wall-clock timeouts, per-task retry with seeded jittered backoff
  (reusing the :mod:`repro.simulator.retry` policy vocabulary, so one
  set of policies covers simulated retries and real harness retries),
  the fleet's heartbeat/lease/shard-retry knobs, and the
  fail-fast/keep-going switch;
* :class:`QuarantinedTask` / :class:`QuarantineReport` — the structured
  failure report a keep-going grid emits instead of aborting: task id,
  parameters, reason, and the worker traceback;
* :func:`time_limit` — the in-worker wall-clock guard (SIGALRM based,
  a no-op where signals are unavailable).

Determinism contract
--------------------
Retry jitter is drawn from a per-task ``random.Random`` seeded with
``retry_seed`` and the task's submission index only (see
:meth:`BatchSupervisor.task_rng`), never from worker identity or wall
clock — so the delay sequence of any one task is identical whether the
grid runs serially, sharded, or resumed from a checkpoint.  This is
the same seeding contract :mod:`repro.simulator.retry` documents for
seeded policies.
"""

from __future__ import annotations

import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Union,
)

from repro.exceptions import TaskTimeoutError
from repro.simulator.retry import RetryPolicy, make_retry_policy

#: quarantine reasons (stable vocabulary for reports and tests)
REASON_EXCEPTION = "exception"
REASON_TIMEOUT = "timeout"
REASON_HUNG = "hung"
REASON_CRASH = "crash"

#: multiplier used to derive per-task RNG seeds; a large prime keeps
#: (seed, index) pairs from colliding for any realistic grid size
_SEED_STRIDE = 1_000_003


@contextmanager
def time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`TaskTimeoutError` in the calling thread after
    ``seconds`` of wall-clock time.

    Uses ``SIGALRM`` (via ``signal.setitimer``), so it only arms on
    platforms that have it *and* on the main thread — everywhere else
    it degrades to a no-op and the fleet's lease deadline is the only
    guard.  Fleet workers run tasks on their main thread (the
    heartbeat is a side thread), so the guard is active in exactly the
    place that matters.

    Contexts nest: ``setitimer`` returns the previously armed
    ``ITIMER_REAL`` value, and the remaining portion of that outer
    timer (minus the time spent inside this block) is re-armed on
    exit, so an inner ``time_limit`` never silently disarms an outer
    one.  An outer budget that expired *while* the inner guard held
    the timer fires immediately after the inner block exits.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise TaskTimeoutError(
            f"task exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    started = time.monotonic()
    outer_delay, outer_interval = signal.setitimer(
        signal.ITIMER_REAL, seconds
    )
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
        if outer_delay:
            remaining = outer_delay - (time.monotonic() - started)
            # an already-overdue outer guard fires as soon as possible
            signal.setitimer(
                signal.ITIMER_REAL, max(remaining, 1e-6), outer_interval
            )


@dataclass
class QuarantinedTask:
    """One task the supervisor gave up on — the structured failure
    record a keep-going grid emits instead of aborting.

    ``task_repr`` is the ``repr`` of the task tuple (the parameters
    needed to reproduce the cell), ``reason`` one of
    ``exception``/``timeout``/``hung``/``crash``, ``attempts`` how
    many times the supervisor tried, and ``error``/``traceback`` what
    the final attempt died with (``traceback`` is empty for hung and
    crashed workers — they never report back).
    """

    index: int
    task_repr: str
    reason: str
    error: str
    traceback: str = ""
    attempts: int = 1

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "task": self.task_repr,
            "reason": self.reason,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, document: Dict[str, Any]) -> "QuarantinedTask":
        return cls(
            index=int(document["index"]),
            task_repr=str(document["task"]),
            reason=str(document["reason"]),
            error=str(document["error"]),
            traceback=str(document.get("traceback", "")),
            attempts=int(document.get("attempts", 1)),
        )


@dataclass
class QuarantineReport:
    """Every quarantined task of one batch, in submission order."""

    entries: List[QuarantinedTask] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[QuarantinedTask]:
        return iter(self.entries)

    def add(self, entry: QuarantinedTask) -> None:
        self.entries.append(entry)
        self.entries.sort(key=lambda e: e.index)

    @classmethod
    def merge(
        cls, reports: "Iterable[QuarantineReport]"
    ) -> "QuarantineReport":
        """Deterministic cross-shard merge: entries from every report,
        ordered by task index, deduplicated by index (first report
        wins — lease races can deliver the same quarantined shard
        twice).  Fleet and serial keep-going runs therefore render
        identical quarantine sections regardless of completion order.
        """
        merged = cls()
        seen: Dict[int, QuarantinedTask] = {}
        for report in reports:
            for entry in report.entries:
                seen.setdefault(entry.index, entry)
        merged.entries = [seen[index] for index in sorted(seen)]
        return merged

    def indices(self) -> List[int]:
        return [entry.index for entry in self.entries]

    def render(self) -> str:
        """Human-readable report (the CLI prints this after the grid)."""
        lines = [
            f"{len(self.entries)} task(s) quarantined "
            "(grid completed without them):"
        ]
        for entry in self.entries:
            lines.append(
                f"  task #{entry.index} [{entry.reason} after "
                f"{entry.attempts} attempt(s)]: {entry.error}"
            )
            lines.append(f"    params: {entry.task_repr}")
        return "\n".join(lines)

    def to_dict(self) -> List[Dict[str, Any]]:
        return [entry.to_dict() for entry in self.entries]


@dataclass
class BatchSupervisor:
    """How :func:`repro.analysis.batch.run_batch_report` guards tasks.

    ``task_timeout`` is the per-task wall-clock budget enforced
    *inside* the worker (SIGALRM).  ``max_attempts`` is the total
    number of tries per task; between tries the supervisor sleeps
    ``retry_policy.delay(...)`` drawn from the per-task seeded stream.
    With ``fail_fast=True`` the first task that exhausts its attempts
    aborts the whole batch with
    :class:`~repro.exceptions.BatchTaskError`; otherwise the task is
    quarantined and the rest of the grid completes.

    The last three knobs drive the worker fleet of a parallel batch
    (see :mod:`repro.analysis.fleet`): ``heartbeat_interval`` is how
    often a busy worker proves liveness, ``lease_timeout`` how long a
    shard lease survives without a heartbeat before the worker is
    presumed hung (defaults to ``max(6 * heartbeat_interval, 3.0)``),
    and ``max_shard_retries`` how many *distinct* workers may fail a
    shard before it is quarantined.
    """

    task_timeout: Optional[float] = None
    max_attempts: int = 1
    retry_policy: Union[str, RetryPolicy] = "exponential"
    retry_base: float = 0.05
    retry_seed: int = 0
    fail_fast: bool = False
    heartbeat_interval: float = 0.5
    lease_timeout: Optional[float] = None
    max_shard_retries: int = 3
    #: injectable for tests; must stay a picklable module-level callable
    sleep: Callable[[float], None] = time.sleep

    def resolve_policy(self) -> RetryPolicy:
        """The retry policy instance (unseeded — the supervisor passes
        the per-task stream from :meth:`task_rng` to ``delay``)."""
        return make_retry_policy(self.retry_policy, base=self.retry_base)

    def task_rng(self, index: int) -> random.Random:
        """The deterministic jitter stream of task ``index`` — a
        function of ``(retry_seed, index)`` only, per the module's
        seeding contract."""
        return random.Random(self.retry_seed * _SEED_STRIDE + index)

    def effective_lease_timeout(self) -> float:
        if self.lease_timeout is not None and self.lease_timeout > 0:
            return self.lease_timeout
        return max(6.0 * self.heartbeat_interval, 3.0)
