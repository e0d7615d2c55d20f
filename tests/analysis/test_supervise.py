"""Tests for the supervised batch runner: timeouts, retries, hung
workers, quarantine, and the keep-going failure report."""

import os
import signal
import time

import pytest

from repro.analysis.batch import BatchReport, run_batch, run_batch_report
from repro.analysis.supervise import (
    REASON_EXCEPTION,
    REASON_HUNG,
    REASON_TIMEOUT,
    BatchSupervisor,
    QuarantinedTask,
    QuarantineReport,
    time_limit,
)
from repro.exceptions import BatchTaskError, TaskTimeoutError
from repro.simulator.retry import ExponentialBackoff


def square(task):
    return task * task


def fail_on_three(task):
    if task == 3:
        raise ValueError("boom")
    return task


def sleepy(task):
    """Sleeps when the task is the sentinel; SIGALRM interrupts it."""
    if task == "sleep":
        time.sleep(10.0)
    return task


def stopper(task):
    """SIGSTOPs its own worker (heartbeat thread included) whenever the
    task is the sentinel — a hang no in-worker alarm can break."""
    if task == "stop":
        os.kill(os.getpid(), signal.SIGSTOP)
    return task


def flaky(task):
    """Fails until its attempt-counter file reaches the threshold."""
    path, needed = task
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("x")
    attempts = os.path.getsize(path)
    if attempts < needed:
        raise RuntimeError(f"flaky attempt {attempts}")
    return attempts


def no_sleep(_delay):
    return None


class TestTimeLimit:
    def test_expires(self):
        with pytest.raises(TaskTimeoutError, match="wall-clock budget"):
            with time_limit(0.05):
                time.sleep(5.0)

    def test_disabled_for_none_and_nonpositive(self):
        with time_limit(None):
            pass
        with time_limit(0):
            pass
        with time_limit(-1.0):
            pass

    def test_no_alarm_left_armed(self):
        import signal

        with time_limit(5.0):
            pass
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0

    def test_nested_inner_limit_restores_outer_budget(self):
        """The nesting bugfix: an inner time_limit used to zero the
        outer timer on exit, silently unbounding the outer guard.  Now
        the outer deadline still fires after the inner block ends."""
        with pytest.raises(TaskTimeoutError):
            with time_limit(0.2):
                with time_limit(5.0):
                    time.sleep(0.05)  # inner exits cleanly
                time.sleep(5.0)  # outer must still be armed

    def test_nested_outer_deadline_already_due_fires_promptly(self):
        """An inner block that outlives the outer budget: the restored
        outer timer is already overdue and must fire as soon as the
        inner guard hands control back."""
        started = time.monotonic()
        with pytest.raises(TaskTimeoutError):
            with time_limit(0.05):
                with time_limit(5.0):
                    # survive the outer deadline inside the inner
                    # guard: SIGALRM is armed for the INNER budget
                    time.sleep(0.15)
                time.sleep(5.0)
        assert time.monotonic() - started < 2.0

    def test_nested_inner_expiry_still_raises(self):
        import signal

        with pytest.raises(TaskTimeoutError):
            with time_limit(30.0):
                with time_limit(0.05):
                    time.sleep(5.0)
        # unwound completely: nothing left armed after the outer exits
        assert signal.getitimer(signal.ITIMER_REAL)[0] == 0.0


class TestQuarantine:
    def test_keep_going_quarantines_and_finishes(self):
        report = run_batch_report(
            [1, 2, 3, 4],
            fail_on_three,
            supervisor=BatchSupervisor(fail_fast=False),
        )
        assert report.results == [1, 2, None, 4]
        assert report.completed == {0: 1, 1: 2, 3: 4}
        assert report.missing == (2,)
        assert len(report.quarantine) == 1
        entry = report.quarantine.entries[0]
        assert entry.index == 2
        assert entry.reason == REASON_EXCEPTION
        assert "boom" in entry.error
        assert "boom" in entry.traceback
        assert entry.task_repr == "3"

    def test_keep_going_parallel(self):
        report = run_batch_report(
            [3, 1, 3, 2, 5],
            fail_on_three,
            workers=2,
            supervisor=BatchSupervisor(fail_fast=False),
        )
        assert report.results == [None, 1, None, 2, 5]
        assert report.quarantine.indices() == [0, 2]

    def test_fail_fast_raises_with_partial_results(self):
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch_report(
                [1, 2, 3, 4],
                fail_on_three,
                supervisor=BatchSupervisor(fail_fast=True),
            )
        err = excinfo.value
        assert err.index == 2
        assert err.completed == {0: 1, 1: 2, 3: 4}
        assert err.missing == (2,)

    def test_unsupervised_run_batch_carries_partial_results(self):
        """The keep-going bugfix: even the plain fail-fast path no
        longer throws away completed cells."""
        with pytest.raises(BatchTaskError) as excinfo:
            run_batch([1, 2, 3, 4], fail_on_three, workers=2)
        err = excinfo.value
        assert err.completed == {0: 1, 1: 2, 3: 4}
        assert err.missing == (2,)

    def test_report_renders(self):
        report = QuarantineReport()
        report.add(
            QuarantinedTask(
                index=2,
                task_repr="(spec, 'cc', 7)",
                reason=REASON_TIMEOUT,
                error="TaskTimeoutError(...)",
                attempts=3,
            )
        )
        text = report.render()
        assert "task #2" in text
        assert "timeout" in text
        assert "3 attempt(s)" in text
        assert "(spec, 'cc', 7)" in text

    def test_roundtrip_dict(self):
        entry = QuarantinedTask(
            index=1, task_repr="t", reason=REASON_HUNG, error="e",
            traceback="tb", attempts=2,
        )
        assert QuarantinedTask.from_dict(entry.to_dict()) == entry


class TestQuarantineMerge:
    @staticmethod
    def _entry(index, reason=REASON_EXCEPTION, error="e"):
        return QuarantinedTask(
            index=index, task_repr=f"t{index}", reason=reason, error=error
        )

    def test_merge_orders_by_task_index(self):
        a = QuarantineReport()
        a.add(self._entry(7))
        a.add(self._entry(2))
        b = QuarantineReport()
        b.add(self._entry(5))
        merged = QuarantineReport.merge([a, b])
        assert merged.indices() == [2, 5, 7]

    def test_merge_is_order_independent(self):
        """Cross-shard determinism: whatever order the per-shard
        reports arrive in, the merge is the same report."""
        parts = []
        for indices in ([3, 1], [9], [4, 0]):
            report = QuarantineReport()
            for index in indices:
                report.add(self._entry(index))
            parts.append(report)
        forward = QuarantineReport.merge(parts)
        backward = QuarantineReport.merge(reversed(parts))
        assert forward.indices() == backward.indices() == [0, 1, 3, 4, 9]
        assert [e.to_dict() for e in forward.entries] == [
            e.to_dict() for e in backward.entries
        ]

    def test_merge_deduplicates_replayed_entries(self):
        """At-least-once delivery: the same task quarantined by two
        shard attempts appears once, first report wins."""
        a = QuarantineReport()
        a.add(self._entry(4, error="first"))
        b = QuarantineReport()
        b.add(self._entry(4, error="second"))
        merged = QuarantineReport.merge([a, b])
        assert len(merged) == 1
        assert merged.entries[0].error == "first"

    def test_merge_of_nothing_is_empty(self):
        assert len(QuarantineReport.merge([])) == 0


class TestTimeoutsAndRetries:
    def test_task_timeout_quarantines(self):
        report = run_batch_report(
            ["a", "sleep", "b"],
            sleepy,
            supervisor=BatchSupervisor(task_timeout=0.1, fail_fast=False),
        )
        assert report.results == ["a", None, "b"]
        entry = report.quarantine.entries[0]
        assert entry.index == 1
        assert entry.reason == REASON_TIMEOUT

    def test_retry_until_success(self, tmp_path):
        counter = tmp_path / "attempts"
        report = run_batch_report(
            [(str(counter), 3)],
            flaky,
            supervisor=BatchSupervisor(
                max_attempts=5, fail_fast=False, sleep=no_sleep
            ),
        )
        assert report.results == [3]
        assert counter.read_text() == "xxx"
        assert not report.quarantine

    def test_retries_exhausted_quarantines_with_attempt_count(self, tmp_path):
        counter = tmp_path / "attempts"
        report = run_batch_report(
            [(str(counter), 99)],
            flaky,
            supervisor=BatchSupervisor(
                max_attempts=3, fail_fast=False, sleep=no_sleep
            ),
        )
        assert report.results == [None]
        entry = report.quarantine.entries[0]
        assert entry.attempts == 3
        assert counter.read_text() == "xxx"


class TestHungWorkers:
    def test_hung_worker_is_quarantined_and_grid_finishes(self):
        """Lease-based hang detection: a task that SIGSTOPs its worker
        on every attempt stops the heartbeat, the lease expires, the
        worker is killed and replaced, and after failing on
        ``max_shard_retries`` distinct workers the task is quarantined
        as hung; the rest of the grid still completes."""
        report = run_batch_report(
            ["a", "stop", "b", "c"],  # shards of 1 on two workers
            stopper,
            workers=2,
            supervisor=BatchSupervisor(
                fail_fast=False,
                heartbeat_interval=0.05,
                lease_timeout=0.5,
                max_shard_retries=2,
            ),
        )
        assert report.results[0] == "a"
        assert report.results[2] == "b"
        assert report.results[3] == "c"
        assert report.results[1] is None
        entry = report.quarantine.entries[0]
        assert entry.index == 1
        assert entry.reason == REASON_HUNG
        assert "hung" in entry.error
        assert "2 distinct worker(s)" in entry.error
        assert report.fleet.leases_expired >= 2


class TestSeededJitter:
    def test_task_rng_is_a_pure_function_of_seed_and_index(self):
        a = BatchSupervisor(retry_seed=7).task_rng(3).random()
        b = BatchSupervisor(retry_seed=7).task_rng(3).random()
        c = BatchSupervisor(retry_seed=7).task_rng(4).random()
        d = BatchSupervisor(retry_seed=8).task_rng(3).random()
        assert a == b
        assert a != c
        assert a != d

    def test_seeded_policy_ignores_caller_rng(self):
        import random

        policy = ExponentialBackoff(0.5, seed=42)
        first = [policy.delay(i, random.Random(0)) for i in range(1, 4)]
        policy = ExponentialBackoff(0.5, seed=42)
        second = [policy.delay(i, random.Random(999)) for i in range(1, 4)]
        assert first == second

    def test_unseeded_policy_uses_caller_rng(self):
        import random

        policy = ExponentialBackoff(0.5)
        a = policy.delay(1, random.Random(0))
        b = policy.delay(1, random.Random(0))
        assert a == b  # same caller stream, same draw
        c = policy.delay(1, random.Random(1))
        assert a != c

    def test_supervised_serial_equals_parallel(self):
        supervisor = BatchSupervisor(fail_fast=False, retry_seed=3)
        serial = run_batch_report(
            list(range(8)), square, workers=1, supervisor=supervisor
        )
        parallel = run_batch_report(
            list(range(8)), square, workers=3, supervisor=supervisor
        )
        assert serial.results == parallel.results == [n * n for n in range(8)]


class TestBatchReportShape:
    def test_missing_is_empty_on_success(self):
        report = run_batch_report([1, 2], square)
        assert isinstance(report, BatchReport)
        assert report.missing == ()
        assert not report.quarantine
