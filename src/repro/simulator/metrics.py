"""Simulation metrics: throughput, response times, abort accounting,
fault/downtime/availability accounting.

Aborts are tracked *by reason* (``aborts_by_reason``); the legacy
``protocol_aborts`` / ``timeout_aborts`` counters are derived views.
Reasons used by the engine:

``protocol``        the component scheduler answered ABORT
``timeout``         blocked past the deadlock timeout
``crash``           a component crashed with the root in flight
``component_down``  a call or fresh attempt hit a crashed component
``message_drop``    a call message was lost
``transient``       an access failed transiently

Root-level outcomes are accounted separately from per-attempt outcomes:
``gave_up`` roots (exhausted retry budget) used to be invisible to every
rate — :attr:`root_failure_rate` now reports them against completed
roots, and :meth:`summary` includes it."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class Metrics:
    """Counters filled in by the engine while a simulation runs."""

    commits: int = 0
    gave_up: int = 0  # roots that exhausted their retry budget
    operations: int = 0
    response_times: List[float] = field(default_factory=list)
    end_time: float = 0.0
    #: per-attempt abort counters, keyed by abort reason
    aborts_by_reason: Dict[str, int] = field(default_factory=dict)
    #: aborts that led to a retry (excludes the final abort of a
    #: gave-up root), keyed by the reason of the aborted attempt
    retries_by_reason: Dict[str, int] = field(default_factory=dict)
    #: reason of the *final* abort of each gave-up root
    giveups_by_reason: Dict[str, int] = field(default_factory=dict)
    #: fault-injector event counters (crash, message_drop, transient,
    #: degraded_op); empty when no fault plan is attached
    faults_injected: Dict[str, int] = field(default_factory=dict)
    #: per-component total down duration within the run horizon
    downtime: Dict[str, float] = field(default_factory=dict)
    #: number of components the availability denominator covers
    components: int = 0

    # ------------------------------------------------------------------
    # recording (engine-side API)
    # ------------------------------------------------------------------
    def record_abort(self, reason: str) -> None:
        self.aborts_by_reason[reason] = (
            self.aborts_by_reason.get(reason, 0) + 1
        )

    def record_retry(self, reason: str) -> None:
        self.retries_by_reason[reason] = (
            self.retries_by_reason.get(reason, 0) + 1
        )

    def record_giveup(self, reason: str) -> None:
        self.gave_up += 1
        self.giveups_by_reason[reason] = (
            self.giveups_by_reason.get(reason, 0) + 1
        )

    # ------------------------------------------------------------------
    # attempt-level views
    # ------------------------------------------------------------------
    @property
    def protocol_aborts(self) -> int:
        """Scheduler-refused attempts (legacy counter)."""
        return self.aborts_by_reason.get("protocol", 0)

    @property
    def timeout_aborts(self) -> int:
        """Deadlock-timeout attempts (legacy counter)."""
        return self.aborts_by_reason.get("timeout", 0)

    @property
    def fault_aborts(self) -> int:
        """Attempts killed by injected faults (any fault reason)."""
        return self.total_aborts - self.protocol_aborts - self.timeout_aborts

    @property
    def total_aborts(self) -> int:
        return sum(self.aborts_by_reason.values())

    @property
    def attempts(self) -> int:
        return self.commits + self.total_aborts

    @property
    def abort_rate(self) -> float:
        """Aborted attempts per attempt (any reason)."""
        total = self.attempts
        if total == 0:
            return 0.0
        return self.total_aborts / total

    # ------------------------------------------------------------------
    # root-level views
    # ------------------------------------------------------------------
    @property
    def finished_roots(self) -> int:
        """Roots that reached a terminal outcome (commit or give-up)."""
        return self.commits + self.gave_up

    @property
    def root_failure_rate(self) -> float:
        """Fraction of finished roots that gave up instead of
        committing — the client-visible failure rate that per-attempt
        ``abort_rate`` cannot show."""
        total = self.finished_roots
        if total == 0:
            return 0.0
        return self.gave_up / total

    @property
    def throughput(self) -> float:
        """Committed roots per unit of simulated time."""
        if self.end_time <= 0:
            return 0.0
        return self.commits / self.end_time

    # ------------------------------------------------------------------
    # latency and availability
    # ------------------------------------------------------------------
    @property
    def mean_response_time(self) -> float:
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    def percentile_response_time(self, q: float) -> float:
        """``q``-th percentile (0..100) of root response times."""
        if not self.response_times:
            return 0.0
        data = sorted(self.response_times)
        if len(data) == 1:
            return data[0]
        rank = (q / 100.0) * (len(data) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(data) - 1)
        frac = rank - lo
        return data[lo] * (1 - frac) + data[hi] * frac

    @property
    def availability(self) -> float:
        """Fraction of component-uptime over the run horizon: 1.0 means
        every component served the whole run, 0.0 means everything was
        down throughout.  Without fault accounting it is trivially 1."""
        if self.end_time <= 0 or self.components <= 0:
            return 1.0
        capacity = self.components * self.end_time
        down = sum(self.downtime.values())
        return max(0.0, 1.0 - down / capacity)

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        out = {
            "commits": self.commits,
            "protocol_aborts": self.protocol_aborts,
            "timeout_aborts": self.timeout_aborts,
            "fault_aborts": self.fault_aborts,
            "gave_up": self.gave_up,
            "operations": self.operations,
            "abort_rate": round(self.abort_rate, 4),
            "root_failure_rate": round(self.root_failure_rate, 4),
            "availability": round(self.availability, 4),
            "throughput": round(self.throughput, 4),
            "mean_response_time": round(self.mean_response_time, 4),
            "p50_response_time": round(self.percentile_response_time(50), 4),
            "p95_response_time": round(self.percentile_response_time(95), 4),
        }
        return out

    def abort_breakdown(self) -> str:
        """Compact ``reason:count`` rendering, stable order."""
        if not self.aborts_by_reason:
            return "-"
        return " ".join(
            f"{reason}:{count}"
            for reason, count in sorted(self.aborts_by_reason.items())
        )
