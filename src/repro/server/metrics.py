"""Counters and latency percentiles for the continuous-query server.

Everything the soak harness asserts on and the E14 bench reports comes
through here: ingest throughput, backpressure engagements, fan-out
volume, degradation-ladder residency, and per-epoch / per-refresh
latency distributions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

# Degradation-ladder levels (DESIGN.md §9).
NORMAL = "normal"
BACKPRESSURE = "backpressure"
SHEDDING = "shedding"


class LatencyWindow:
    """A bounded sample window with percentile readout.

    Keeps the most recent ``cap`` samples (enough for a p99 over a soak
    or bench run without unbounded growth — this is a robustness PR).
    """

    def __init__(self, cap: int = 8192) -> None:
        self.cap = cap
        self._samples: list[float] = []
        self.count = 0
        self.total = 0.0

    def record(self, value: float) -> None:
        """Add one sample (seconds)."""
        self.count += 1
        self.total += value
        self._samples.append(value)
        if len(self._samples) > self.cap:
            del self._samples[: len(self._samples) - self.cap]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of the retained window."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(
            0, min(len(ordered) - 1, round(q / 100.0 * (len(ordered) - 1)))
        )
        return ordered[rank]

    @property
    def mean(self) -> float:
        """Mean over *all* recorded samples (not just the window)."""
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict[str, float]:
        """p50/p95/p99/mean/count as a JSON-ready dict."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


@dataclass
class ServerMetrics:
    """Aggregate counters of one server lifetime (crashes included)."""

    epochs: int = 0
    #: Updates accepted into the epoch inbox.
    updates_enqueued: int = 0
    #: Updates applied to the database (idempotent-ingest accepted).
    updates_applied: int = 0
    #: Updates the database refused as stale/duplicate.
    updates_rejected: int = 0
    #: Batches refused with an explicit busy/back-off signal.
    busy_signals: int = 0
    #: High-water mark of the epoch inbox depth.
    inbox_high_water: int = 0
    #: Epochs spent at each degradation-ladder level.
    epochs_at_level: dict[str, int] = field(
        default_factory=lambda: {NORMAL: 0, BACKPRESSURE: 0, SHEDDING: 0}
    )
    #: Query refreshes actually executed / skipped by shedding.
    refreshes: int = 0
    shed_refreshes: int = 0
    #: Refreshes skipped because no relevant update dirtied the query
    #: since its last read (static update-impact analysis, DESIGN.md §10).
    deps_skipped_refreshes: int = 0
    #: Refreshes skipped because every covered update's consequences
    #: provably lie beyond the query's validity horizon (DESIGN.md §11).
    horizon_skipped_refreshes: int = 0
    #: Atom rows the refreshes answered from their round's shared table
    #: instead of solving (``ContinuousQuery.shared_rows``, DESIGN.md
    #: §7): what solving each distinct atom once per round saves.
    shared_rows: int = 0
    #: Delta messages (and tuples) fanned out to subscribers.
    deltas_sent: int = 0
    tuples_sent: int = 0
    retract_tuples_sent: int = 0
    snapshots_sent: int = 0
    #: What fan-out costs: answer-state diffs actually computed (one per
    #: distinct ``(base, state)`` pair asked of ``AnswerState.since``,
    #: however many sessions share it) and continuing tuples whose
    #: ``begin`` a capture kept, i.e. re-sends a refresh did not cause.
    diffs_computed: int = 0
    tuples_carried: int = 0
    #: Tuples a capture had to stamp afresh — the rows a refresh may
    #: have changed, not the answer (``AnswerState.capture``).
    tuples_restamped: int = 0
    #: Delta retransmissions after an ack timeout.
    delta_retransmissions: int = 0
    #: Client lifecycle events.
    subscriptions: int = 0
    resumes: int = 0
    disconnects: int = 0
    reconnects: int = 0
    #: Server crash/restart cycles.
    crashes: int = 0
    restarts: int = 0
    refresh_latency: LatencyWindow = field(default_factory=LatencyWindow)
    epoch_latency: LatencyWindow = field(default_factory=LatencyWindow)

    def observe_inbox(self, depth: int) -> None:
        """Track the inbox high-water mark."""
        if depth > self.inbox_high_water:
            self.inbox_high_water = depth

    def to_dict(self) -> dict[str, Any]:
        """Everything, JSON-ready (the bench artifact embeds this)."""
        return {
            "epochs": self.epochs,
            "updates_enqueued": self.updates_enqueued,
            "updates_applied": self.updates_applied,
            "updates_rejected": self.updates_rejected,
            "busy_signals": self.busy_signals,
            "inbox_high_water": self.inbox_high_water,
            "epochs_at_level": dict(self.epochs_at_level),
            "refreshes": self.refreshes,
            "shed_refreshes": self.shed_refreshes,
            "deps_skipped_refreshes": self.deps_skipped_refreshes,
            "horizon_skipped_refreshes": self.horizon_skipped_refreshes,
            "shared_rows": self.shared_rows,
            "deltas_sent": self.deltas_sent,
            "tuples_sent": self.tuples_sent,
            "retract_tuples_sent": self.retract_tuples_sent,
            "snapshots_sent": self.snapshots_sent,
            "diffs_computed": self.diffs_computed,
            "tuples_carried": self.tuples_carried,
            "tuples_restamped": self.tuples_restamped,
            "delta_retransmissions": self.delta_retransmissions,
            "subscriptions": self.subscriptions,
            "resumes": self.resumes,
            "disconnects": self.disconnects,
            "reconnects": self.reconnects,
            "crashes": self.crashes,
            "restarts": self.restarts,
            "refresh_latency": self.refresh_latency.summary(),
            "epoch_latency": self.epoch_latency.summary(),
        }
