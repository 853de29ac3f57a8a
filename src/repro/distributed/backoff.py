"""Retry backoff schedules with jitter — shared by every retransmitter.

After a healed partition, every sender that backed off on the same tick
would otherwise retry on the same tick, re-congesting the link the moment
it comes back (the classic thundering-herd).  :class:`RetrySchedule`
computes capped exponential retry intervals and, when ``jitter`` is set,
spreads them with a seeded RNG so schedules stay deterministic per sender
but decorrelated across senders.

Used by the continuous-query server's delta retransmission
(:class:`repro.server.session.ClientSession`) and its batched-ingest
reporters (:class:`repro.server.client.BatchingReporter`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import DistributedError


@dataclass(frozen=True)
class RetrySchedule:
    """Capped exponential backoff with optional proportional jitter.

    Attributes:
        base: ticks before the first retransmission (attempt 0).
        factor: multiplicative growth per attempt.
        cap: interval ceiling in ticks (the configurable cap — retries
            never wait longer than this, jitter aside).
        jitter: proportional spread; the computed interval is scaled by a
            uniform draw from ``[1 - jitter, 1 + jitter]``.  ``0`` means
            a deterministic schedule identical for every sender.
    """

    base: float = 2.0
    factor: float = 2.0
    cap: float = 8.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.base < 1:
            raise DistributedError("backoff base must be at least one tick")
        if self.factor < 1.0:
            raise DistributedError("backoff factor must be >= 1")
        if self.cap < self.base:
            raise DistributedError("backoff cap must be >= base")
        if not 0.0 <= self.jitter < 1.0:
            raise DistributedError("jitter must be in [0, 1)")

    def interval(
        self, attempts: int, rng: random.Random | None = None
    ) -> int:
        """The wait, in whole ticks (>= 1), before retry ``attempts``.

        Without jitter this is exactly
        ``min(int(base * factor**attempts), cap)``.  With
        jitter, the pre-truncation value is scaled by the seeded draw —
        the cap bounds the *nominal* interval, so the jittered wait never
        exceeds ``cap * (1 + jitter)``.
        """
        if attempts < 0:
            raise DistributedError("attempts must be non-negative")
        raw = min(self.base * self.factor**attempts, self.cap)
        if self.jitter and rng is not None:
            raw *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter)
        return max(1, int(raw))

    def preview(
        self, retries: int, rng: random.Random | None = None
    ) -> list[int]:
        """The first ``retries`` intervals (for tests and diagnostics)."""
        return [self.interval(a, rng) for a in range(1, retries + 1)]
