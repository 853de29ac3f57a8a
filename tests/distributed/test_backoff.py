"""RetrySchedule and jittered BatchingReporter backoff (DESIGN.md §4)."""

import random

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.distributed import (
    FaultPlan,
    LinkFaults,
    MobileNode,
    RetrySchedule,
    SimNetwork,
)
from repro.errors import DistributedError
from repro.geometry import Point
from repro.motion import linear_moving_point
from repro.server import BatchingReporter, CQServer
from repro.temporal import SimulationClock


class TestRetrySchedule:
    def test_no_jitter_matches_legacy_schedule(self):
        schedule = RetrySchedule(base=2, factor=2, cap=8)
        legacy = [min(int(2 * 2**a), 8) for a in range(6)]
        assert [schedule.interval(a) for a in range(6)] == legacy

    def test_seeded_rng_reproduces_exactly(self):
        schedule = RetrySchedule(base=2, factor=2, cap=8, jitter=0.3)
        a = schedule.preview(8, random.Random(42))
        b = schedule.preview(8, random.Random(42))
        assert a == b

    def test_different_seeds_decorrelate(self):
        schedule = RetrySchedule(base=2, factor=3, cap=60, jitter=0.5)
        a = schedule.preview(12, random.Random(1))
        b = schedule.preview(12, random.Random(2))
        assert a != b

    def test_jitter_respects_cap_times_one_plus_jitter(self):
        schedule = RetrySchedule(base=2, factor=2, cap=8, jitter=0.3)
        rng = random.Random(7)
        for attempts in range(20):
            value = schedule.interval(attempts, rng)
            assert 1 <= value <= int(8 * 1.3)

    def test_jitter_without_rng_is_deterministic(self):
        schedule = RetrySchedule(base=2, factor=2, cap=8, jitter=0.9)
        assert schedule.interval(1) == 4  # no rng handed in: nominal value

    def test_interval_never_below_one_tick(self):
        schedule = RetrySchedule(base=1, factor=1, cap=1, jitter=0.9)
        rng = random.Random(0)
        assert all(schedule.interval(a, rng) >= 1 for a in range(10))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": 0},
            {"factor": 0.5},
            {"cap": 1, "base": 2},
            {"jitter": -0.1},
            {"jitter": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(DistributedError):
            RetrySchedule(**kwargs)

    def test_negative_attempts_rejected(self):
        with pytest.raises(DistributedError):
            RetrySchedule().interval(-1)


def lossy_world(n_nodes, schedule=None, seeds=None):
    """Reporters on an always-dropping link, to observe retry cadence."""
    clock = SimulationClock()
    db = MostDatabase(clock)
    db.create_class(ObjectClass("cars", spatial_dimensions=2))
    net = SimNetwork(
        clock, faults=FaultPlan(seed=0, default=LinkFaults(drop=1.0))
    )
    CQServer(db, net)
    reporters = []
    for i in range(n_nodes):
        object_id = f"car-{i}"
        node = MobileNode(
            object_id, net, linear_moving_point(Point(0, 0), Point(0, 0))
        )
        reporters.append(
            BatchingReporter(
                node,
                object_id=object_id,
                schedule=schedule,
                seed=seeds[i] if seeds else None,
            )
        )
    return clock, reporters


def retry_ticks(reporters, clock, horizon=40):
    """Per reporter, the ticks on which it retransmitted its
    (never-acked) batch."""
    ticks = [[] for _ in reporters]
    before = [r.retransmissions for r in reporters]
    for _ in range(horizon):
        clock.tick()
        for i, rep in enumerate(reporters):
            if rep.retransmissions > before[i]:
                ticks[i].append(clock.now)
                before[i] = rep.retransmissions
    return ticks


class TestReporterJitter:
    def test_same_seed_same_retry_cadence(self):
        ticks = []
        for _ in range(2):
            clock, reporters = lossy_world(1, seeds=[99])
            reporters[0].report(Point(1.0, 0.0))
            ticks.append(retry_ticks(reporters, clock)[0])
        assert ticks[0] == ticks[1]
        assert len(ticks[0]) >= 3

    def test_default_seeds_decorrelate_reporters(self):
        # Identical update patterns, per-object default seeds: the herd
        # must not retry in lockstep.
        clock, reporters = lossy_world(2)
        for rep in reporters:
            rep.report(Point(1.0, 0.0))
        cadences = retry_ticks(reporters, clock)
        assert cadences[0] != cadences[1]

    def test_configurable_cap_limits_the_wait(self):
        clock, reporters = lossy_world(
            1, schedule=RetrySchedule(base=2, factor=2, cap=4)
        )
        reporters[0].report(Point(1.0, 0.0))
        (ticks,) = retry_ticks(reporters, clock, horizon=30)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert gaps and max(gaps) <= 4
