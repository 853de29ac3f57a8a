"""Differential fault wall of the update pipeline, on the soak harness.

Each seed builds a different fault mix (drop rate, delay window,
duplication, reordering, tracker crash schedule) around a server
crash-restart and a forced client disconnection.  For every one of them:

* the healed-and-drained answers — every subscriber's display and the
  probe query attached straight to the database — must match the
  fault-free twin tuple-for-tuple (:attr:`SoakResult.ok`);
* at no epoch of either twin may the probe's degraded display differ
  from its fresh tuples or rest on an attribute older than the
  staleness bound, and no client may display such a tuple unflagged;
* the fault-free twin must not retransmit a batch or have an update
  rejected — retries are paid for by faults only.
"""

import dataclasses

import pytest

from repro.server.soak import (
    SoakConfig,
    fault_plan,
    run_soak,
    soak_sweep,
    update_schedule,
)
from tests.server.test_soak import counters

N_SCHEDULES = 120


def deterministic(result):
    """A :class:`SoakResult` without its wall-clock latency windows."""
    return dataclasses.replace(
        result,
        metrics=counters(result.metrics),
        clean_metrics=counters(result.clean_metrics),
    )


class TestDifferentialSuite:
    @pytest.mark.parametrize("seed", range(N_SCHEDULES))
    def test_converges_and_respects_staleness_bound(self, seed):
        (result,) = soak_sweep([seed])
        # Drained, every display and the probe converged, no stale
        # tuple shown in either twin; the summary names what did not.
        assert result.ok, result.summary()
        # The wall is vacuous unless the loop really died, and it must
        # keep forcing a client off the air (the sweep's default).
        assert result.metrics["crashes"] == 1
        assert result.metrics["restarts"] == 1
        assert result.config.client_disconnect is not None
        # Fault-free links cost no retransmission and no duplicate.
        assert result.clean_retransmissions == 0
        assert result.clean_metrics["updates_rejected"] == 0


class TestHarnessProperties:
    def test_deterministic(self):
        a = run_soak(SoakConfig(seed=11))
        b = run_soak(SoakConfig(seed=11))
        assert deterministic(a) == deterministic(b)

    def test_different_seeds_differ(self):
        traces = {run_soak(SoakConfig(seed=s)).messages for s in range(6)}
        assert len(traces) > 1

    def test_faults_actually_cost_messages(self):
        # Under the batched stop-and-wait protocol loss is paid in
        # retransmissions and drain time; the message *total* is not
        # monotone in the drop rate (bench_fault_recovery.py reports it).
        result = run_soak(SoakConfig(seed=2, drop=0.5))
        assert result.retransmissions > 0

    def test_clean_twin_never_retransmits(self):
        result = run_soak(SoakConfig(seed=5))
        assert result.clean_retransmissions == 0
        assert result.clean_metrics["updates_rejected"] == 0
        assert result.clean_metrics["delta_retransmissions"] == 0

    def test_schedule_and_plan_are_seed_functions(self):
        config = SoakConfig(seed=9)
        assert update_schedule(config) == update_schedule(config)
        a, b = fault_plan(config), fault_plan(config)
        for tick in range(config.run_epochs):
            for i in range(config.n_trackers):
                node = f"tracker-{i}"
                assert a.crashed(node, tick) == b.crashed(node, tick)


@pytest.mark.chaos
class TestChaosSmoke:
    """The CI smoke step: three representative fault schedules."""

    @pytest.mark.parametrize(
        "config",
        [
            SoakConfig(seed=101, drop=0.5, delay=(0, 4), tracker_crash=True),
            SoakConfig(seed=202, drop=0.2, duplicate=0.4, reorder=0.5),
            SoakConfig(seed=303, drop=0.0, delay=(2, 6), tracker_crash=False),
        ],
        ids=["lossy-crash", "dup-reorder", "slow-links"],
    )
    def test_schedule(self, config):
        result = run_soak(config)
        assert result.ok, result.summary()
