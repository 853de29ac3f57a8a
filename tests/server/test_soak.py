"""Differential chaos soak: faulty run converges with a fault-free twin."""

import dataclasses

import pytest

from repro.server.soak import SoakConfig, run_soak, soak_sweep

pytestmark = pytest.mark.chaos

CONFIG = SoakConfig(seed=3, run_epochs=30, server_crash_at=10, server_restart_at=13)


@pytest.fixture(scope="module")
def result():
    return run_soak(CONFIG)


class TestSoak:
    def test_soak_passes_end_to_end(self, result):
        assert result.ok, result.summary()

    def test_every_client_converges_with_clean_twin(self, result):
        assert result.clients
        for outcome in result.clients:
            assert outcome.converged, outcome.client_id

    def test_clean_twin_matches_server_truth(self, result):
        assert result.truth_match

    def test_no_staleness_violations(self, result):
        assert result.staleness_violations == 0

    def test_chaos_actually_happened(self, result):
        # The soak is vacuous unless faults really fired and recovery
        # paths really ran.
        assert result.metrics["crashes"] == 1
        assert result.metrics["restarts"] == 1
        assert result.metrics["snapshots_sent"] > 0
        assert result.metrics["delta_retransmissions"] > 0
        assert any(c.resumes_sent > 0 for c in result.clients)

    def test_both_runs_drained(self, result):
        assert result.drained and result.clean_drained

    def test_probe_holds_in_both_twins_and_converges(self, result):
        assert result.probe_violations == 0
        assert result.clean_probe_violations == 0
        assert result.probe_match

    def test_retries_are_paid_for_by_faults_only(self, result):
        assert result.retransmissions > 0
        assert result.clean_retransmissions == 0
        assert result.clean_metrics["updates_rejected"] == 0


def counters(metrics):
    """The deterministic slice of a metrics dict (drop wall-clock timings)."""
    return {
        k: v
        for k, v in metrics.items()
        if k not in ("refresh_latency", "epoch_latency")
    }


class TestDeterminism:
    def test_same_seed_reproduces_the_run(self):
        a = run_soak(CONFIG)
        b = run_soak(CONFIG)
        assert counters(a.metrics) == counters(b.metrics)
        assert [c.display for c in a.clients] == [c.display for c in b.clients]

    def test_different_seed_changes_the_run(self):
        other = dataclasses.replace(CONFIG, seed=CONFIG.seed + 1)
        assert run_soak(other).ok


class TestSweep:
    def test_short_sweep_all_ok(self):
        results = soak_sweep(seeds=range(2))
        assert all(r.ok for r in results), [r.summary() for r in results]

    def test_subscriber_less_run_is_checked_by_the_probe(self):
        # The ingest half alone (bench_fault_recovery.py's shape): no
        # client to converge, so the probe comparison carries the run.
        result = run_soak(
            dataclasses.replace(
                CONFIG, n_subscribers=0, server_crash_at=None,
                server_restart_at=None, client_disconnect=None,
            )
        )
        assert result.clients == [] and result.probe_match
        assert result.ok, result.summary()
