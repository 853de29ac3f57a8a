"""E18 — fault recovery cost of the update protocol vs drop rate.

The batched, acked, retried ingest protocol buys convergence under loss.
We sweep the per-link drop probability over subscriber-less soak runs
(:func:`repro.server.soak.run_soak`; no display clients, so heartbeats
and delta traffic do not swamp the count and the probe query is the
convergence check) and measure, per run, the message overhead over the
fault-free twin and the epochs of drain the retries need after the
faults heal.  Expected shape: every run still converges tuple-for-tuple,
and loss is paid in *drain time*, not messages — a reporter holds one
batch in flight (stop-and-wait), so updates reported while it waits ride
the next batch together and a lossy run sends fewer, larger batches.
The message overhead is reported, not asserted monotone.
"""

from __future__ import annotations

import statistics

from repro.server.soak import SoakConfig, run_soak

SEEDS_PER_RATE = 8
DROP_RATES = (0.0, 0.1, 0.3, 0.5, 0.7)


def run_rate(drop: float) -> tuple[float, float, float, float, int]:
    """Returns (mean messages, mean overhead x, mean retransmissions,
    mean drain epochs, converged)."""
    messages, overhead, retransmissions, drain, converged = [], [], [], [], 0
    for seed in range(SEEDS_PER_RATE):
        # Other fault knobs and both crashes pinned off so the sweep
        # isolates the drop rate (delays alone already race the retry
        # timer); with no subscriber there is no periodic policy to
        # settle, so the drain ends at the first quiescent epoch.
        result = run_soak(
            SoakConfig(
                seed=seed,
                n_trackers=3,
                n_subscribers=0,
                run_epochs=16,
                max_drain=60,
                settle=1,
                drop=drop,
                delay=(0, 0),
                duplicate=0.0,
                reorder=0.0,
                tracker_crash=False,
                server_crash_at=None,
                server_restart_at=None,
                client_disconnect=None,
            )
        )
        messages.append(result.messages)
        overhead.append(result.messages / max(1, result.clean_messages))
        retransmissions.append(result.retransmissions)
        drain.append(result.final_tick - result.config.run_epochs)
        converged += result.ok
    return (
        statistics.mean(messages),
        statistics.mean(overhead),
        statistics.mean(retransmissions),
        statistics.mean(drain),
        converged,
    )


def test_fault_recovery(benchmark, record_table):
    rows = []
    for drop in DROP_RATES:
        msgs, overhead, retransmissions, drain, converged = run_rate(drop)
        rows.append(
            [
                drop,
                round(msgs, 1),
                round(overhead, 2),
                round(retransmissions, 1),
                round(drain, 1),
                f"{converged}/{SEEDS_PER_RATE}",
            ]
        )
    benchmark(run_rate, 0.3)
    record_table(
        "E18: update-protocol recovery cost vs drop rate "
        f"({SEEDS_PER_RATE} seeds per rate)",
        [
            "drop rate",
            "messages",
            "overhead x",
            "retransmissions",
            "drain epochs",
            "converged",
        ],
        rows,
    )
    # Every run converges and drains; loss costs drain time.
    assert all(row[5] == f"{SEEDS_PER_RATE}/{SEEDS_PER_RATE}" for row in rows)
    assert rows[0][2] <= 1.01  # lossless: no retransmission overhead
    assert rows[0][3] == 0
    assert rows[-1][4] > rows[0][4]
