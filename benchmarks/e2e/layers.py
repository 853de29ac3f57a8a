"""Per-layer metrics: from traced layer totals to the names of
``BENCHMARK.json``.

A layer is a module of ``src/repro``.  Each metric is a count, a busy
time (``*_ms``: inclusive milliseconds inside the layer's traced calls
during the timed section; ``*self_ms``: the same minus the time its
traced children cover) or a useful/attempted ratio (``*_share``).
Every workload reports every name; a layer the workload never enters
reads 0 — that is the bypass half of an exercise/bypass pair.
"""

from __future__ import annotations

from typing import Mapping

from harness import share
from tracing import Totals

_ZERO = (0, 0.0, 0.0)

#: Layers whose calls happen (also) during set-up and whose cost is
#: what ``setup_s`` and the first answer are made of; their times are
#: summed over set-up and timed section.
SETUP_LAYERS = (
    "ftl.parser.parse",
    "ftl.analysis.analyze",
    "ftl.analysis.plan",
    "parallel.pool.start",
)


#: What the runners measure themselves (``extra``); a workload without
#: the layer reports 0.
MEASURED_DEFAULTS = {
    "server.epoch.p95_ms": 0.0,
    "server.first_answer_ms": 0.0,
    "server.epoch.utilisation": 0.0,
    "server.epoch.lag_p95_ms": 0.0,
    "server.protocol.bytes_out": 0.0,
    "server.protocol.bytes_in": 0.0,
    "server.tcp.bad_lines": 0.0,
    "server.tcp.delta_latency_p95_ms": 0.0,
    "server.tcp.delta_latency_raw_p50_ms": 0.0,
    "server.tcp.ingest_ack_p50_ms": 0.0,
    "server.tcp.bytes_per_update": 0.0,
    "bench.generator_late_p95_ms": 0.0,
}


def layer_metrics(
    run: Totals,
    setup: Totals,
    hooks: Mapping[str, float],
    counts: Mapping[str, float],
    extra: Mapping[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``run`` / ``setup`` are the tracer's layer totals of the two phases,
    ``hooks`` the evaluator counters its after-hooks summed over the
    timed section, ``counts`` the server's exact counter deltas (empty
    without a server) and ``extra`` what the runner measured itself.
    """

    def calls(layer: str) -> float:
        return run.get(layer, _ZERO)[0]

    def ms(layer: str) -> float:
        total = run.get(layer, _ZERO)[1]
        if layer in SETUP_LAYERS:
            total += setup.get(layer, _ZERO)[1]
        return total * 1e3

    def self_ms(layer: str) -> float:
        return run.get(layer, _ZERO)[2] * 1e3

    def count(name: str) -> float:
        return counts.get(name, 0)

    def hook(name: str) -> float:
        return hooks.get(name, 0)

    answered = (
        hook("pruned_instantiations")
        + hook("kinetic_solves")
        + hook("cache_hits")
        + hook("cache_shift_hits")
    )
    skipped = count("deps_skipped_refreshes") + count("horizon_skipped_refreshes")
    tuples = count("tuples_sent") + count("retract_tuples_sent")
    metrics = {
        "ftl.parser.parse_ms": ms("ftl.parser.parse"),
        "ftl.analysis.analyze_ms": ms("ftl.analysis.analyze"),
        "ftl.analysis.plan_ms": ms("ftl.analysis.plan"),
        "ftl.atoms.pruner.probe_ms": ms("ftl.atoms.pruner.probe"),
        "ftl.atoms.pruner.probes": calls("ftl.atoms.pruner.probe"),
        "ftl.atoms.pruned_share": share(hook("pruned_instantiations"), answered),
        "index.rtree.search_ms": ms("index.rtree.search"),
        "index.rtree.searches": calls("index.rtree.search"),
        "index.rtree.insert_ms": ms("index.rtree.insert"),
        "motion.batch.solve_ms": ms("motion.batch.solve"),
        "motion.batch.solves": hook("kinetic_solves"),
        "spatial.kinetic.scalar_ms": ms("spatial.kinetic.scalar"),
        "ftl.atoms.cache.hit_share": share(
            hook("cache_hits"), hook("cache_hits") + hook("cache_misses")
        ),
        "ftl.atoms.cache.shift_hits": hook("cache_shift_hits"),
        "ftl.evaluator.evaluate_ms": ms("ftl.evaluator.evaluate"),
        "ftl.evaluator.self_ms": self_ms("ftl.evaluator.evaluate"),
        "temporal.ops_ms": ms("temporal.ops"),
        "temporal.ops": calls("temporal.ops"),
        "ftl.relations.patch_ms": ms("ftl.relations.patch"),
        "ftl.relations.project_ms": ms("ftl.relations.project"),
        "ftl.incremental.refresh_ms": ms("ftl.incremental.refresh"),
        "ftl.incremental.self_ms": self_ms("ftl.incremental.refresh"),
        "ftl.incremental.full_fallbacks": count("full_evaluations"),
        "ftl.incremental.subtrees_skipped": count("subtrees_skipped"),
        "ftl.incremental.horizon_subtrees_skipped": count("horizon_subtrees_skipped"),
        "core.database.ingest_ms": ms("core.database.ingest"),
        "core.database.ingest_self_ms": self_ms("core.database.ingest"),
        "core.database.ingest_rejected": count("ingest_rejected"),
        "core.history.build_ms": ms("core.history.build"),
        "core.queries.affects_ms": ms("core.queries.affects"),
        "core.queries.affects_calls": calls("core.queries.affects"),
        "core.queries.skipped_by_deps": count("skipped_by_deps"),
        "core.queries.horizon_skipped": count("horizon_skipped"),
        "core.queries.gate_share": share(
            count("skipped_by_deps") + count("horizon_skipped"),
            calls("core.queries.affects"),
        ),
        "core.queries.refresh_ms": ms("core.queries.refresh"),
        "core.queries.refresh_self_ms": self_ms("core.queries.refresh"),
        "core.queries.evaluations": count("evaluations"),
        "core.queries.stamped_tuples_ms": ms("core.queries.stamped_tuples"),
        "server.epoch.busy_ms": ms("server.epoch"),
        "server.epoch.self_ms": self_ms("server.epoch"),
        "server.epoch.pump_ms": ms("server.epoch.pump"),
        "server.epoch.pump_self_ms": self_ms("server.epoch.pump"),
        "server.epoch.epochs": count("epochs"),
        "server.inbox_high_water": count("inbox_high_water"),
        "server.registry.refresh_round_ms": ms("server.registry.refresh_round"),
        "server.registry.capture_ms": ms("server.registry.capture"),
        "server.registry.capture_self_ms": self_ms("server.registry.capture"),
        "server.registry.refreshes": count("refreshes"),
        "server.registry.deps_skipped_refreshes": count("deps_skipped_refreshes"),
        "server.registry.horizon_skipped_refreshes": count(
            "horizon_skipped_refreshes"
        ),
        "server.registry.skip_share": share(skipped, skipped + count("refreshes")),
        "server.session.step_ms": ms("server.session.step"),
        "server.session.step_self_ms": self_ms("server.session.step"),
        "server.session.steps": calls("server.session.step"),
        "server.session.deltas_sent": count("deltas_sent"),
        "server.session.tuples_sent": count("tuples_sent"),
        "server.session.retract_tuples_sent": count("retract_tuples_sent"),
        "server.session.snapshots_sent": count("snapshots_sent"),
        "server.session.delta_retransmissions": count("delta_retransmissions"),
        "server.session.disconnects": count("disconnects"),
        "server.session.tuples_per_update": share(tuples, count("updates_applied")),
        "server.transport.send_ms": ms("server.transport.send"),
        "distributed.network.send_ms": ms("distributed.network.send"),
        "distributed.network.send_self_ms": self_ms("distributed.network.send"),
        "server.client.on_delta_ms": ms("server.client.on_delta"),
        "server.protocol.encode_ms": ms("server.protocol.encode"),
        "server.protocol.decode_ms": ms("server.protocol.decode"),
        "server.tcp.send_ms": ms("server.tcp.send"),
        "parallel.pool.start_ms": ms("parallel.pool.start"),
        "parallel.pool.ship_ms": ms("parallel.pool.ship"),
        "parallel.pool.run_ms": ms("parallel.pool.run"),
        "parallel.evaluator.merge_ms": self_ms("parallel.evaluator.evaluate"),
        "parallel.shard_skew": share(hook("shard_skew_sum"), hook("shard_evals")),
        "parallel.shard_max_ms": hook("shard_max_s") * 1e3,
        "parallel.motion.snapshot_bytes": hook("snapshot_bytes"),
        "bench.driver_ms": self_ms("bench.run"),
        "bench.traced_wall_ms": ms("bench.run"),
        # The self times of the timed section add up to its wall time.
        "bench.self_time_gap_share": abs(
            sum(row[2] for row in run.values()) * 1e3 - ms("bench.run")
        )
        / max(ms("bench.run"), 1e-9),
        **MEASURED_DEFAULTS,
    }
    metrics.update(extra)
    return metrics
