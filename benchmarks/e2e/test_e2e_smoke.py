"""Smoke test of the end-to-end benchmark: every workload at toy size,
untraced and traced, in well under a minute.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e

Checks the oracle of every workload, that the metric names printed are
exactly the ones ``BENCHMARK.json`` lists, the shape ``BENCHMARK.json``
itself must have, and the trace rule (layer self times add up to the
traced wall).  Tier-1 (``testpaths = ["tests"]``) does not collect it.
"""

from __future__ import annotations

import json
import re

import pytest

import run
import workloads as W
from harness import OUT_DIR
from tracing import iter_trace

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(scope="module")
def results():
    """``{(workload, traced): result}`` of one smoke pass."""
    return {
        (name, traced): run.run_workload(
            name, seed=7, seconds=W.SMOKE_SECONDS, trace=traced, smoke=True
        )
        for traced in (False, True)
        for name in W.WORKLOADS
    }


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert contract["paths"] == ["benchmarks/e2e"]
    assert 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [w["name"] for w in contract["workloads"]]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        names.append(metric["name"])
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.fullmatch(name) for name in names), names
    assert len(set(names)) == len(names)
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"


def test_workload_table_is_mirrored(contract):
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (spec.name, spec.why) for spec in W.WORKLOADS.values()
    ]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in contract["workloads"])


def test_every_oracle_passes(results):
    for key, result in results.items():
        assert result["correct"] and result["failed"] == 0, (key, result["failures"])
        assert result["attempted"] >= 1


def test_metric_names_equal_the_contract(contract, results):
    end_to_end = [m["name"] for m in contract["end_to_end"]]
    per_layer = [m["name"] for m in contract["per_layer"]]
    for (name, traced), result in results.items():
        assert list(result["metrics"]) == (per_layer if traced else end_to_end)
        line = json.loads(run.contract_line(result))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        if not traced:
            assert all(m["value"] > 0 for m in line["metrics"].values()), (name, line)


def test_self_times_add_up_to_the_traced_wall(results):
    for name in W.WORKLOADS:
        metrics = results[name, True]["metrics"]
        assert metrics["bench.self_time_gap_share"]["value"] < 0.05
        # ... and the same from the trace file alone.
        rows = [
            r
            for r in iter_trace(OUT_DIR / f"trace-{name}.jsonl")
            if r["type"] == "aggregate" and r["phase"] == "run"
        ]
        wall = next(r["total_s"] for r in rows if r["layer"] == "bench.run")
        assert abs(sum(r["self_s"] for r in rows) / wall - 1) < 0.05


def test_wire_codec_is_paid_only_over_tcp(results):
    for name in W.WORKLOADS:
        metrics = results[name, True]["metrics"]
        paid = metrics["server.protocol.encode_ms"]["value"] > 0
        assert paid == (name == "tcp_openloop")


def test_same_seed_same_counts(results):
    again = run.run_workload(
        "steady_patch", seed=7, seconds=W.SMOKE_SECONDS, trace=False, smoke=True
    )
    first = results["steady_patch", False]
    assert again["counts"] == first["counts"]
    assert again["diagnostics"]["digest"] == first["diagnostics"]["digest"]
