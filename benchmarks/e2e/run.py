"""The end-to-end benchmark: one command, every metric by name.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --trace               # ... untraced, then traced
    python3 benchmarks/e2e/run.py --repeat 10 --out A.json   # ten seeds, for compare.py
    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py --smoke               # toy sizes, seconds
    python3 benchmarks/e2e/run.py --check-determinism

The ``--workload`` form is the one ``BENCHMARK.json`` names: it runs one
workload once and prints, as its last line, one JSON object with
``correct`` / ``attempted`` / ``failed`` / ``metrics`` — every
``end_to_end`` metric with ``--trace 0``, every ``per_layer`` metric with
``--trace 1`` — and exits non-zero only when an output was wrong.  The
form without ``--workload`` is the report: all workloads, a table, an
optional ``--out`` file for ``compare.py``, and a non-zero exit when any
oracle failed *or* a run was invalid (see README.md, "Run validity").
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program under test is not here")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
from compare import EXACT_COUNTS  # noqa: E402
import workloads as W  # noqa: E402
from layers import layer_metrics  # noqa: E402
from tracing import Tracer  # noqa: E402

def load_contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def runner_factory(spec: W.Workload, seed: int, units: int):
    """``tracer -> runner`` for the workload's kind."""
    if spec.kind == "cold":
        from cold import ColdRunner

        return lambda tracer: ColdRunner(spec, seed, units, tracer)
    if spec.kind == "sim":
        from sim import SimRunner

        return lambda tracer: SimRunner(spec, seed, units, tracer)
    from tcp import TcpRunner

    return lambda tracer: TcpRunner(spec, seed, units, tracer is not None)


def untraced_values(factory) -> tuple[dict[str, float], dict, dict]:
    """The end-to-end metrics of one untraced run."""
    out = harness.measure_untraced(factory, W.SETUP_REPEATS)
    summary = harness.summarise(out["run"])
    values = {
        "setup_s": statistics.median(out["setups"]),
        "latency_p50_ms": summary["latency_p50_s"] * 1e3,
        "throughput_per_s": summary["throughput_per_s"],
    }
    return values, out, summary


def traced_values(spec: W.Workload, factory) -> tuple[dict[str, float], dict, dict]:
    """The per-layer metrics of one traced run (the timed work untraced,
    then the same work traced); the trace file is written on the way."""
    tracer = Tracer()
    out = harness.measure_traced(factory, tracer)
    run = out["run"]
    summary = harness.summarise(run)
    plain = harness.summarise(out["plain"])
    if "child" in run:
        # tcp_openloop: the server's layers live in the child, which
        # also wrote the trace file.
        exported = run["child"]
    else:
        exported = tracer.export()
        tracer.dump(harness.OUT_DIR / f"trace-{spec.name}.jsonl")
    run_totals = exported["totals"].get("run", {})
    extra = dict(run.get("extra", {}))
    if spec.kind == "sim":
        extra["server.epoch.p95_ms"] = harness.percentile(summary["samples"], 95) * 1e3
    extra["bench.calibration_ms"] = statistics.median(out["cal"].calibrations) * 1e3
    extra["bench.raw_wall_s"] = summary["raw_wall_s"]
    extra["bench.trace_overhead_share"] = (
        harness.share(summary["busy_s"], plain["busy_s"]) - 1.0
    )
    values = layer_metrics(
        run_totals,
        exported["totals"].get("setup", {}),
        exported["counters"].get("run", {}),
        run["counts"],
        extra,
    )
    summary["layers_self_ms"] = {
        layer: row[2] * 1e3 for layer, row in sorted(run_totals.items())
    }
    return values, out, summary


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> dict[str, Any]:
    """One run of one workload; everything measured, JSON-ready."""
    spec = W.WORKLOADS[name]
    if smoke:
        spec = W.smoke(spec)
    units = spec.units(seconds)
    if trace:
        units = max(1, units // 2)  # untraced half, traced half
    factory = runner_factory(spec, seed, units)
    if trace:
        values, out, summary = traced_values(spec, factory)
        listed = load_contract()["per_layer"]
    else:
        values, out, summary = untraced_values(factory)
        listed = load_contract()["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise KeyError(f"{name}: metrics not measured: {missing}")
    run, cal, ops = out["run"], out["cal"], out["ops"]
    invalid = list(run.get("invalid", []))
    if (spec.parallel or spec.kind == "tcp") and harness.usable_cpus() < 2:
        invalid.append(
            "fewer than 2 CPUs: worker/child processes are time-sliced "
            "with the measuring process"
        )
    if cal.spread() > harness.MAX_CALIBRATION_SPREAD:
        invalid.append(
            f"calibration spread {cal.spread():.2f} within the run exceeds "
            f"{harness.MAX_CALIBRATION_SPREAD}"
        )
    samples_ms = [s * 1e3 for s in summary["samples"]]
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "traced": trace,
        "smoke": smoke,
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "valid": not invalid,
        "invalid_reasons": invalid,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
        "counts": run["counts"],
        "diagnostics": {
            "samples": len(samples_ms),
            "tail": harness.tail(samples_ms),
            "raw_wall_s": summary["raw_wall_s"],
            "full_rate_per_s": summary["full_rate_per_s"],
            "calibrations_s": cal.calibrations,
            "calibration_spread": cal.spread(),
            "digest": getattr(out["runner"], "digest", None),
        },
    }
    if trace:
        result["layers_self_ms"] = summary["layers_self_ms"]
    return result


def contract_line(result: dict[str, Any]) -> str:
    """The one-line result the ``--workload`` form ends with."""
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


def print_result(result: dict[str, Any]) -> None:
    """Every metric by name, with its unit and the sample count."""
    diag = result["diagnostics"]
    head = (
        f"== {result['workload']} seed={result['seed']} "
        f"{'traced' if result['traced'] else 'untraced'}: "
        f"{result['attempted']} ops attempted, {result['failed']} failed; "
        f"{diag['samples']} latency samples"
    )
    if diag["tail"]:
        head += f", p{diag['tail'][0]} {diag['tail'][1]:.3f} ms"
    print(head)
    for name, metric in result["metrics"].items():
        print(f"  {name:46s} {metric['value']:14.4f} {metric['unit']}")
    for reason in result["failures"]:
        print(f"  FAILED: {reason}")
    for reason in result["invalid_reasons"]:
        print(f"  INVALID: {reason}")
    if result["traced"]:
        wall = result["metrics"]["bench.traced_wall_ms"]["value"]
        top = sorted(result["layers_self_ms"].items(), key=lambda kv: -kv[1])[:8]
        print("  largest self times: " + ", ".join(
            f"{layer} {value:.0f} ms ({harness.share(value, wall):.0%})"
            for layer, value in top
        ))


def write_out(path: Path | None, results: list[dict[str, Any]]) -> None:
    """The result file ``compare.py`` reads: fingerprint + runs."""
    if path is not None:
        document = {"fingerprint": harness.fingerprint(), "runs": results}
        path.write_text(json.dumps(document, indent=1))


def check_determinism(seed: int) -> int:
    """Same seed twice gives identical exact counts; another seed gives
    other inputs (hash of the world / update stream).  In-process
    workloads only: the open loop's counts depend on timing."""
    bad = 0
    for name, spec in W.WORKLOADS.items():
        if spec.kind == "tcp":
            continue
        runs = [
            run_workload(name, s, W.SMOKE_SECONDS, trace=False, smoke=True)
            for s in (seed, seed, seed + 1)
        ]
        first, again, other = runs
        same = all(
            first["counts"].get(key) == again["counts"].get(key)
            for key in EXACT_COUNTS
        )
        differs = first["diagnostics"]["digest"] != other["diagnostics"]["digest"]
        print(
            f"{name:16s} same seed identical counts: {same}; "
            f"other seed differs: {differs}"
        )
        bad += (not same) + (not differs)
    return bad


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", type=Path)
    parser.add_argument(
        "--repeat", type=int, default=1, help="report form: this many seeds"
    )
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    # FTL601 (cross-product join) fires on every DIST query of the pool;
    # it is a lint about the workload's queries, not a result.
    warnings.filterwarnings("ignore", category=Warning, module="repro")
    if args.check_determinism:
        return 1 if check_determinism(args.seed) else 0
    seconds = args.seconds
    if seconds is None:
        seconds = W.SMOKE_SECONDS if args.smoke else load_contract()["run_seconds"]
    if args.workload:
        result = run_workload(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
        print_result(result)
        write_out(args.out, [result])
        print(contract_line(result))
        return 0 if result["correct"] else 1
    results = []
    for seed in range(args.seed, args.seed + args.repeat):
        for traced in (False, True) if args.trace else (False,):
            for name in W.WORKLOADS:
                result = run_workload(name, seed, seconds, traced, args.smoke)
                print_result(result)
                results.append(result)
    write_out(args.out, results)
    ok = all(r["correct"] and r["valid"] for r in results)
    print(json.dumps({"correct": ok, "runs": len(results)}))
    return 0 if ok else 1


#: Set in the environment of the process that does the work; the process
#: the user started only supervises it.
INNER = "E2E_BENCH_INNER"
#: Seconds the leftovers of a finished run get to end on their own.
LEFTOVER_GRACE_S = 5.0


def supervise(argv: list[str]) -> int:
    """Run ``main(argv)`` in a child that leads a process group of its
    own, and return its exit code only once that group is empty.

    The runners stop and join what they start, but not everything is
    theirs to join: ``multiprocessing`` starts a resource-tracker process
    with the first shared-memory segment (``cold_sharded``'s snapshots),
    and that one only ends *after* its parent has, on reading end-of-file
    from it.  Orphans of the group are adopted (child subreaper) and
    reaped here; whatever outlives :data:`LEFTOVER_GRACE_S` — or a
    SIGTERM/SIGINT to this process — is killed.
    """
    try:
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):  # not Linux: init reaps the orphans
        pass
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env={**os.environ, INNER: "1"},
        start_new_session=True,
    )

    def kill_group(*_: object) -> None:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGTERM, kill_group)
    signal.signal(signal.SIGINT, kill_group)
    try:
        code = child.wait()
    finally:
        deadline = time.monotonic() + LEFTOVER_GRACE_S
        while True:
            try:
                while os.waitpid(-1, os.WNOHANG) != (0, 0):
                    pass
            except ChildProcessError:
                pass
            try:
                os.killpg(child.pid, 0)  # anyone (a zombie too) still there?
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                kill_group()
            time.sleep(0.005)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    if os.environ.get(INNER):
        raise SystemExit(main())
    raise SystemExit(supervise(sys.argv[1:]))
