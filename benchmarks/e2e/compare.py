"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload): the medians of A (the base)
and B, the ratio B/A, each side's run-to-run spread (distance between the
quartiles over the median, as ``statistics.quantiles(values, n=4)`` gives
them; max - min over the median below four runs) and a verdict against
the metric's bound in ``BENCHMARK.json``:

* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the bound;
* ``unchanged`` — it is not, and both spreads are within the bound;
* ``unresolved`` — a spread is wider than the bound, so the difference
  cannot be told from noise — unless every run of B reads better (worse)
  than every run of A, which is ``improved`` (``regressed``) regardless.

Runs of the same (workload, seed, seconds) must also agree on the exact
counts; a mismatch is printed and fails the comparison.  Exit status: 0
when nothing regressed and no count differs, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]

#: Counts that are a function of (workload, seed, seconds) alone.
EXACT_COUNTS = (
    "updates_applied",
    "refreshes",
    "deltas_sent",
    "tuples_sent",
    "retract_tuples_sent",
    "evaluations",
    "passes",
    "rows_q0",
    "rows_q1",
    "rows_q2",
    "rows_q3",
)


def spread(values: list[float]) -> float | None:
    """Run-to-run spread as a share of the median (None for one run)."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if not median:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(median)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(median)


def untraced_runs(path: Path) -> list[dict[str, Any]]:
    return [r for r in json.loads(path.read_text())["runs"] if not r["traced"]]


def by_pair(runs: list[dict[str, Any]]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every run."""
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for metric, entry in run["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(entry["value"])
    return out


def verdict(
    a: list[float], b: list[float], better: str, bound: float
) -> tuple[str, float]:
    """The verdict and B's relative worsening (negative = better)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse = sign * (statistics.median(b) - base) / abs(base)
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    noisy = any(s is not None and s > bound for s in (spread(a), spread(b)))
    if noisy and len(a) > 1 and len(b) > 1:
        if all_better:
            return "improved", worse
        if all_worse and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def count_mismatches(
    a_runs: list[dict[str, Any]], b_runs: list[dict[str, Any]]
) -> list[str]:
    """Exact counts that differ between runs of the same inputs."""

    def keyed(runs: list[dict[str, Any]]) -> dict[tuple[Any, ...], dict[str, Any]]:
        return {
            (r["workload"], r["seed"], r["seconds"]): r["counts"]
            for r in runs
            if r["workload"] != "tcp_openloop"  # open loop: timing-dependent
        }

    a_counts, b_counts = keyed(a_runs), keyed(b_runs)
    out = []
    for key in sorted(set(a_counts) & set(b_counts)):
        for name in EXACT_COUNTS:
            if a_counts[key].get(name) != b_counts[key].get(name):
                out.append(
                    f"{key[0]} seed={key[1]}: {name} "
                    f"{a_counts[key].get(name)} != {b_counts[key].get(name)}"
                )
    return out


def fmt_spread(value: float | None) -> str:
    return "   n/a" if value is None else f"{value:6.1%}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="base result file")
    parser.add_argument("b", type=Path, help="result file compared to the base")
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    a_runs, b_runs = untraced_runs(args.a), untraced_runs(args.b)
    a_values, b_values = by_pair(a_runs), by_pair(b_runs)
    print(
        f"{'workload':16s} {'metric':18s} {'A median':>12s} {'B median':>12s} "
        f"{'B/A':>7s} {'spread A':>8s} {'spread B':>8s} {'bound':>6s}  verdict"
    )
    regressed = 0
    for (workload, name), a in sorted(a_values.items()):
        b = b_values.get((workload, name))
        if b is None or name not in metrics:
            continue
        metric = metrics[name]
        word, _ = verdict(a, b, metric["better"], metric["bound"])
        regressed += word == "regressed"
        base = statistics.median(a)
        print(
            f"{workload:16s} {name:18s} {base:12.4f} {statistics.median(b):12.4f} "
            f"{statistics.median(b) / base:7.3f} {fmt_spread(spread(a))} "
            f"  {fmt_spread(spread(b))} {metric['bound']:6.2f}  {word}"
            f"  (n={len(a)},{len(b)}; {metric['unit']}, {metric['better']} is better)"
        )
    mismatches = count_mismatches(a_runs, b_runs)
    for line in mismatches:
        print("COUNT MISMATCH " + line)
    if not mismatches:
        print("exact counts: identical for every (workload, seed) in both files")
    failed = sum(r["failed"] for r in a_runs + b_runs)
    print(f"failed operations across both files: {failed}")
    return 1 if regressed or mismatches or failed else 0


if __name__ == "__main__":
    sys.exit(main())
