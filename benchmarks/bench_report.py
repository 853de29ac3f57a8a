"""Collate every committed ``BENCH_*.json`` into one perf-trajectory page.

Each experiment bench writes its own JSON at the repo root; this script
reads them all and emits a single markdown file (default
``BENCH_REPORT.md``) with one headline table per benchmark plus a
cross-benchmark summary — the repo's performance trajectory at a glance.
CI publishes the page as an artifact next to the raw JSON.

Usage::

    python benchmarks/bench_report.py [--out BENCH_REPORT.md]

Unknown benchmark shapes degrade to a key listing rather than failing,
so a new bench's JSON shows up in the report before this script learns
its schema.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).parents[1]


def fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def table(headers: list[str], rows: list[list[object]]) -> list[str]:
    out = ["| " + " | ".join(headers) + " |"]
    out.append("|" + "|".join(" --- " for _ in headers) + "|")
    for row in rows:
        out.append("| " + " | ".join(fmt(c) for c in row) + " |")
    return out


# ---------------------------------------------------------------------------
# Per-benchmark headline extractors.  Each returns (headline, lines).
# ---------------------------------------------------------------------------


def _mode_rows(scenarios, label_of):
    """Rows for the mode-comparison benches (atom_pruning, batch_solver)."""
    rows = []
    for entry in scenarios:
        modes = entry["modes"]
        names = list(modes)
        base = modes[names[0]]["wall_ms"]
        for name in names:
            rows.append(
                [
                    label_of(entry),
                    name,
                    modes[name]["wall_ms"],
                    base / max(modes[name]["wall_ms"], 1e-9),
                    modes[name].get("kinetic_solves", ""),
                ]
            )
    return rows


def report_atom_pruning(data):
    scenarios = [
        dict(entry, scenario=scn)
        for scn, entries in data["scenarios"].items()
        for entry in entries
    ]
    rows = _mode_rows(scenarios, lambda e: f"{e['scenario']} n={e['n']}")
    best = max(row[3] for row in rows)
    return f"best {best:.1f}x vs exhaustive", table(
        ["scenario", "mode", "wall_ms", "speedup", "solves"], rows
    )


def report_batch_solver(data):
    rows = _mode_rows(
        data["scenarios"], lambda e: f"{e['scenario']} n={e['n']}"
    )
    best = max(row[3] for row in rows)
    return f"best {best:.1f}x vs scalar", table(
        ["scenario", "mode", "wall_ms", "speedup", "solves"], rows
    )


def report_plan_order(data):
    rows = [
        [name, s["syntactic_ms"], s["ordered_ms"], s["speedup"], s["rows"]]
        for name, s in data["scenarios"].items()
    ]
    best = max(s["speedup"] for s in data["scenarios"].values())
    return f"best {best:.1f}x from cost-ordered plans", table(
        ["scenario", "syntactic_ms", "ordered_ms", "speedup", "rows"], rows
    )


def report_validity_reuse(data):
    rows = [
        [
            f"n={f['n']}",
            f["plain"]["refresh_ms"],
            f["stamped"]["refresh_ms"],
            f["plain"]["refresh_ms"] / max(f["stamped"]["refresh_ms"], 1e-9),
            f["stamped"]["horizon_skipped"],
        ]
        for f in data["fleets"]
    ]
    best = max(row[3] for row in rows)
    return f"best {best:.1f}x refresh from validity stamps", table(
        ["fleet", "plain_ms", "stamped_ms", "speedup", "horizon_skipped"],
        rows,
    )


def report_cq_server(data):
    rows = [
        [
            f["subscribers"],
            f["updates_per_sec"],
            f["refresh_p50_ms"],
            f["refresh_p99_ms"],
        ]
        for f in data["fanout"]
    ]
    peak = max(f["updates_per_sec"] for f in data["fanout"])
    bp = data.get("backpressure", {})
    lines = table(
        ["subscribers", "updates/s", "refresh_p50_ms", "refresh_p99_ms"],
        rows,
    )
    shared = data.get("shared", [])
    if shared:
        lines.append("")
        lines.append("One shared query (fan-out alone):")
        lines.append("")
        lines.extend(
            table(
                ["subscribers", "updates/s", "tuples_sent", "diffs_computed"],
                [
                    [
                        r["subscribers"],
                        r["updates_per_sec"],
                        r["tuples_sent"],
                        r["diffs_computed"],
                    ]
                    for r in shared
                ],
            )
        )
    host = data.get("host")
    if host:
        lines.append("")
        lines.append(
            f"Host: {host.get('usable_cpus')} usable CPUs, "
            f"Python {host.get('python')}, {host.get('platform')}."
        )
    if bp:
        lines.append("")
        lines.append(
            f"Backpressure: high-water {bp.get('inbox_high_water')}/"
            f"{bp.get('inbox_capacity')}, "
            f"{bp.get('busy_signals')} busy signals, "
            f"{bp.get('updates_applied')} applied."
        )
    return f"peak {peak:.0f} updates/s", lines


def report_sharded_eval(data):
    rows = [
        [
            c["n"],
            c["workers"],
            c["wall_s"],
            c["wall_speedup"],
            c["critical_path_speedup"],
        ]
        for c in data["eval"]
    ]
    best = max(c["critical_path_speedup"] for c in data["eval"])
    lines = table(
        ["n", "workers", "wall_s", "wall_x", "critical_path_x"], rows
    )
    lines.append("")
    lines.append(
        f"Host CPU count: {data.get('host_cpu_count')} — wall speedups "
        "are honest time-sliced numbers; critical_path_x estimates real-"
        "core scaling (DESIGN.md §12)."
    )
    return f"best critical-path {best:.2f}x", lines


EXTRACTORS = {
    "atom_pruning": report_atom_pruning,
    "batch_solver": report_batch_solver,
    "plan_order": report_plan_order,
    "validity_reuse": report_validity_reuse,
    "cq_server": report_cq_server,
    "sharded_eval": report_sharded_eval,
}


def report_generic(data):
    keys = ", ".join(sorted(data)) if isinstance(data, dict) else type(data)
    return "no extractor for this shape", [f"Top-level keys: {keys}"]


def build_report(paths: list[Path]) -> str:
    sections: list[str] = []
    summary_rows: list[list[object]] = []
    for path in sorted(paths):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            summary_rows.append([path.name, "-", f"unreadable: {exc}"])
            continue
        name = data.get("benchmark", path.stem) if isinstance(data, dict) else path.stem
        extractor = EXTRACTORS.get(name, report_generic)
        try:
            headline, lines = extractor(data)
        except (KeyError, TypeError, ValueError) as exc:
            headline, lines = report_generic(data)
            headline = f"extractor failed ({exc})"
        smoke = isinstance(data, dict) and data.get("smoke")
        summary_rows.append(
            [name, "smoke" if smoke else "full", headline]
        )
        sections.append(f"## {name} (`{path.name}`)")
        if smoke:
            sections.append(
                "*Smoke-sized run — numbers are for wiring checks, "
                "not comparisons.*"
            )
        sections.extend(lines)
        sections.append("")
    header = [
        "# Benchmark report",
        "",
        "Collated from the committed `BENCH_*.json` results by "
        "`benchmarks/bench_report.py`.",
        "",
        "## Summary",
    ]
    header.extend(table(["benchmark", "run", "headline"], summary_rows))
    header.append("")
    return "\n".join(header + sections) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out",
        type=Path,
        default=ROOT / "BENCH_REPORT.md",
        help="output markdown path (default: BENCH_REPORT.md at repo root)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=ROOT,
        help="directory scanned for BENCH_*.json (default: repo root)",
    )
    args = parser.parse_args(argv)
    paths = sorted(args.root.glob("BENCH_*.json"))
    if not paths:
        print(f"no BENCH_*.json under {args.root}")
        return 1
    args.out.write_text(build_report(paths))
    print(f"wrote {args.out} ({len(paths)} benchmark files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
