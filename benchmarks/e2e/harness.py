"""Measurement helpers shared by the workload runners.

The benchmark host is a small shared machine whose effective speed
swings by tens of percent for seconds at a time.  Every in-process
timed section is therefore cut into equal-work *segments* with a fixed
pure-Python calibration workload (:func:`calibrate`) run before the
first and after each; a wall time measured in a segment is reported as
``wall * CAL_REF_S / min(the two calibrations bracketing it)`` —
seconds on the reference host — and the raw wall plus the calibration
times ride along as diagnostics.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from workloads import CAL_REF_S

#: A run whose calibration loops spread further than this (max - min
#: over median) saw the host change speed under it and is marked invalid.
MAX_CALIBRATION_SPREAD = 0.75

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).resolve().parent / "out"

#: Iterations of one calibration loop; :func:`calibrate` is three loops.
LOOP_ITERATIONS = 120_000
#: ``tcp_openloop``'s server child runs one short loop after every epoch
#: (it cannot afford the full one inside a 50 ms tick).
SHORT_ITERATIONS = 30_000


def calibration_loop(iterations: int = LOOP_ITERATIONS) -> float:
    """Wall seconds of a fixed interpreter-bound workload: attribute-free
    arithmetic, dict stores, tuple allocation — the mix the evaluator's
    hot loops are made of."""
    t0 = time.perf_counter()
    acc = 0
    table: dict[int, tuple[int, float]] = {}
    for i in range(iterations):
        acc += (i * i) % 7
        table[i & 1023] = (acc, i * 0.5)
    return time.perf_counter() - t0


def calibrate() -> float:
    """Three times the fastest of three calibration loops.  Host noise
    only ever makes a loop slower, so the fastest of three reads the
    speed the host sustains and ignores a stall that hits one of them."""
    return 3 * min(calibration_loop() for _ in range(3))


def short_factors(loops: list[float], window: int = 8) -> list[float]:
    """Scale factors from a series of :data:`SHORT_ITERATIONS` loops, one
    per loop: reference time over the median of the loops around it."""
    reference = CAL_REF_S * SHORT_ITERATIONS / (3 * LOOP_ITERATIONS)
    return [
        reference / statistics.median(loops[max(0, i - window) : i + window + 1])
        for i in range(len(loops))
    ]


class Calibrated:
    """Calibration bookkeeping of one run.

    :meth:`mark` runs the calibration loop; the stretch of work between
    two consecutive marks is one *segment*, scaled to reference-host
    seconds by the faster of the two marks that bracket it: now and then
    a stall hits all three loops of one mark (123 ms seen against 52 ms),
    and the mean would have scaled both neighbouring segments by it.
    """

    def __init__(self) -> None:
        #: Calibration wall of every mark, in seconds.
        self.calibrations: list[float] = []

    def mark(self) -> None:
        self.calibrations.append(calibrate())

    def _per_segment(self) -> list[float]:
        cals = self.calibrations
        return [min(a, b) for a, b in zip(cals, cals[1:])]

    def factors(self) -> list[float]:
        """One scale factor per segment (per pair of consecutive marks)."""
        return [CAL_REF_S / c for c in self._per_segment()]

    def spread(self) -> float:
        """(max - min) / median of the calibration times the run's
        segments were scaled by."""
        cals = self._per_segment()
        if len(cals) < 2:
            return 0.0
        return (max(cals) - min(cals)) / statistics.median(cals)


#: Share of a run's operations, the slowest ones, left out of
#: ``throughput_per_s``: host stalls land there, and with them in, the
#: rate of identical runs spreads three times as far.
TRIMMED_SHARE = 0.10


@dataclass
class Segment:
    """One stretch of timed work between two calibration marks:
    ``samples`` are its latency samples in wall seconds; operation ``i``
    kept the system busy for ``busy[i]`` seconds and completed
    ``work[i]`` units (updates applied, queries evaluated).  In the
    closed-loop workloads the latency samples *are* the busy times."""

    samples: list[float]
    work: list[float]
    busy: list[float] | None = None

    def __post_init__(self) -> None:
        if self.busy is None:
            self.busy = self.samples


def summarise(run: dict[str, object]) -> dict[str, object]:
    """Pool the segments a runner's ``run`` returned, every time scaled
    by its own segment's factor.  Throughput is work over busy time of all operations but the
    slowest :data:`TRIMMED_SHARE`; ``full_rate_per_s`` leaves none out."""
    segments, factors = run["segments"], run["factors"]
    samples = [s * f for seg, f in zip(segments, factors) for s in seg.samples]
    ops = sorted(
        (b * f, w)
        for seg, f in zip(segments, factors)
        for b, w in zip(seg.busy, seg.work)
    )
    kept = ops[: len(ops) - int(len(ops) * TRIMMED_SHARE)]
    return {
        "samples": samples,
        "latency_p50_s": statistics.median(samples),
        "throughput_per_s": share(sum(w for _, w in kept), sum(b for b, _ in kept)),
        "full_rate_per_s": share(sum(w for _, w in ops), sum(b for b, _ in ops)),
        "busy_s": sum(b for b, _ in ops),
        "raw_wall_s": sum(sum(seg.busy) for seg in segments),
    }


def percentile(samples: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (nearest rank) of ``samples``; 0 if empty."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q / 100 * len(ordered)) - 1))
    return ordered[rank]


def tail(samples: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten samples beyond
    it, as ``(q, value)``; ``None`` below 40 samples."""
    for q in (99, 95, 90, 75):
        if len(samples) * (100 - q) / 100 >= 10:
            return q, percentile(samples, q)
    return None


def share(part: float, whole: float) -> float:
    """``part / whole`` with an empty whole reading as 0."""
    return part / whole if whole else 0.0


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def fingerprint() -> dict[str, object]:
    """What a result must carry to be comparable later."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "commit": commit or "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": usable_cpus(),
        "start_method": multiprocessing.get_start_method(allow_none=True)
        or multiprocessing.get_all_start_methods()[0],
        "cal_ref_s": CAL_REF_S,
    }


class Ops:
    """Attempted / failed operation counts of one run, with reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` attempted operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------


def _timed_setups(factory, tracer, repeats: int):
    """Build and set up a runner ``repeats`` times, keeping the last;
    returns it with the normalised seconds each set-up took."""
    cal = Calibrated()
    cal.mark()
    walls = []
    runner = None
    for _ in range(repeats):
        if runner is not None:
            runner.teardown()
        # A discarded world is a web of reference cycles (clock listeners,
        # sessions); left to the collector it would be traversed inside
        # somebody's timed section.
        del runner
        gc.collect()
        t0 = time.perf_counter()
        runner = factory(tracer)
        try:
            runner.setup()
        except BaseException:
            runner.teardown()
            raise
        walls.append(time.perf_counter() - t0)
        cal.mark()
    return runner, [w * f for w, f in zip(walls, cal.factors())]


def measure_untraced(factory, repeats: int) -> dict[str, object]:
    """Set up ``repeats`` times, run the timed work on the last set-up,
    verify.  ``factory(tracer)`` builds a runner with ``setup() /
    run(cal) / verify(ops) / teardown()``; ``run`` marks ``cal`` at
    every segment boundary and returns its segments with the factor that
    scales each to reference-host seconds."""
    ops = Ops()
    runner, setups = _timed_setups(factory, None, repeats)
    cal = Calibrated()
    try:
        run = runner.run(cal)
        runner.verify(ops)
    finally:
        runner.teardown()
    return {"run": run, "ops": ops, "setups": setups, "cal": cal, "runner": runner}


def measure_traced(factory, tracer) -> dict[str, object]:
    """The same timed work twice on the same inputs: untraced,
    then with the tracer's wrappers installed from before set-up (some
    callables are captured as handlers when the world is built).  The
    ratio of the two is the tracing overhead."""
    plain = measure_untraced(factory, repeats=1)
    ops = plain["ops"]
    cal = Calibrated()
    tracer.install()
    try:
        tracer.phase = "setup"
        with tracer.span("bench.setup"):
            runner, _ = _timed_setups(factory, tracer, 1)
        try:
            tracer.phase = "run"
            with tracer.span("bench.run"):
                run = runner.run(cal)
            tracer.phase = "verify"
            runner.verify(ops)
        finally:
            runner.teardown()
    finally:
        tracer.uninstall()
    return {
        "run": run,
        "plain": plain["run"],
        "ops": ops,
        "cal": cal,
        "runner": runner,
    }
