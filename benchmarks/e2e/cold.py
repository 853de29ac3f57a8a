"""``cold_eval`` / ``cold_sharded``: one-shot FTL evaluation, no server.

One *pass* is what a user issuing instantaneous queries pays: query text
to answer rows for each of the workload's queries — parse, plan, index
pruning, kinetic solving, joins — on a database nothing has been
evaluated on yet.  Every pass therefore gets a freshly built database
(built outside the timed region): the ~1.4k kinetic solves of a pass
would fit the 8192-entry solve cache many times over, so re-using one
database would turn every pass after the first into pure cache hits.
For ``cold_sharded`` a fresh database also means a fresh motion snapshot
shipped to the (already started) workers, as for any first query after
an update.
"""

from __future__ import annotations

import time
from typing import Any

import repro.ftl as ftl
import repro.parallel.pool as pool
from repro.core import FutureHistory

import workloads as W
from harness import Calibrated, Ops, Segment
from tracing import Tracer

#: Fleet size of the sub-world the naive evaluator (per-state reference
#: semantics) is affordable on.
NAIVE_CARS = 64


def _rows(relation: Any) -> dict[Any, Any]:
    return dict(relation.rows())


class ColdRunner:
    """Set-up, timed passes and oracle of the two cold workloads."""

    def __init__(
        self, spec: W.Workload, seed: int, passes: int, tracer: Tracer | None
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.passes = passes
        self.tracer = tracer
        self.world = W.make_world(spec, seed)
        self.digest = W.world_digest(self.world)
        #: The answers of the warm-up pass, and whether every timed pass
        #: reproduced them.
        self.answers: list[dict[Any, Any]] = []
        self.stable = True

    def _pass(self) -> tuple[list[dict[Any, Any]], float]:
        """Evaluate every query on a fresh database; the answers and the
        seconds the evaluations took (the database build is untimed)."""
        db = W.build_database(self.world)
        t0 = time.perf_counter()
        answers = [
            _rows(
                ftl.parse_query(text).evaluate(
                    FutureHistory(db), self.spec.horizon, parallel=self.spec.parallel
                )
            )
            for text in self.spec.queries
        ]
        return answers, time.perf_counter() - t0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        """World build, worker-pool start, one warm-up pass."""
        if self.spec.parallel:
            pool.get_pool(self.spec.parallel)
        self.answers, _ = self._pass()

    def run(self, cal: Calibrated) -> dict[str, Any]:
        segments = []
        cal.mark()
        for index in range(self.passes):
            if self.tracer is not None:
                self.tracer.op = index
            answers, wall = self._pass()
            cal.mark()
            segments.append(Segment([wall], work=[len(self.spec.queries)]))
            self.stable = self.stable and answers == self.answers
        return {
            "segments": segments,
            "factors": cal.factors(),
            "counts": {
                "passes": self.passes,
                **{
                    f"rows_q{i}": len(rows)
                    for i, rows in enumerate(self.answers)
                },
            },
        }

    def verify(self, ops: Ops) -> None:
        """Passes repeat their answers; sharded rows equal serial rows;
        serial rows equal the naive evaluator's on a small sub-world."""
        ops.check(self.stable, "a pass changed its answer")
        spec = self.spec
        if spec.parallel:
            db = W.build_database(self.world)
            for text, got in zip(spec.queries, self.answers):
                want = _rows(
                    ftl.parse_query(text).evaluate(FutureHistory(db), spec.horizon)
                )
                ops.check(got == want, f"sharded != serial: {text}")
            return
        small = W.make_world(spec, self.seed, n_cars=NAIVE_CARS)
        db = W.build_database(small)
        for text in spec.queries:
            query = ftl.parse_query(text)
            fast = _rows(query.evaluate(FutureHistory(db), spec.horizon))
            slow = _rows(
                query.evaluate(FutureHistory(db), spec.horizon, method="naive")
            )
            ops.check(fast == slow, f"interval != naive: {text}")

    def teardown(self) -> None:
        pool.shutdown_pools()
