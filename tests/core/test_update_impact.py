"""Update-impact pruning at the continuous-query and trigger layers.

Covers the :meth:`ContinuousQuery.affects` contract end to end:

* the unknown-object blind spot — an update carrying a *bound* class
  name but an object id the database never admitted used to dirty the
  query and force a spurious refresh; it is now provably inert;
* kind filtering — attribute-only updates streamed into a position-only
  query cause zero re-evaluations while the answer stays identical to a
  naive (unpruned) twin's, and the same pruning reaches the trigger
  layer;
* the refresh path — ``needs_refresh``, ``skipped_by_deps`` and
  ``subtrees_skipped`` bookkeeping.
"""

import random

import pytest

from repro.core import (
    ContinuousQuery,
    DynamicAttribute,
    MostDatabase,
    ObjectClass,
    TemporalTrigger,
)
from repro.core.database import MostUpdate
from repro.ftl import parse_query
from repro.geometry import Point
from repro.spatial import Polygon

POSITION_QUERY = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 INSIDE(o, P)"
FUEL_QUERY = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 8 o.fuel < 10"


def build_db(n_cars: int = 3) -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass(
            "cars",
            static_attributes=("color",),
            dynamic_attributes=("fuel",),
            spatial_dimensions=2,
        )
    )
    db.create_class(ObjectClass("trucks", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 10, 10))
    for i in range(n_cars):
        db.add_moving_object(
            "cars",
            f"c{i}",
            Point(float(3 * i), 0.0),
            Point(1.0, 0.0),
            static={"color": "red"},
            dynamic_extra={"fuel": DynamicAttribute.linear(50.0, -1.0)},
        )
    return db


def register(db, text, horizon: int = 20, **kw) -> ContinuousQuery:
    return ContinuousQuery(db, parse_query(text), horizon=horizon, **kw)


class TestUnknownObjectBlindSpot:
    def test_bound_class_unknown_id_is_inert(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        before = cq.evaluations
        ghost = MostUpdate(
            time=db.clock.now,
            object_id="ghost",
            attribute="x_position",
            old=None,
            new=1.0,
            class_name="cars",
        )
        assert not cq.affects(ghost)
        db._commit(ghost)
        assert not cq.needs_refresh
        cq.current()
        assert cq.evaluations == before

    def test_unbound_class_is_inert(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        assert not cq.affects(
            MostUpdate(0, "t0", "x_position", None, 1.0, class_name="trucks")
        )

    def test_no_class_unknown_id_stays_conservative(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        # No class metadata and no database row: relevance cannot be
        # decided, so the update must conservatively dirty the query.
        assert cq.affects(
            MostUpdate(0, "ghost", "x_position", None, 1.0)
        )


class TestKindFiltering:
    def test_attribute_update_skipped_by_position_query(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        before = cq.evaluations
        db.clock.tick()
        db.update_dynamic("c0", "fuel", value=5.0)
        assert not cq.needs_refresh
        cq.current()
        assert cq.evaluations == before
        assert cq.skipped_by_deps == 1

    def test_static_update_skipped_by_position_query(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        db.clock.tick()
        db.update_static("c0", "color", "blue")
        assert not cq.needs_refresh
        assert cq.skipped_by_deps == 1

    def test_position_update_skipped_by_fuel_query(self):
        db = build_db()
        cq = register(db, FUEL_QUERY)
        before = cq.evaluations
        db.clock.tick()
        db.update_motion("c0", Point(2.0, 0.0))
        assert not cq.needs_refresh
        cq.current()
        assert cq.evaluations == before
        # One skip per logical update: both position axes travel in one
        # commit, and the router counts the commit once.
        assert cq.skipped_by_deps == 1

    def test_position_update_still_dirties_position_query(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        before = cq.evaluations
        db.clock.tick()
        db.update_motion("c0", Point(0.5, 0.0))
        assert cq.needs_refresh
        cq.current()
        assert cq.evaluations == before + 1

    @pytest.mark.parametrize("method", ["interval", "naive", "incremental"])
    def test_differential_attribute_storm(self, method):
        """Seeded attribute/static-only storm into a position query:
        zero re-evaluations, answers identical to an unpruned twin."""
        db = build_db(n_cars=4)
        pruned = register(db, POSITION_QUERY, horizon=100, method=method)
        naive = register(db, POSITION_QUERY, horizon=100, method=method)
        naive._deps = None  # the unpruned twin accepts every class match
        base_evals = pruned.evaluations
        emitted = []
        unsub = db.on_update(emitted.append)
        rng = random.Random(7)
        for step in range(30):
            car = f"c{rng.randrange(4)}"
            if rng.random() < 0.5:
                db.update_dynamic(car, "fuel", value=rng.uniform(0, 60))
            else:
                db.update_static(car, "color", rng.choice(["red", "blue"]))
            assert pruned.current() == naive.current()
            db.clock.tick()
        unsub()
        assert emitted, "the storm emitted no updates"
        assert pruned.evaluations == base_evals
        assert naive.evaluations > base_evals
        assert pruned.skipped_by_deps == len(emitted)

    def test_trigger_layer_prunes_by_kind(self):
        db = build_db()
        cq = register(db, POSITION_QUERY)
        fired = []
        trigger = TemporalTrigger(db, cq, on_enter=fired.append)
        evals_before = cq.evaluations
        db.clock.tick()
        db.update_dynamic("c0", "fuel", value=1.0)
        # The trigger's update hook consulted affects() and skipped the
        # recheck entirely — no reevaluation behind the query's back.
        assert cq.evaluations == evals_before
        assert cq.skipped_by_deps >= 1
        trigger.cancel()


class TestIncrementalSubtreeSkip:
    QUERY = (
        "RETRIEVE o FROM cars o "
        "WHERE EVENTUALLY WITHIN 8 (INSIDE(o, P) AND o.fuel > 0)"
    )

    def test_mixed_query_skips_clean_subtree(self):
        db = build_db()
        cq = register(db, self.QUERY, method="incremental")
        assert cq.incremental_rejection is None
        db.clock.tick()
        db.update_dynamic("c0", "fuel", value=30.0)
        cq.current()
        # The INSIDE subtree reads positions only; a fuel update leaves
        # it untouched and the evaluator reused its cached relation.
        assert cq.incremental_refreshes == 1
        assert cq.subtrees_skipped >= 1

    def test_skip_matches_full_reevaluation(self):
        db = build_db(n_cars=4)
        incremental = register(db, self.QUERY, horizon=100, method="incremental")
        reference = register(db, self.QUERY, horizon=100, method="interval")
        rng = random.Random(11)
        for _ in range(20):
            car = f"c{rng.randrange(4)}"
            if rng.random() < 0.5:
                db.update_dynamic(car, "fuel", value=rng.uniform(-5, 40))
            else:
                db.update_motion(
                    car,
                    Point(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                    position=Point(rng.uniform(-2, 12), rng.uniform(-2, 12)),
                )
            assert incremental.current() == reference.current()
            db.clock.tick()
        assert incremental.subtrees_skipped >= 1


if __name__ == "__main__":
    import sys

    sys.exit(pytest.main([__file__, "-q"]))
