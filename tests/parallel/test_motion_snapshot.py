"""Snapshot fidelity: the worker's replica answers exactly like the parent.

The snapshot flattens every plain linear dynamic attribute to float64
arrays plus int-flag bits and travels pickled (DESIGN.md §12).  Because
answer ordering sorts instantiation *strings*, an ``int`` position that
came back as ``2.0`` would silently reorder answers — so type
restoration is tested value by value, and anything the arrays cannot
carry exactly must round trip through the per-row fallback.
"""

import pickle

import pytest

from repro.core import MostDatabase, ObjectClass
from repro.core.history import FutureHistory, epoch_token
from repro.errors import QueryError
from repro.geometry import Point
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    PolynomialFunction,
)
from repro.parallel import MotionSnapshot
from repro.spatial import Polygon

HORIZON = 10


def build_db():
    db = MostDatabase()
    db.create_class(
        ObjectClass(
            "cars", static_attributes=("price",), spatial_dimensions=2
        )
    )
    db.create_class(ObjectClass("vans", spatial_dimensions=2))
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    db.add_moving_object(
        "cars", "c0", Point(1, 2), Point(1, -1), static={"price": 42}
    )
    db.add_moving_object(
        "cars", "c1", Point(0.5, -3.25), Point(0.25, 2), static={"price": 7}
    )
    db.add_moving_object("vans", "v0", Point(-4, 4), Point(2, 0))
    return db


def replica_of(db):
    snap = MotionSnapshot.build(FutureHistory(db))
    remote = pickle.loads(pickle.dumps(snap))
    return remote.build_database()


def all_attrs(db, oid):
    obj = db.get(oid)
    return tuple(obj.object_class.all_dynamic)


def test_replica_values_and_types_match():
    db = build_db()
    rdb, rhist = replica_of(db)
    hist = FutureHistory(db)
    for cls in ("cars", "vans"):
        assert rhist.object_ids(cls) == hist.object_ids(cls)
        for oid in hist.object_ids(cls):
            for attr in all_attrs(db, oid):
                for t4 in range(0, HORIZON * 4 + 1):
                    t = t4 / 4
                    a, b = hist.value(oid, attr, t), rhist.value(oid, attr, t)
                    assert a == b, (oid, attr, t)
                    assert type(a) is type(b), (oid, attr, t, a, b)


def test_replica_restores_int_typed_triples():
    db = build_db()
    rdb, rhist = replica_of(db)
    triple = rhist.dynamic_triple("c0", "x_position")
    original = FutureHistory(db).dynamic_triple("c0", "x_position")
    assert triple.value == original.value
    assert type(triple.value) is type(original.value)
    assert type(triple.updatetime) is type(original.updatetime)
    fn, rfn = original.function, triple.function
    assert isinstance(rfn, LinearFunction)
    assert rfn.slope == fn.slope
    assert type(rfn.slope) is type(fn.slope)


def test_replica_restores_statics_and_regions():
    db = build_db()
    rdb, rhist = replica_of(db)
    assert rhist.value("c0", "price", 0.0) == 42
    assert rhist.value("c1", "price", 0.0) == 7
    assert set(rdb.region_names()) == set(db.region_names())


def test_replica_restores_piecewise_functions():
    db = build_db()
    db.update_dynamic(
        "c0",
        "x_position",
        function=PiecewiseLinearFunction([(0, 1), (3, -2), (6, 0.5)]),
    )
    hist = FutureHistory(db)
    rdb, rhist = replica_of(db)
    rfn = rhist.dynamic_triple("c0", "x_position").function
    assert isinstance(rfn, PiecewiseLinearFunction)
    for t4 in range(0, HORIZON * 4 + 1):
        t = t4 / 4
        assert rhist.value("c0", "x_position", t) == hist.value(
            "c0", "x_position", t
        )


def test_replica_falls_back_to_pickle_for_nonlinear():
    db = build_db()
    db.update_dynamic(
        "c0", "x_position", function=PolynomialFunction([1.0, 0.5])
    )
    hist = FutureHistory(db)
    rdb, rhist = replica_of(db)
    rfn = rhist.dynamic_triple("c0", "x_position").function
    assert isinstance(rfn, PolynomialFunction)
    for t4 in range(0, HORIZON * 4 + 1):
        t = t4 / 4
        assert rhist.value("c0", "x_position", t) == hist.value(
            "c0", "x_position", t
        )


def test_payload_round_trip_preserves_meta():
    db = build_db()
    db.update_dynamic(
        "c0",
        "x_position",
        function=PiecewiseLinearFunction([(0, 1), (3, -2), (6, 0.5)]),
    )
    db.update_dynamic(
        "c1", "y_position", function=PolynomialFunction([1.0, 0.5])
    )
    snap = MotionSnapshot.build(FutureHistory(db))
    remote = pickle.loads(pickle.dumps(snap))
    assert remote.meta == snap.meta
    assert remote.arrays.keys() == snap.arrays.keys()
    for name, arr in snap.arrays.items():
        assert remote.arrays[name].dtype == arr.dtype
        assert (remote.arrays[name] == arr).all()
    fallback = snap.meta["fallback"]
    remote_fallback = remote.meta["fallback"]
    assert {type(t.function) for t in fallback.values()} == {
        PiecewiseLinearFunction,
        PolynomialFunction,
    }
    for row, triple in fallback.items():
        assert type(remote_fallback[row].function) is type(triple.function)


# ---------------------------------------------------------------------------
# Epoch tokens: a stale history keeps its pinned token and ships nothing;
# a fresh one gets a new token
# ---------------------------------------------------------------------------


def test_epoch_token_distinguishes_stale_snapshot():
    db = build_db()
    frozen = FutureHistory(db)
    before = epoch_token(frozen)
    db.update_motion("c0", Point(2, 2))
    fresh = FutureHistory(db)
    assert epoch_token(frozen) == before, "a history keeps its pinned token"
    assert epoch_token(fresh) != before
    assert epoch_token(fresh)[1] == before[1] + 1
    with pytest.raises(QueryError, match="version 0 .*version 1"):
        MotionSnapshot.build(frozen)
    MotionSnapshot.build(fresh)


def test_epoch_token_tracks_population_changes():
    db = build_db()
    before = epoch_token(FutureHistory(db))
    db.add_moving_object("vans", "v9", Point(0, 0), Point(1, 1))
    assert epoch_token(FutureHistory(db)) != before


def test_epoch_token_differs_across_databases():
    assert epoch_token(FutureHistory(build_db())) != epoch_token(
        FutureHistory(build_db())
    )
