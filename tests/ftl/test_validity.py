"""Unit tests for the temporal-validity analysis (pass 8).

Covers the symbolic horizon lattice and its propagation rules, the
runtime concretization primitives (``class_motion_events`` and
``update_divergence``), and the horizon edge cases the design calls out:
zero-length windows, ``Nexttime`` at the horizon boundary, motion-leg
boundaries landing exactly on ``t_expire``, and clock-regression
rejection.
"""

import math
from dataclasses import replace

import pytest

from repro.core import ContinuousQuery, DynamicAttribute, MostDatabase, ObjectClass
from repro.core.database import MostUpdate
from repro.ftl import (
    AndF,
    Attr,
    Compare,
    Const,
    Eventually,
    EventuallyWithin,
    FtlQuery,
    Inside,
    Nexttime,
    NotF,
    Until,
    Var,
    parse_query,
)
from repro.ftl.analysis.validity import (
    Constraint,
    Horizon,
    analyze_formula_validity,
    analyze_query_validity,
    class_motion_events,
    update_divergence,
)
from repro.ftl.context import DEFAULT
from repro.geometry import Point
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    PolynomialFunction,
)
from repro.spatial import Polygon

INF = math.inf
#: The unstamped twin: no validity analysis, so no gate and no stamps.
UNSTAMPED = replace(DEFAULT, validity_horizons=False)


def build_db() -> MostDatabase:
    db = MostDatabase()
    db.create_class(
        ObjectClass(
            "cars",
            static_attributes=("price",),
            dynamic_attributes=("fuel",),
            spatial_dimensions=2,
        )
    )
    db.define_region("P", Polygon.rectangle(0, 0, 9, 9))
    db.add_moving_object(
        "cars",
        "c0",
        Point(1.0, 1.0),
        Point(1.0, 0.0),
        static={"price": 40.0},
        dynamic_extra={"fuel": DynamicAttribute.linear(30.0, -1.0)},
    )
    return db


BINDINGS = {"o": "cars"}


# ---------------------------------------------------------------------------
# The symbolic lattice
# ---------------------------------------------------------------------------


class TestHorizonLattice:
    def test_union_is_bottom_absorbing(self):
        bot = Horizon(bottom=True, reason="because")
        sliding = Horizon(
            constraints=frozenset({Constraint(False, 0.0, frozenset({"cars"}))})
        )
        assert Horizon.union([sliding, bot]).bottom
        assert Horizon.union([bot, sliding]).bottom

    def test_union_of_constants_is_constant(self):
        assert Horizon.union([Horizon(), Horizon()]).kind == "constant"

    def test_union_merges_constraints(self):
        a = Horizon(
            constraints=frozenset({Constraint(False, 0.0, frozenset({"cars"}))})
        )
        b = Horizon(
            constraints=frozenset({Constraint(True, 0.0, frozenset({"vans"}))})
        )
        merged = Horizon.union([a, b])
        assert merged.kind == "sliding"  # any sliding constraint dominates
        assert merged.classes() == ["cars", "vans"]

    def test_shift_leaves_guarded_and_constant_alone(self):
        guarded = Horizon(
            constraints=frozenset({Constraint(True, 0.0, frozenset({"cars"}))})
        )
        assert guarded.shifted(3.0) == guarded
        assert Horizon().shifted(3.0) == Horizon()

    def test_shift_accumulates_on_sliding(self):
        sliding = Horizon(
            constraints=frozenset({Constraint(False, 1.0, frozenset({"cars"}))})
        )
        (c,) = sliding.shifted(2.0).constraints
        assert c.offset == 3.0 and not c.guarded

    def test_guardify_is_idempotent(self):
        sliding = Horizon(
            constraints=frozenset({Constraint(False, 4.0, frozenset({"cars"}))})
        )
        g = sliding.guardified()
        assert g.kind == "guarded"
        assert g.guardified() == g


# ---------------------------------------------------------------------------
# Propagation rules
# ---------------------------------------------------------------------------


class TestPropagation:
    def _root(self, formula):
        return analyze_formula_validity(formula, bindings=BINDINGS).root_horizon

    def test_kinetic_atom_is_sliding_zero(self):
        h = self._root(Inside(Var("o"), "P"))
        (c,) = h.constraints
        assert not c.guarded and c.offset == 0.0 and c.classes == {"cars"}

    def test_static_only_atom_is_constant_with_schema(self):
        f = Compare("<=", Attr(Var("o"), "price"), Const(60))
        with_schema = analyze_formula_validity(
            f, bindings=BINDINGS, schema=build_db()
        ).root_horizon
        assert with_schema.kind == "constant"
        # Schema-less analysis cannot prove `price` static, so it
        # conservatively treats the read as kinetic.
        assert self._root(f).kind == "sliding"

    def test_nexttime_shifts_by_one(self):
        h = self._root(Nexttime(Inside(Var("o"), "P")))
        (c,) = h.constraints
        assert c.offset == 1.0

    def test_eventually_within_shifts_by_bound(self):
        h = self._root(EventuallyWithin(5, Inside(Var("o"), "P")))
        (c,) = h.constraints
        assert c.offset == 5.0 and not c.guarded

    def test_unbounded_eventually_guardifies(self):
        h = self._root(Eventually(Inside(Var("o"), "P")))
        assert h.kind == "guarded"

    def test_until_guardifies_both_sides(self):
        h = self._root(
            Until(Inside(Var("o"), "P"), NotF(Inside(Var("o"), "P")))
        )
        assert h.kind == "guarded"
        assert h.classes() == ["cars"]

    def test_boolean_connectives_union(self):
        h = self._root(
            AndF(
                Inside(Var("o"), "P"),
                EventuallyWithin(3, Inside(Var("o"), "P")),
            )
        )
        offsets = sorted(c.offset for c in h.constraints)
        assert offsets == [0.0, 3.0]

    def test_bottom_nodes_surface_ftl803(self):
        class Weird:  # not a Formula the walker knows
            span = None

            def free_vars(self):
                return set()

        analysis = analyze_formula_validity(
            Inside(Var("o"), "P"), bindings=BINDINGS
        )
        assert not analysis.root_horizon.bottom
        codes = {d.code for d in analysis.diagnostics}
        assert "FTL801" in codes

    def test_query_level_analysis_matches_formula_level(self):
        query = parse_query(
            "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 3 INSIDE(o, P)"
        )
        via_query = analyze_query_validity(query)
        via_formula = analyze_formula_validity(
            query.where, bindings=query.bindings
        )
        assert via_query.root_horizon == via_formula.root_horizon


# ---------------------------------------------------------------------------
# Concretization
# ---------------------------------------------------------------------------


class TestConcretize:
    sliding = Horizon(
        constraints=frozenset({Constraint(False, 2.0, frozenset({"cars"}))})
    )
    guarded = Horizon(
        constraints=frozenset({Constraint(True, 0.0, frozenset({"cars"}))})
    )

    def test_sliding_subtracts_offset(self):
        assert self.sliding.concretize({"cars": 10.0}, 0.0, 20.0) == 8.0

    def test_sliding_clamps_to_t_eval(self):
        assert self.sliding.concretize({"cars": 1.0}, 0.0, 20.0) == 0.0

    def test_guarded_is_all_or_nothing(self):
        assert self.guarded.concretize({"cars": 25.0}, 0.0, 20.0) == INF
        assert self.guarded.concretize({"cars": 5.0}, 0.0, 20.0) == 0.0

    def test_event_exactly_at_window_end_keeps_guard(self):
        # A leg boundary exactly at t_expire: the guarded horizon stays
        # INF (piecewise-linear trajectories are continuous at the
        # boundary) and the sliding horizon lands exactly on end.
        assert self.guarded.concretize({"cars": 20.0}, 0.0, 20.0) == INF
        zero_off = Horizon(
            constraints=frozenset({Constraint(False, 0.0, frozenset({"cars"}))})
        )
        assert zero_off.concretize({"cars": 20.0}, 0.0, 20.0) == 20.0

    def test_missing_or_nonlinear_event_bottoms_out(self):
        assert self.sliding.concretize({}, 3.0, 20.0) == 3.0
        assert self.sliding.concretize({"cars": None}, 3.0, 20.0) == 3.0

    def test_bottom_concretizes_to_t_eval(self):
        bot = Horizon(bottom=True, reason="x")
        assert bot.concretize({"cars": INF}, 7.0, 20.0) == 7.0

    def test_zero_length_window(self):
        # t_eval == end: everything still clamps to t_eval, never below.
        assert self.sliding.concretize({"cars": INF}, 5.0, 5.0) == INF
        assert self.guarded.concretize({"cars": 5.5}, 5.0, 5.0) == INF


# ---------------------------------------------------------------------------
# class_motion_events
# ---------------------------------------------------------------------------


class TestClassMotionEvents:
    def test_linear_fleet_has_no_events(self):
        db = build_db()
        events = class_motion_events(db, ["cars"], 0.0, 50.0)
        assert events == {"cars": INF}

    def test_piecewise_leg_boundary_is_an_event(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (6.0, -1.0)]),
        )
        events = class_motion_events(db, ["cars"], 0.0, 50.0)
        assert events["cars"] == 6.0  # updatetime 0 + leg start 6

    def test_nonlinear_function_yields_none(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PolynomialFunction((1.0, 0.5)),
        )
        assert class_motion_events(db, ["cars"], 0.0, 50.0) == {"cars": None}

    def test_unknown_class_yields_none(self):
        db = build_db()
        assert class_motion_events(db, ["ghosts"], 0.0, 50.0) == {
            "ghosts": None
        }

    def test_events_at_or_before_t_eval_are_ignored(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (3.0, 2.0)]),
        )
        # The t=3 leg boundary is in the past of t_eval=4.
        assert class_motion_events(db, ["cars"], 4.0, 50.0) == {"cars": INF}


# ---------------------------------------------------------------------------
# update_divergence
# ---------------------------------------------------------------------------


def _dyn(value, updatetime, function):
    return DynamicAttribute(
        value=value, updatetime=updatetime, function=function
    )


def _update(old, new, time=5, kind="dynamic"):
    return MostUpdate(
        time=time,
        object_id="c0",
        attribute="x_position",
        old=old,
        new=new,
        class_name="cars",
        kind=kind,
    )


class TestUpdateDivergence:
    def test_static_equal_never_diverges(self):
        u = _update(40.0, 40.0, kind="static")
        assert update_divergence(u, 30.0) == INF

    def test_static_changed_diverges_at_update_time(self):
        u = _update(40.0, 50.0, kind="static")
        assert update_divergence(u, 30.0) == 5.0

    def test_heartbeat_reanchor_never_diverges(self):
        old = _dyn(0.0, 0.0, LinearFunction(1.0))
        new = _dyn(5.0, 5.0, LinearFunction(1.0))  # value_at(5) == 5.0
        assert update_divergence(_update(old, new), 30.0) == INF

    def test_velocity_change_diverges_inside_window(self):
        old = _dyn(0.0, 0.0, LinearFunction(1.0))
        new = _dyn(5.0, 5.0, LinearFunction(2.0))
        div = update_divergence(_update(old, new), 30.0)
        assert div < 30.0

    def test_position_jump_diverges_immediately(self):
        old = _dyn(0.0, 0.0, LinearFunction(1.0))
        new = _dyn(7.0, 5.0, LinearFunction(1.0))  # implied value was 5.0
        assert update_divergence(_update(old, new), 30.0) == 5.0

    def test_clock_regression_is_rejected(self):
        old = _dyn(0.0, 10.0, LinearFunction(1.0))
        new = _dyn(0.0, 4.0, LinearFunction(1.0))  # goes backwards
        assert update_divergence(_update(old, new), 30.0) == 5.0

    def test_nonlinear_new_function_diverges_immediately(self):
        old = _dyn(0.0, 0.0, LinearFunction(1.0))
        new = _dyn(5.0, 5.0, PolynomialFunction((1.0, 0.1)))
        assert update_divergence(_update(old, new), 30.0) == 5.0

    def test_zero_length_remaining_window_never_diverges(self):
        # end <= update time: the new state is never observed before the
        # query expires, so the update provably cannot change Answer(CQ).
        old = _dyn(0.0, 0.0, LinearFunction(1.0))
        new = _dyn(99.0, 5.0, LinearFunction(-3.0))
        assert update_divergence(_update(old, new), 5.0) == INF
        assert update_divergence(_update(old, new), 4.0) == INF

    def test_piecewise_divergence_localised_to_changed_leg(self):
        old = _dyn(0.0, 0.0, PiecewiseLinearFunction([(0.0, 1.0), (10.0, 1.0)]))
        new = _dyn(5.0, 5.0, PiecewiseLinearFunction([(0.0, 1.0), (5.0, 2.0)]))
        # Identical until new's second leg starts at absolute t=10.
        div = update_divergence(_update(old, new), 30.0)
        assert 5.0 <= div <= 10.0

    def test_malformed_update_diverges_immediately(self):
        u = _update(None, None)
        assert update_divergence(u, 30.0) == 5.0


# ---------------------------------------------------------------------------
# Horizon edge cases end to end (continuous queries)
# ---------------------------------------------------------------------------


def _heartbeat(db: MostDatabase, oid: str) -> None:
    """Re-anchor every position axis on its existing motion law."""
    obj = db.get(oid)
    now = db.clock.now
    x = obj.dynamic_attribute("x_position")
    y = obj.dynamic_attribute("y_position")
    db.update_motion(
        oid,
        Point(x.function.value(1.0), y.function.value(1.0)),
        position=Point(x.value_at(now), y.value_at(now)),
    )


class TestHorizonEdgeCases:
    def test_heartbeat_is_skipped_and_answer_identical(self):
        db, db2 = build_db(), build_db()
        q = "RETRIEVE o FROM cars o WHERE EVENTUALLY WITHIN 3 INSIDE(o, P)"
        a = ContinuousQuery(db, parse_query(q), horizon=20)
        b = ContinuousQuery(
            db2, parse_query(q), horizon=20, options=UNSTAMPED
        )
        db.clock.tick()
        db2.clock.tick()
        _heartbeat(db, "c0")
        _heartbeat(db2, "c0")
        assert a.current() == b.current()
        assert a.horizon_skipped > 0
        assert b.horizon_skipped == 0
        assert a.evaluations < b.evaluations

    def test_leg_boundary_beyond_expiry_keeps_query_eligible(self):
        db = build_db()
        # Leg flips at t=50, far beyond the query's expires_at=10.
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (50.0, -1.0)]),
        )
        q = "RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"
        cq = ContinuousQuery(db, parse_query(q), horizon=10)
        db.clock.tick()
        _heartbeat(db, "c0")
        assert cq.horizon_skipped > 0

    def test_leg_boundary_exactly_at_expiry_keeps_query_eligible(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (10.0, -1.0)]),
        )
        q = "RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"
        # expires_at == 10 == the absolute leg boundary: continuity at
        # the breakpoint means the guarded horizon still covers the
        # whole (inclusive) window.
        cq = ContinuousQuery(db, parse_query(q), horizon=10)
        db.clock.tick()
        _heartbeat(db, "c0")
        assert cq.horizon_skipped > 0

    def test_leg_boundary_inside_window_disables_the_gate(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (4.0, -1.0)]),
        )
        q = "RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"
        cq = ContinuousQuery(db, parse_query(q), horizon=10)
        assert not cq._horizon_eligible
        db.clock.tick()
        _heartbeat(db, "c0")
        # Conservative: the near event makes the whole-query gate stand
        # down, so even a pure heartbeat forces the usual dirty path.
        assert cq.horizon_skipped == 0
        assert cq.needs_refresh

    def test_nexttime_at_horizon_boundary(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (10.0, -1.0)]),
        )
        # NEXT shifts the read window one tick forward: an event exactly
        # at expires_at=10 is *inside* Nexttime's shifted window, so the
        # sliding horizon ends at event - 1 = 9 < 10: not eligible.
        query = FtlQuery(
            targets=("o",),
            bindings=BINDINGS,
            where=Nexttime(Inside(Var("o"), "P")),
        )
        cq = ContinuousQuery(db, query, horizon=10)
        assert not cq._horizon_eligible
        # With the boundary moved past expires_at + 1, NEXT is covered.
        db2 = build_db()
        db2.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (11.0, -1.0)]),
        )
        query2 = FtlQuery(
            targets=("o",),
            bindings=BINDINGS,
            where=Nexttime(Inside(Var("o"), "P")),
        )
        cq2 = ContinuousQuery(db2, query2, horizon=10)
        assert cq2._horizon_eligible

    def test_zero_horizon_query(self):
        db = build_db()
        q = "RETRIEVE o FROM cars o WHERE INSIDE(o, P)"
        cq = ContinuousQuery(db, parse_query(q), horizon=0)
        assert cq.current() == {("c0",)}
        assert cq.valid_until >= float(db.clock.now)

    def test_valid_until_reflects_sliding_horizon(self):
        db = build_db()
        db.update_dynamic(
            "c0",
            "x_position",
            value=1.0,
            function=PiecewiseLinearFunction([(0.0, 1.0), (6.0, -1.0)]),
        )
        q = "RETRIEVE o FROM cars o WHERE INSIDE(o, P)"
        cq = ContinuousQuery(db, parse_query(q), horizon=20)
        # Atom horizon: earliest event (6.0) minus offset 0, clamped to
        # the expiration window.
        assert cq.valid_until == 6.0

    def test_window_shifted_cache_reuse(self):
        from repro.ftl.atoms import KineticSolveCache
        from repro.temporal import IntervalSet

        cache = KineticSolveCache()
        value = IntervalSet.span(0, 20)
        key = ("atom", "triple")
        cache.put(key, (0, 20), 15.0, value)
        # Contained later window, before the stamp expiry: clipped hit.
        assert cache.get(key, (2, 10)) == value.clip(2, 10)
        assert cache.hits == 1
        # Start at/beyond expiry, or window not contained: refused.
        assert cache.get(key, (15, 18)) is None
        assert cache.get(key, (-1, 10)) is None
        # Different motion triple: different key, no reuse.
        assert cache.get(("atom", "other"), (2, 10)) is None
        assert cache.hits == 1

    def test_unstamped_entries_never_shift(self):
        """No unstamped entry exists to shift: an evaluation without
        validity stamps writes nothing, so a stamped one after it
        solves."""
        from repro.core.history import FutureHistory
        from repro.ftl.context import EvalContext
        from repro.ftl.evaluator import IntervalEvaluator

        db = build_db()
        where = Eventually(Inside(Var("o"), "P"))
        ctx = EvalContext(FutureHistory(db), 20, BINDINGS)
        cold = IntervalEvaluator(ctx)
        cold.evaluate(where)
        assert cold.kinetic_solves == 1
        assert len(db.kinetic_cache) == 0
        db.clock.tick()
        ctx = EvalContext(FutureHistory(db), 19, BINDINGS)
        stamped = IntervalEvaluator(ctx, validity={id(where.operand): 20.0})
        stamped.evaluate(where)
        assert (stamped.kinetic_solves, stamped.cache_hits) == (1, 0)
        assert len(db.kinetic_cache) == 1

    def test_ticked_refresh_reuses_solves_by_window_shift(self):
        """After a tick, the stamped query re-solves nothing for atoms
        whose validity outlives the new window; the unstamped twin pays
        the full solve again."""
        db, db2 = build_db(), build_db()
        q = "RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"
        stamped = ContinuousQuery(db, parse_query(q), horizon=20)
        twin = ContinuousQuery(
            db2, parse_query(q), horizon=20, options=UNSTAMPED
        )
        db.clock.tick()
        db2.clock.tick()
        # Force a refresh with no motion change: the window slid by one.
        stamped._dirty = True
        twin._dirty = True
        stamped.refresh()
        twin.refresh()
        assert stamped.current() == twin.current()
        assert db.kinetic_cache.hits > 0
        assert len(db2.kinetic_cache) == 0

    def test_clock_regression_update_is_never_skipped(self):
        db = build_db()
        q = "RETRIEVE o FROM cars o WHERE EVENTUALLY INSIDE(o, P)"
        cq = ContinuousQuery(db, parse_query(q), horizon=20)
        assert cq._horizon_eligible
        db.clock.tick(3)
        law = db.get("c0").dynamic_attribute("x_position").function
        # One trajectory, x = 1 + t, anchored at t = 3 and then re-sent
        # anchored at t = 1: the motion is identical, only the anchor
        # went backwards.
        old = DynamicAttribute(value=4.0, updatetime=3.0, function=law)
        regressed = DynamicAttribute(value=2.0, updatetime=1.0, function=law)
        assert old.value_at(20.0) == regressed.value_at(20.0)
        db._commit(
            MostUpdate(
                time=db.clock.now,
                object_id="c0",
                attribute="x_position",
                old=old,
                new=regressed,
                class_name="cars",
            )
        )
        assert cq.horizon_skipped == 0
        assert cq.needs_refresh
