"""One divergence test shared by every window end: the probe ≡ the
single-end test it replaced.

A commit is tested against each continuous query's own expiration
horizon.  :class:`~repro.ftl.analysis.validity.DivergenceProbe` is built
once per update at the latest of them and answers every earlier end.
Computing once at the latest end and clamping would be wrong: a
re-anchored law can compare equal at one end and unequal at another by
rounding alone.  The wall below holds the probe, at every end up to the
one it was built at, against :func:`reference_divergence` — the
single-end ``update_divergence`` body as it stood before the probe,
kept here as a test-local copy — over dyadic and non-dyadic floats,
signed zeros, infinite and NaN attribute values, linear / piecewise /
shifted / polynomial / sinusoid motion, static updates, clock
regression and windows that end before the update.  The same wall holds
:meth:`~repro.ftl.analysis.validity.DivergenceProbe.table` — the
router's one verdict per record for every live end, read off the laws'
coefficients for plain linear motion — against the reference at every
end.  The linear verdict itself is one function,
:func:`~repro.ftl.analysis.validity.linear_divergence`, which the probe
and the update router both call; its own wall holds it against the
reference at every end over float and int coefficients, signed zeros,
non-finite and incomparable values, clock regression and the rounding
re-anchors where one end's verdict differs from another's.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.database import MostUpdate
from repro.core.dynamic import DynamicAttribute
from repro.ftl.analysis import DivergenceProbe, update_divergence
from repro.ftl.analysis.validity import linear_divergence
from repro.motion.functions import (
    LinearFunction,
    PiecewiseLinearFunction,
    PolynomialFunction,
    ShiftedFunction,
    SinusoidFunction,
)

INF = float("inf")


def reference_divergence(update, end):
    """The single-end divergence test, verbatim from before the probe."""
    t_u = float(update.time)
    old = getattr(update, "old", None)
    new = getattr(update, "new", None)
    if getattr(update, "kind", "dynamic") == "static":
        try:
            return INF if bool(old == new) else t_u
        except Exception:
            return t_u
    try:
        old_ut = float(old.updatetime)
        new_ut = float(new.updatetime)
        old_fn = old.function
        new_fn = new.function
    except (AttributeError, TypeError):
        return t_u
    if new_ut < old_ut:
        return t_u
    old_bps = old_fn.linear_breakpoints(max(end - old_ut, 0.0))
    new_bps = new_fn.linear_breakpoints(max(end - new_ut, 0.0))
    if old_bps is None or new_bps is None:
        return t_u
    t0 = max(t_u, new_ut)
    if end <= t0:
        return INF
    cuts = {t0, end}
    for anchor, bps in ((old_ut, old_bps), (new_ut, new_bps)):
        for rel_t, _slope in bps:
            t_abs = anchor + rel_t
            if t0 < t_abs < end:
                cuts.add(t_abs)
    ordered = sorted(cuts)
    for i, cut in enumerate(ordered):
        try:
            same = bool(old.value_at(cut) == new.value_at(cut))
        except Exception:
            return t_u
        if not same:
            return ordered[i - 1] if i > 0 else ordered[0]
    return INF


# Dyadic floats compare exactly after re-anchoring; tenths, thirds and
# sevenths do not, which is where a clamped shortcut would go wrong.
dyadic = st.integers(-64, 64).map(lambda k: k / 8)
non_dyadic = st.integers(-300, 300).map(lambda k: k / 10) | st.integers(
    -90, 90
).map(lambda k: k / 3) | st.floats(-50, 50, allow_nan=False).map(
    lambda x: x / 7
)
reals = dyadic | non_dyadic
# Attribute values may be anything a float can be; slopes stay finite,
# since ``f(0) == 0`` refuses an infinite one.
values = reals | st.sampled_from([-0.0, INF, -INF, math.nan])
times = st.integers(0, 12).map(float) | st.integers(0, 120).map(lambda k: k / 10)


def piecewise(draw_starts, slopes):
    starts = sorted(set(draw_starts))
    return PiecewiseLinearFunction(
        [(0.0, slopes[0])] + [(s, k) for s, k in zip(starts, slopes[1:])]
    )


linear = st.builds(LinearFunction, reals)
piecewise_fns = st.builds(
    piecewise,
    st.lists(times.filter(lambda t: t > 0), min_size=1, max_size=3),
    st.lists(reals, min_size=4, max_size=4),
)
functions = st.one_of(
    linear,
    piecewise_fns,
    st.builds(ShiftedFunction, linear | piecewise_fns, times),
    st.builds(PolynomialFunction, st.lists(reals, min_size=1, max_size=3)),
    st.builds(SinusoidFunction, reals, reals),
)


@st.composite
def dynamic_updates(draw):
    """An explicit dynamic update: ``new`` derived from ``old`` through
    ``DynamicAttribute.updated`` (heartbeats, velocity and position
    changes), or an arbitrary new triple (clock regression included)."""
    old = DynamicAttribute(draw(values), draw(times), draw(functions))
    t_u = draw(times)
    shape = draw(st.sampled_from(["heartbeat", "velocity", "jump", "free"]))
    if shape != "free" and t_u >= old.updatetime:
        new = old.updated(
            t_u,
            value=draw(values) if shape == "jump" else None,
            function=draw(functions) if shape == "velocity" else None,
        )
    else:
        new = DynamicAttribute(draw(values), draw(times), draw(functions))
    return MostUpdate(t_u, "c0", "x_position", old, new, class_name="cars")


static_updates = st.builds(
    lambda t, old, new: MostUpdate(
        t, "c0", "color", old, new, class_name="cars", kind="static"
    ),
    times,
    st.sampled_from(["red", "blue", None]),
    st.sampled_from(["red", "blue", None]),
)


@settings(max_examples=600)
@given(
    update=dynamic_updates() | static_updates,
    latest=times.map(lambda t: t + 20.0) | reals.map(abs),
    offsets=st.lists(reals.map(abs) | st.just(0.0), min_size=1, max_size=6),
)
def test_probe_answers_every_earlier_end_like_the_single_end_test(
    update, latest, offsets
):
    probe = DivergenceProbe(update, latest)
    ends = [latest] + [latest - d for d in offsets] + [float(update.time)]
    for end in ends + ends[::-1]:  # every end, shared cut verdicts too
        expected = reference_divergence(update, end)
        assert probe.at(end) == expected
        assert update_divergence(update, end) == expected
    live = sorted(set(ends))
    expected = [reference_divergence(update, end) for end in live]
    assert DivergenceProbe(update, live[-1]).table(live) == expected
    assert probe.table(live) == expected


def test_reanchored_law_is_decided_at_each_query_s_own_end():
    """A heartbeat on a non-dyadic law: equal at one end, unequal at
    another — the probe must not carry one end's verdict to the other."""
    old = DynamicAttribute(0.1, 0.0, LinearFunction(0.7))
    new = old.updated(3.0)
    update = MostUpdate(3.0, "c0", "x_position", old, new, class_name="cars")
    ends = [3.0 + k / 10 for k in range(1, 400)]
    verdicts = {reference_divergence(update, end) == INF for end in ends}
    assert verdicts == {True, False}, "the example lost its rounding split"
    probe = DivergenceProbe(update, max(ends))
    expected = [reference_divergence(update, end) for end in ends]
    assert [probe.at(end) for end in ends] == expected
    # The linear verdict must round as ``value_at`` does, not as an
    # algebraically equal rearrangement would.
    assert probe.table(ends) == expected


def test_a_plain_linear_record_takes_the_linear_verdict(monkeypatch):
    """A motion-vector record is decided by its laws' coefficients: no
    ``value_at``, no decomposition and no cut set.  A fault there cannot
    hide behind a slower path that answers the same."""
    old = DynamicAttribute(0.1, 0.0, LinearFunction(0.7))
    heartbeat = MostUpdate(3.0, "c0", "x_position", old, old.updated(3.0))
    turn = MostUpdate(
        3.0, "c0", "x_position", old, old.updated(3.0, function=LinearFunction(1.0))
    )
    ends = [2.0, 3.0, 3.1, 7.0, 40.0]
    expected = {
        u: [reference_divergence(u, end) for end in ends] for u in (heartbeat, turn)
    }
    assert INF in expected[heartbeat] and 3.0 in expected[turn]

    def refuse(*_args):
        raise AssertionError("left the linear verdict")

    monkeypatch.setattr(DynamicAttribute, "value_at", refuse)
    monkeypatch.setattr(LinearFunction, "linear_breakpoints", refuse)
    monkeypatch.setattr(DivergenceProbe, "_cut_verdict", refuse)
    for update, table in expected.items():
        assert DivergenceProbe(update, ends[-1]).table(ends) == table


def test_malformed_and_incomparable_updates_diverge_at_once():
    for old, new in ((None, None), (1.0, DynamicAttribute(0.0))):
        update = MostUpdate(4, "c0", "x_position", old, new)
        assert DivergenceProbe(update, 30.0).at(20.0) == 4.0
    nan = MostUpdate(
        4,
        "c0",
        "x_position",
        DynamicAttribute(math.nan, 0.0, LinearFunction(1.0)),
        DynamicAttribute(math.nan, 4.0, LinearFunction(1.0)),
    )
    assert DivergenceProbe(nan, 30.0).at(20.0) == reference_divergence(nan, 20.0)


# ---------------------------------------------------------------------------
# The one linear verdict
# ---------------------------------------------------------------------------


ints = st.integers(-6, 6)
linear_laws = st.tuples(
    values | ints | st.sampled_from(["x", None]),  # incomparable values too
    reals | ints | st.just(-0.0),
    times | st.integers(0, 12),
)


def linear_update(old, new, t_u):
    (value, slope, anchor), (new_value, new_slope, new_anchor) = old, new
    return MostUpdate(
        t_u,
        "c0",
        "x_position",
        DynamicAttribute(value, anchor, LinearFunction(slope)),
        DynamicAttribute(new_value, new_anchor, LinearFunction(new_slope)),
        class_name="cars",
    )


def verdicts(update, ends):
    old, new = update.old, update.new
    return linear_divergence(
        old.value,
        old.function.slope,
        old.updatetime,
        new.value,
        new.function.slope,
        new.updatetime,
        float(update.time),
        ends,
    )


@settings(max_examples=800)
@given(
    old=linear_laws,
    new=linear_laws,
    shape=st.sampled_from(["heartbeat", "turn", "free"]),
    t_u=times | st.integers(0, 12),
    ends=st.lists(times | reals.map(abs) | st.integers(0, 40), min_size=1, max_size=8),
)
def test_linear_verdict_matches_the_single_end_test_at_every_end(
    old, new, shape, t_u, ends
):
    """A heartbeat or a turn re-anchors the old law at ``t_u`` (as
    ``DynamicAttribute.updated`` does); a free pair may regress the
    clock or compare values of no common type."""
    if shape != "free" and t_u >= old[2]:
        triple = DynamicAttribute(old[0], old[2], LinearFunction(old[1]))
        try:
            moved = triple.updated(
                t_u, function=LinearFunction(new[1]) if shape == "turn" else None
            )
        except TypeError:
            moved = None  # an incomparable value has no implied value
        if moved is not None:
            new = (moved.value, moved.function.slope, moved.updatetime)
    update = linear_update(old, new, t_u)
    ends = sorted(set(ends))
    expected = [reference_divergence(update, end) for end in ends]
    assert verdicts(update, ends) == expected
    assert DivergenceProbe(update, ends[-1]).table(ends) == expected


def test_linear_verdict_rounds_each_end_on_its_own():
    """Value 0.1 at slope 0.3 from t = 7, re-anchored at 11: the two
    laws agree at some ends and not at others by rounding alone."""
    old = DynamicAttribute(0.1, 7, LinearFunction(0.3))
    update = MostUpdate(11, "c0", "x_position", old, old.updated(11))
    ends = [11 + k for k in range(-1, 200)] + [11 + k / 10 for k in range(1, 300)]
    ends = sorted(set(ends))
    expected = [reference_divergence(update, end) for end in ends]
    assert {e == INF for e in expected} == {True, False}
    assert verdicts(update, ends) == expected


def test_linear_verdict_edge_cases():
    def law(value, slope, anchor):
        return DynamicAttribute(value, anchor, LinearFunction(slope))

    cases = [
        # int coefficients: exact at every end
        MostUpdate(4, "c0", "x_position", law(1, 2, 0), law(9, 2, 4)),
        # signed zeros compare equal
        MostUpdate(3, "c0", "x_position", law(-0.0, 0.0, 0), law(0.0, -0.0, 3)),
        # a real turn diverges at the first observable instant
        MostUpdate(3, "c0", "x_position", law(0.0, 1.0, 0), law(3.0, -1.0, 3)),
        # clock regression: the new law is anchored before the old
        MostUpdate(5, "c0", "x_position", law(1.0, 1.0, 4), law(0.0, 1.0, 2)),
        # the update is not yet observable: anchored after t_u
        MostUpdate(2, "c0", "x_position", law(1.0, 1.0, 0), law(9.0, 0.0, 6)),
        # incomparable and non-finite values
        MostUpdate(2, "c0", "x_position", law("x", 1.0, 0), law("x", 1.0, 2)),
        MostUpdate(2, "c0", "x_position", law(math.nan, 1.0, 0), law(math.nan, 1.0, 2)),
        MostUpdate(2, "c0", "x_position", law(INF, 1.0, 0), law(INF, 1.0, 2)),
    ]
    ends = [0.0, 2.0, 3.0, 4.0, 5.5, 6.0, 7.0, 40.0]
    for update in cases:
        expected = [reference_divergence(update, end) for end in ends]
        assert verdicts(update, ends) == expected, update
    assert verdicts(cases[0], ends)[-1] == INF
    assert verdicts(cases[1], ends)[-1] == INF
    assert verdicts(cases[2], ends)[-1] == 3.0
    assert verdicts(cases[3], ends) == [5.0] * len(ends)
    assert verdicts(cases[5], ends)[-1] == 2.0
    assert verdicts(cases[0], []) == []
