"""Correctness gates for the cost-based orderer and the rewrite rules.

Two differential properties over seeded random worlds and formulas
(generators shared with ``test_differential``):

1. **Order soundness** — evaluating through the cost-ordered plan must
   produce exactly the same relation, tuple for tuple and interval for
   interval, as the syntactic operand order, under all three methods
   (naive, interval, incremental continuous queries).  The orderer only
   permutes commutative conjuncts and independent assignment links, so
   any divergence is a bug, not an approximation.

2. **Rewrite soundness** — every derived-operator rewrite rule of
   ``rewrite.py`` must preserve ``Answer(CQ)`` when its expansion is
   evaluated *through the plan layer* (ordered and syntactic).  A rule
   failing this gate gets quarantined in ``rewrite.QUARANTINED`` and
   flagged FTL605; the gate doubles as the proof the quarantine set can
   stay empty.
"""

import random
from dataclasses import replace

import pytest

from repro.core import FutureHistory
from repro.core.queries import ContinuousQuery
from repro.errors import FtlSemanticsError
from repro.ftl import FtlQuery, expand, quarantined_rules
from repro.ftl.context import DEFAULT
from repro.ftl.rewrite import RULE_NAMES

from tests.ftl.test_differential import (
    HORIZON,
    apply_random_updates,
    build_world,
    random_formula,
    random_query,
)

#: The unplanned twin: operands evaluated in the order they were written.
SYNTACTIC = replace(DEFAULT, ordered=False)


def relation_key(relation):
    return sorted(
        (inst, tuple((i.start, i.end) for i in iset.intervals))
        for inst, iset in relation.rows()
    )


# Bounded built-ins erode at the modelled horizon while their Until
# encodings cannot see past it (see test_rewrite.SLACK): evaluate the
# rewrite gates with slack and compare only on [0, HORIZON].
SLACK = 12


def clipped_key(relation):
    out = []
    for inst, iset in relation.rows():
        c = iset.clip(0, HORIZON)
        if not c.is_empty:
            out.append((inst, tuple((i.start, i.end) for i in c.intervals)))
    return sorted(out)


# ---------------------------------------------------------------------------
# 1. Ordered plan ≡ syntactic order
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(120))
def test_ordered_plan_matches_syntactic_order(seed):
    """One-shot evaluation: ordered ≡ syntactic for naive and interval."""
    rng = random.Random(seed)
    db = build_world(rng)
    query = random_query(rng)
    history = FutureHistory(db)
    for method in ("interval", "naive"):
        ordered = query.evaluate_full(history, HORIZON, method=method)
        syntactic = query.evaluate_full(
            history, HORIZON, method=method, options=SYNTACTIC
        )
        assert relation_key(ordered) == relation_key(syntactic), (
            f"seed {seed} method {method}: orderer changed the answer "
            f"for {query.where}"
        )


@pytest.mark.parametrize("seed", range(40))
def test_ordered_continuous_queries_match_unordered(seed):
    """Driven continuous queries: ordered and unordered replicas stay in
    lockstep across updates, for all three methods."""
    rng = random.Random(seed)
    world_bits = rng.getstate()
    dbs = []
    for _ in range(6):
        rng.setstate(world_bits)
        dbs.append(build_world(rng))
    query = random_query(rng)
    cqs = []
    for i, method in enumerate(("naive", "interval", "incremental")):
        cqs.append(
            ContinuousQuery(
                dbs[2 * i], query, horizon=HORIZON, method=method
            )
        )
        cqs.append(
            ContinuousQuery(
                dbs[2 * i + 1], query, horizon=HORIZON, method=method,
                options=SYNTACTIC,
            )
        )
    for step in range(4):
        for db in dbs:
            db.clock.tick()
        apply_random_updates(rng, dbs)
        displays = [cq.current() for cq in cqs]
        assert all(d == displays[0] for d in displays[1:]), (
            f"seed {seed} step {step}: ordered/unordered replicas "
            f"diverge for {query.where}"
        )
    answers = [
        sorted((t.values, t.begin, t.end) for t in cq.answer_tuples())
        for cq in cqs
    ]
    assert all(a == answers[0] for a in answers[1:]), (
        f"seed {seed}: Answer(CQ) diverges for {query.where}"
    )


def test_ordered_queries_build_plans():
    """Guard: the differential suite actually exercises reordered plans,
    not a silent fallthrough to syntactic order."""
    reordered = 0
    for seed in range(200):
        rng = random.Random(seed)
        build_world(rng)  # keep the rng stream aligned with run_case
        query = random_query(rng)
        try:
            plan = query.plan_for()
        except FtlSemanticsError:  # pragma: no cover - fragment is plannable
            continue
        if plan.reordered:
            reordered += 1
    assert reordered >= 10, f"only {reordered} seeds produced reordered plans"


# ---------------------------------------------------------------------------
# 2. Rewrite soundness through the plan layer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(60))
def test_rewrites_preserve_answers_through_plans(seed):
    """expand() ∘ plan ≡ plan: the Until/Nexttime encodings of the
    derived operators answer identically, ordered or not."""
    rng = random.Random(seed)
    db = build_world(rng)
    formula = random_formula(rng, 2)
    free = sorted(formula.free_vars())
    if not free:  # pragma: no cover - atoms always mention a variable
        return
    bindings = {v: ("cars" if v == "c" else "vans") for v in free}
    query = FtlQuery(targets=tuple(free), bindings=bindings, where=formula)
    expanded = FtlQuery(
        targets=tuple(free), bindings=bindings, where=expand(formula)
    )
    history = FutureHistory(db)
    baseline = clipped_key(
        query.evaluate(
            history, HORIZON + SLACK, method="interval", options=SYNTACTIC
        )
    )
    for ordered in (False, True):
        got = clipped_key(
            expanded.evaluate(
                history,
                HORIZON + SLACK,
                method="interval",
                options=DEFAULT if ordered else SYNTACTIC,
            )
        )
        assert got == baseline, (
            f"seed {seed} ordered={ordered}: rewrite changed the answer "
            f"for {formula}"
        )


def test_every_rule_is_exercised_and_sound():
    """Per-rule gate: each derived operator, rewritten in isolation,
    answers identically to its built-in routine — so no rule needs to
    join ``QUARANTINED``."""
    assert quarantined_rules() == frozenset()
    exercised = set()
    for seed in range(80):
        rng = random.Random(seed)
        db = build_world(rng)
        formula = random_formula(rng, 2)
        rules = {
            RULE_NAMES[type(g)]
            for g in _subformulas(formula)
            if type(g) in RULE_NAMES
        }
        if not rules:
            continue
        exercised |= rules
        free = sorted(formula.free_vars())
        bindings = {v: ("cars" if v == "c" else "vans") for v in free}
        query = FtlQuery(
            targets=tuple(free), bindings=bindings, where=formula
        )
        rewritten = FtlQuery(
            targets=tuple(free), bindings=bindings, where=expand(formula)
        )
        history = FutureHistory(db)
        assert clipped_key(
            query.evaluate(history, HORIZON + SLACK)
        ) == clipped_key(rewritten.evaluate(history, HORIZON + SLACK)), (
            f"seed {seed}: rules {sorted(rules)} unsound for {formula}"
        )
    assert exercised == set(RULE_NAMES.values()), (
        f"rules never generated: {set(RULE_NAMES.values()) - exercised}"
    )


def _subformulas(f):
    yield f
    for attr in ("left", "right", "operand", "body"):
        child = getattr(f, attr, None)
        if child is not None and hasattr(child, "free_vars"):
            yield from _subformulas(child)
