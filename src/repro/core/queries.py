"""The three MOST query types (section 2.3 of the paper).

* :class:`InstantaneousQuery` — evaluated once on the future history
  beginning at entry time.
* :class:`ContinuousQuery` — "our processing algorithm evaluates the query
  once, and returns a set of tuples (ν, begin, end)"; the materialised
  ``Answer(CQ)`` is revalidated whenever an explicit update may change it,
  and re-display per tick is just an interval lookup.
* :class:`PersistentQuery` — a sequence of instantaneous queries all
  anchored at entry time, re-evaluated at every database update over the
  *recorded* history (the paper postpones this algorithm; we evaluate it
  with the reference per-state semantics over the replayed update log).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

from repro.core.database import MostDatabase, MostUpdate
from repro.core.dynamic import DynamicAttribute
from repro.core.history import FutureHistory, RecordedHistory
from repro.errors import FtlSemanticsError, QueryError, SchemaError
from repro.ftl.analysis import AnalysisResult, CostModel, Diagnostic
from repro.ftl.analysis.deps import Dep, DepAnalysis, update_footprint
from repro.ftl.analysis.validity import (
    DivergenceProbe,
    ValidityAnalysis,
    analyze_query_validity,
    class_motion_events,
    linear_divergence,
)
from repro.ftl.analysis.plan import EvalPlan
from repro.ftl.context import DEFAULT, EvalContext, EvalOptions
from repro.ftl.incremental import PartialIntervalEvaluator, QueryCache
from repro.ftl.query import FtlQuery
from repro.ftl.relations import AnswerTuple, FtlRelation, Instantiation
from repro.motion.functions import LinearFunction
from repro.temporal import Interval


def _require_bound_classes(query: FtlQuery, db: MostDatabase) -> None:
    """Fail fast when the query ranges over a class the database lacks.

    Registration-time gate shared by every query class (and the
    continuous-query server's subscription registry): a query whose FROM
    clause names a class absent from this database raises a clean
    :class:`~repro.errors.SchemaError` naming the missing classes, never
    a deep evaluator error at first refresh.
    """
    known = set(db.class_names())
    missing = sorted(
        {cls for cls in query.bindings.values() if cls not in known}
    )
    if missing:
        names = ", ".join(repr(c) for c in missing)
        have = ", ".join(repr(c) for c in sorted(known)) or "none"
        raise SchemaError(
            f"query ranges over unknown object class(es) {names}; "
            f"classes defined in this database: {have}"
        )


def _class_counts(db: MostDatabase, classes: Iterable[str]) -> dict[str, int]:
    """The population of each class: a query bound to ``classes`` sees an
    insert (which commits nothing) as a change in these counts."""
    return {cls: db.class_count(cls) for cls in classes}


def _analyze_or_raise(query: FtlQuery, db: MostDatabase) -> AnalysisResult:
    """Run the static analyzer against the database schema, failing fast.

    Every query class gates evaluation on this: a query the analyzer
    rejects (unknown attribute, unsafe construct, ...) never reaches an
    evaluator, so malformed queries fail at registration with a
    span-carrying :class:`~repro.errors.FtlAnalysisError` instead of an
    :class:`~repro.errors.FtlSemanticsError` mid-evaluation.
    """
    analysis = query.analyze(schema=db)
    analysis.raise_on_error()
    analysis.warn_on_lints()
    return analysis


@dataclass(frozen=True, slots=True)
class StampedTuple:
    """One ``Answer(CQ)`` tuple with its staleness annotation.

    ``max_age`` is the age (ticks since last heard from) of the *oldest*
    object whose dynamic attributes the tuple was computed from —
    ``support`` is that full instantiation, targets and non-target bound
    variables alike.  ``degraded`` flags tuples whose ``max_age`` exceeds
    the query's staleness bound: they are suppressed from the degraded
    answer but still reported here so a client can render them greyed
    out rather than silently absent.  Slotted: every refresh of a served
    query stamps one per interval of every answer row, so each is one
    allocation, not two.
    """

    values: tuple
    begin: float
    end: float
    max_age: float
    support: tuple
    degraded: bool

    def active_at(self, t: float) -> bool:
        """Whether this tuple is displayed at clock tick ``t``."""
        return self.begin <= t <= self.end


def _object_age(db: MostDatabase, object_id: object) -> float:
    """Ticks since ``object_id`` was heard from (inf when unknown)."""
    try:
        return db.staleness(object_id)
    except SchemaError:
        return float("inf")


def _stamp_rows(
    db: MostDatabase,
    relation: FtlRelation,
    positions: list[int],
    bound: float | None,
    lo: float | None = None,
    hi: float | None = None,
    insts: Iterable[Instantiation] | None = None,
) -> list[StampedTuple]:
    """Flatten an unprojected relation into stamped answer tuples, each
    interval clipped to ``[lo, hi]`` when both are given — every row, or
    the stored rows among ``insts`` in their order.  A row's tuples are
    consecutive and share its instantiation object as ``support``.

    Scalar work per row: each object's age is read once per call, a
    row with nothing in the window is skipped before its age is read,
    and each interval is clipped by its endpoints with
    :meth:`IntervalSet.clip`'s tie rules (``max(start, lo)`` keeps the
    interval's own start on a tie, ``min(end, hi)`` its own end).  A
    normalised set stays normalised under a clip, so no set is built.
    """
    clip = lo is not None and hi is not None
    if clip and relation:
        Interval(lo, hi)  # a reversed window raises as ``clip`` would
    ages: dict[object, float] = {}
    out: list[StampedTuple] = []
    rows = relation.rows() if insts is None else relation.rows_of(insts)
    for inst, iset in rows:
        spans = iset.intervals
        if clip and (spans[-1].end < lo or spans[0].start > hi):
            continue  # nothing of the row is left in the window
        for v in inst:
            if v not in ages:
                ages[v] = _object_age(db, v)
        age = max(map(ages.__getitem__, inst), default=0.0)
        degraded = bound is not None and age > bound
        values = tuple([inst[p] for p in positions])
        for iv in spans:
            begin, end = iv.start, iv.end
            if clip:
                if end < lo:
                    continue
                if begin > hi:
                    break
                begin, end = max(begin, lo), min(end, hi)
            out.append(StampedTuple(values, begin, end, age, inst, degraded))
    return out


@dataclass
class Answer:
    """A materialised query answer: the relation plus its flat tuples."""

    relation: FtlRelation
    computed_at: int
    horizon: int

    @property
    def tuples(self) -> list[AnswerTuple]:
        """``Answer(CQ)`` as (instantiation, begin, end) tuples."""
        return self.relation.answer_tuples()

    def at(self, t: float) -> set[tuple]:
        """Instantiations displayed at tick ``t`` ("the system presents to
        the user at each clock-tick t the instantiations of the tuples
        having an interval that contains t")."""
        return self.relation.satisfied_at(t)


class InstantaneousQuery:
    """An instantaneous query: one evaluation on the history starting at
    entry time."""

    def __init__(self, query: FtlQuery, horizon: int) -> None:
        if horizon < 0:
            raise QueryError("horizon must be non-negative")
        self.query = query
        self.horizon = horizon
        #: Schema-less static analysis, refined against the actual
        #: database schema on the first evaluation per database.
        self.analysis = query.analyze()
        self.analysis.raise_on_error()
        self.analysis.warn_on_lints()
        self._analyzed_dbs: set[int] = set()

    def _gate(self, db: MostDatabase) -> None:
        """Re-run the analyzer against ``db``'s schema (once per db)."""
        if id(db) not in self._analyzed_dbs:
            _require_bound_classes(self.query, db)
            self.analysis = _analyze_or_raise(self.query, db)
            self._analyzed_dbs.add(id(db))

    def evaluate(
        self, db: MostDatabase, method: str = "interval"
    ) -> set[tuple]:
        """The instantiations satisfying the query *now* (tuples whose
        interval contains the entry tick)."""
        return self.answer(db, method=method).at(db.clock.now)

    def answer(self, db: MostDatabase, method: str = "interval") -> Answer:
        """The full interval answer (also used by continuous queries)."""
        self._gate(db)
        history = FutureHistory(db)
        relation = self.query.evaluate(history, self.horizon, method=method)
        return Answer(
            relation=relation, computed_at=db.clock.now, horizon=self.horizon
        )

    def stamped(
        self,
        db: MostDatabase,
        method: str = "interval",
        staleness_bound: float | None = None,
    ) -> list[StampedTuple]:
        """The answer with per-tuple staleness annotations.

        Each tuple carries the ``max_age`` of the dynamic attributes it
        was computed from; with a ``staleness_bound``, tuples depending
        on objects not heard from within the bound come back flagged
        ``degraded`` (the graceful-degradation rule — see DESIGN.md §4).
        """
        self._gate(db)
        history = FutureHistory(db)
        relation = self.query.evaluate_full(
            history, self.horizon, method=method
        )
        positions = [
            relation.variables.index(t) for t in self.query.targets
        ]
        return _stamp_rows(db, relation, positions, staleness_bound)


class ContinuousQuery:
    """A registered continuous query with a maintained ``Answer(CQ)``.

    On registration the query is evaluated once.  Explicit updates that
    may affect the answer trigger reevaluation (counted in
    :attr:`evaluations` — experiment E4 reads this); clock ticks do *not*,
    which is the whole point of the single-evaluation scheme.

    With ``method="incremental"`` the initial evaluation caches every
    per-subformula relation, updates accumulate the *dirty-instantiation*
    frontier (which objects changed, hence which variable instantiations
    can differ), and revalidation patches only those rows through
    :class:`~repro.ftl.incremental.PartialIntervalEvaluator` — falling
    back to full reevaluation when the formula contains an assignment
    quantifier, when the population of a bound class changed, or when an
    update cannot be attributed to a bound object (see DESIGN.md).
    Formula-level fallbacks are reported: :attr:`incremental_rejection`
    is the static-analysis diagnostic (FTL401/FTL403) naming the
    disqualifying subformula, ``None`` when incremental maintenance is
    in effect.

    Update relevance is decided once per commit for every query of the
    database by its :class:`UpdateRouter`, against each query's static
    *read-set* (DESIGN.md §10; :meth:`affects` is the same test for one
    record): commits whose (class, kind) footprints the query provably
    never reads are dropped (:attr:`skipped_by_deps`),
    and within an incremental refresh, cached subtrees whose read-sets
    are disjoint from the accumulated dirty footprints are reused
    without recomputation (:attr:`subtrees_skipped`), and dirty atom
    rows the §4 index decides are answered without a solve
    (:attr:`pruned_rows`).

    On top of the read-set gate sits the *temporal-validity* gate
    (pass 8, DESIGN.md §11): when the static analysis proves the whole
    condition's answer valid through the query's expiration horizon
    (no read class has a motion event before it), a covered commit
    whose kinetic consequences provably lie beyond the horizon — a
    pure re-anchor "heartbeat", say — is dropped by the router, from one
    divergence verdict per record for every live query end, without
    dirtying the answer (:attr:`horizon_skipped`); within an
    incremental refresh, touched subtrees whose validity stamp and dirty
    divergence times both reach the window end are reused
    (:attr:`horizon_subtrees_skipped`); and each stamped atom's kinetic
    solves are stored in ``db.kinetic_cache`` and answer any later
    refresh whose window the solved one contains, starting before the
    stamp expires, by clipping — the only way a kinetic solve is ever
    reused.  ``options.validity_horizons`` off disables all three (the
    differential twin of the soundness wall): no stamp, so every solve
    runs.
    """

    _METHODS = ("interval", "naive", "incremental")

    def __init__(
        self,
        db: MostDatabase,
        query: FtlQuery,
        horizon: int,
        method: str = "interval",
        staleness_bound: float | None = None,
        options: EvalOptions = DEFAULT,
    ) -> None:
        if horizon < 0:
            raise QueryError("horizon must be non-negative")
        if method not in self._METHODS:
            raise QueryError(f"unknown method {method!r}")
        if staleness_bound is not None and staleness_bound < 0:
            raise QueryError("staleness bound must be non-negative")
        self.db = db
        self.query = query
        self.horizon = horizon
        self.method = method
        #: The acceleration layers every refresh runs with (answers are
        #: identical whatever is off).  ``ordered`` decides, once at
        #: registration, whether :attr:`plan` is built;
        #: ``validity_horizons`` whether the pass-8 analysis is.
        self.options = options
        #: Suppress tuples depending on objects not heard from within
        #: this many ticks (None = no degradation).
        self.staleness_bound = staleness_bound
        #: Tuples suppressed by the staleness bound at the last read.
        self.suppressed = 0
        self.created_at = db.clock.now
        self.expires_at = db.clock.now + horizon
        #: Total answer refreshes (full + incremental) — experiment E4.
        self.evaluations = 0
        #: Of which, full reevaluations.
        self.full_evaluations = 0
        #: Of which, incremental (patch-based) refreshes.
        self.incremental_refreshes = 0
        #: Rows recomputed across all incremental refreshes.
        self.rows_recomputed = 0
        #: Of those, the atom rows the index decided without a solve
        #: (the refresh's frontier view, DESIGN.md §7).
        self.pruned_rows = 0
        self._bound_classes = frozenset(query.bindings.values())
        # Unknown classes fail at registration with a SchemaError naming
        # them — never a deep evaluator error at first refresh.
        _require_bound_classes(query, db)
        #: Static analysis against the database schema; errors raise
        #: FtlAnalysisError before the first evaluation.
        self.analysis = _analyze_or_raise(query, db)
        #: The cost-ordered evaluation plan all refreshes run through.
        #: The continuous query owns it: the plan keeps the ordered
        #: formula tree alive, so the ``id``-keyed incremental caches
        #: stay valid across refreshes.
        self.plan: EvalPlan | None = None
        if options.ordered:
            sizes = _class_counts(db, self._bound_classes)
            try:
                self.plan = query.plan_for(
                    model=CostModel(class_sizes=sizes, horizon=horizon)
                )
            except FtlSemanticsError:
                self.plan = None
        #: With ``method="incremental"``, the diagnostics naming each
        #: subformula (FTL401) or free-ranging target (FTL403) that
        #: forces the fallback to full reevaluation; empty when the
        #: query is incrementally maintainable.
        self.incremental_rejections: tuple[Diagnostic, ...] = ()
        if method == "incremental":
            rejections: list[Diagnostic] = []
            if self.analysis.fragment is not None:
                rejections.extend(self.analysis.fragment.blockers)
            rejections.extend(
                d for d in self.analysis.diagnostics if d.code == "FTL403"
            )
            self.incremental_rejections = tuple(rejections)
        #: The first rejection (or None) — the one-line explanation of
        #: why an incremental registration fell back.
        self.incremental_rejection: Diagnostic | None = (
            self.incremental_rejections[0]
            if self.incremental_rejections
            else None
        )
        self._use_incremental = (
            method == "incremental" and not self.incremental_rejections
        )
        self._eval_method = "interval" if method == "incremental" else method
        #: Static update-impact analysis (DESIGN.md §10): the read-set of
        #: every plan node, keyed over the tree the evaluators actually
        #: walk (the plan's ordered tree when there is one).  ``None``
        #: disables dependency pruning — every update stays relevant.
        self._deps: DepAnalysis | None = None
        try:
            if self.plan is not None:
                self._deps = self.plan.dependency_analysis(schema=db)
            else:
                from repro.ftl.analysis.deps import analyze_query_deps

                self._deps = analyze_query_deps(query, schema=db)
        except Exception:
            self._deps = None
        #: Updates ignored because their (class, kind) footprint lies
        #: outside the query's inferred read-set.
        self.skipped_by_deps = 0
        #: Plan subtrees the incremental evaluator skipped because their
        #: read-set was disjoint from the dirty updates' footprints.
        self.subtrees_skipped = 0
        #: Temporal-validity analysis (pass 8, DESIGN.md §11): symbolic
        #: per-node horizons over the same tree ``_deps`` is keyed on.
        #: ``None`` disables horizon skipping and stamped solve reuse.
        self._validity: ValidityAnalysis | None = None
        if options.validity_horizons and self._deps is not None:
            try:
                if self.plan is not None:
                    self._validity = self.plan.validity_analysis(schema=db)
                else:
                    self._validity = analyze_query_validity(
                        query, schema=db, deps=self._deps
                    )
            except Exception:
                self._validity = None
        #: Covered updates dropped because their kinetic consequences
        #: provably lie beyond the query's validity horizon.
        self.horizon_skipped = 0
        #: Plan subtrees the incremental evaluator reused because the
        #: dirty updates' divergence times lie beyond the window end.
        self.horizon_subtrees_skipped = 0
        #: ``db.version`` of the last commit the router's class,
        #: known-object and read-set gates let through to this query —
        #: a per-commit signal, unlike :attr:`needs_refresh`, which the
        #: first reader clears.
        self.reached_version = -1
        #: Concrete per-node expiry stamps of the last refresh, keyed by
        #: ``id(subformula)`` over the evaluated tree.
        self._validity_stamps: dict[int, float] | None = None
        #: The whole condition's concrete ``t_expire`` at the last
        #: refresh (clamped to the expiration horizon).
        self._valid_until: float = float(db.clock.now)
        #: Whether the last refresh proved the root horizon reaches the
        #: expiration horizon — the static gate for update skipping.
        self._horizon_eligible = False
        #: Per dirty footprint, the earliest divergence time of its
        #: accumulated updates; ``None`` when tracking stands down.
        self._dirty_divergence: dict[Dep, float] | None = {}
        self._dirty = False
        self._needs_full = False
        # Insertion-ordered, so a refresh meets its dirty objects in
        # commit order.
        self._dirty_objects: dict[object, None] = {}
        #: Footprints of the updates accumulated since the last refresh;
        #: ``None`` when some accepted update could not be attributed
        #: (subtree skipping then stands down for that refresh).
        self._dirty_deps: set[Dep] | None = set()
        self._rf: FtlRelation | None = None
        self._cache: QueryCache | None = None
        self._target_positions: list[int] = []
        self._population: dict[str, int] = {}
        self._answer: Answer | None = None
        self._last_refresh = db.clock.now
        self._cancelled = False
        #: What :meth:`changed_since` marks answers of this query with.
        self._mark_token = object()
        #: The root instantiations the last refresh changed; ``None``
        #: after a full evaluation (every row may have).
        self._changed_rows: list[Instantiation] | None = None
        self._full_evaluate()
        self._router = UpdateRouter.of(db)
        self._router.add(self)

    # ------------------------------------------------------------------
    @property
    def answer(self) -> Answer:
        """The materialised ``Answer(CQ)`` (projected onto the targets).

        Under incremental maintenance the unprojected ``R_f`` is the
        maintained object; the projection is built lazily here, clipped to
        the still-displayable window ``[last refresh, expiration]``.
        """
        if self._answer is None:
            assert self._rf is not None
            relation = self._rf.project(self.query.targets).clipped(
                self._last_refresh, self.expires_at
            )
            self._answer = Answer(
                relation=relation,
                computed_at=self._last_refresh,
                horizon=max(0, self.expires_at - self._last_refresh),
            )
        return self._answer

    @property
    def cached_relations(self) -> int:
        """Subformula relations held by the incremental cache (0 when the
        query is not incrementally maintained).  The continuous-query
        server's metrics report this per registered query."""
        return 0 if self._cache is None else len(self._cache)

    # ------------------------------------------------------------------
    def _full_evaluate(self) -> None:
        self.evaluations += 1
        self.full_evaluations += 1
        now = self.db.clock.now
        history = FutureHistory(self.db)
        remaining = max(0, self.expires_at - now)
        self._compute_validity_stamps(now)
        cache = QueryCache() if self._use_incremental else None
        # The unprojected relation is the maintained object for every
        # method: its instantiations name the objects each tuple's
        # intervals were computed from, which staleness-aware
        # degradation needs (the projection is built lazily).  The
        # query's own plan — or its absence — fixes the tree the
        # incremental cache is keyed on, so no second plan is built
        # here.
        self._rf = self.query.evaluate_full(
            history,
            remaining,
            method=self._eval_method,
            plan=self.plan,
            options=replace(self.options, ordered=False),
            validity=self._validity_stamps,
            trace=None if cache is None else cache.relations,
        )
        self._cache = cache
        self._target_positions = [
            self._rf.variables.index(t) for t in self.query.targets
        ]
        self._population = _class_counts(self.db, self._bound_classes)
        self._answer = None
        self._last_refresh = now
        self._changed_rows = None

    def _refresh_incremental(self) -> None:
        self.evaluations += 1
        self.incremental_refreshes += 1
        now = self.db.clock.now
        remaining = max(0, self.expires_at - now)
        history = FutureHistory(self.db)
        ctx = EvalContext(history, remaining, self.query.bindings)
        self._compute_validity_stamps(now)
        evaluator = PartialIntervalEvaluator(
            ctx,
            self._cache,
            tuple(self._dirty_objects),
            plan=self.plan,
            options=self.options,
            deps=self._deps,
            dirty_deps=(
                frozenset(self._dirty_deps)
                if self._dirty_deps is not None
                else None
            ),
            validity=self._validity_stamps,
            dirty_divergence=(
                dict(self._dirty_divergence)
                if self._dirty_divergence is not None
                else None
            ),
        )
        self._rf = evaluator.refresh(self.query.where)
        self._changed_rows = evaluator.changed_rows
        self.rows_recomputed += evaluator.rows_recomputed
        self.pruned_rows += evaluator.pruned_instantiations
        self.subtrees_skipped += evaluator.subtrees_skipped
        self.horizon_subtrees_skipped += evaluator.horizon_subtrees_skipped
        self._last_refresh = now
        self._answer = None

    def _compute_validity_stamps(self, now: int) -> None:
        """Concretize the static validity horizons at refresh time.

        Reads the earliest future motion event (leg boundary or
        scheduled expiry) of each bound class off the database's
        motion-event index and turns the symbolic per-node horizons
        into absolute expiry stamps.  The stamps flow into the evaluator
        (window-shifted cache reuse and horizon-pruned incremental
        refresh) and into the update-stream gate
        (:meth:`_beyond_validity_horizon`).  Any failure degrades to "no
        stamps" — every consumer treats that as "never skip".
        """
        if self._validity is None:
            return
        end = float(self.expires_at)
        t_eval = float(now)
        try:
            events = class_motion_events(
                self.db, self._validity.dynamic_classes(), t_eval, end
            )
            self._validity_stamps = self._validity.concretize(
                events, t_eval, end
            )
            root_expiry = self._validity.root_horizon.concretize(
                events, t_eval, end
            )
        except Exception:
            self._validity_stamps = None
            self._valid_until = t_eval
            self._horizon_eligible = False
            return
        self._valid_until = min(root_expiry, end)
        self._horizon_eligible = (
            not self._validity.root_horizon.bottom and root_expiry >= end
        )

    def _take(
        self,
        updates: tuple[MostUpdate, ...],
        cls: str | None,
        footprints: tuple[Dep | None, ...],
        dirty: Sequence[tuple[int, float]],
    ) -> None:
        """This query's share of a commit that dirties it.

        The :class:`UpdateRouter` ran every gate once for all queries —
        class, known-object, read-set and temporal validity — and counted
        the skips.  ``dirty`` holds ``(record index, divergence time at
        this query's expires_at)`` for each record of the commit that the
        query's read-set covers and its validity gate let through, read
        off the router's per-record table.  What is left is the dirty
        bookkeeping.
        """
        # Lazy revalidation: the next read recomputes once, however many
        # commits dirtied the query since the last one.
        self._dirty = True
        if cls is None:
            # Can't attribute the update to a bound object — conservative
            # full reevaluation on the next read.
            self._needs_full = True
            return
        for i, div in dirty:
            self._dirty_objects[updates[i].object_id] = None
            if self._dirty_deps is None:
                continue
            footprint = footprints[i]
            if footprint is None:
                self._dirty_deps = None
                self._dirty_divergence = None
                continue
            self._dirty_deps.add(footprint)
            if self._dirty_divergence is not None:
                prev = self._dirty_divergence.get(footprint)
                self._dirty_divergence[footprint] = (
                    div if prev is None else min(prev, div)
                )

    def _ensure_fresh(self) -> None:
        if _class_counts(self.db, self._bound_classes) != self._population:
            # An insert commits nothing, so no router gate saw it.
            self._dirty = self._needs_full = True
        if self._dirty and self.db.clock.now <= self.expires_at:
            if self._can_refresh_incrementally():
                self._refresh_incremental()
            else:
                self._full_evaluate()
        self._dirty = False
        self._needs_full = False
        self._dirty_objects.clear()
        self._dirty_deps = set()
        self._dirty_divergence = {}

    def _can_refresh_incrementally(self) -> bool:
        return (
            self._use_incremental
            and not self._needs_full
            and self._cache is not None
            and bool(self._dirty_objects)
        )

    def _covers(self, footprint: Dep | None) -> bool:
        """The dependency gate: whether the read-set covers a footprint
        (``None`` — unattributable — and a missing analysis cover all)."""
        return (
            self._deps is None
            or footprint is None
            or self._deps.query_reads.covers(footprint)
        )

    def affects(self, update: MostUpdate) -> bool:
        """Whether an update may change ``Answer(CQ)``, by the gates the
        :class:`UpdateRouter` runs for every commit — the same helpers,
        for one record (no counter moves).

        Two-stage test.  First the class gate: the updated object must
        belong to a class the query ranges over, and — when the update
        carries class metadata — must actually be a live object of this
        database (an update for a known class but an id the database has
        never seen cannot appear in any instantiation).  An update that
        carries no class metadata *and* names an unknown id stays
        conservatively relevant.

        Then the dependency gate (DESIGN.md §10): the update's
        (class, kind) footprint — position, attribute, or static — must
        intersect the query's statically inferred read-set; commits the
        read-set provably ignores are counted in :attr:`skipped_by_deps`
        by the router and dropped without dirtying the answer.
        """
        reachable, cls = _class_gate(self.db, update)
        return (
            reachable
            and _binds(self, cls)
            and self._covers(update_footprint(update, self.db))
        )

    @property
    def needs_refresh(self) -> bool:
        """Whether the next read will recompute ``Answer(CQ)``.

        The subscription registry polls this to skip refresh work for
        queries no relevant update or insert has touched since their last
        read.
        """
        return (
            (
                self._dirty
                or _class_counts(self.db, self._bound_classes)
                != self._population
            )
            and not self._cancelled
            and self.db.clock.now <= self.expires_at
        )

    @property
    def valid_until(self) -> float:
        """Absolute time through which the current answer is statically
        guaranteed exact absent updates (the concrete root horizon from
        the last refresh, clamped to :attr:`expires_at`).  Equal to the
        last refresh time when the analyzer bottomed out."""
        return self._valid_until

    # ------------------------------------------------------------------
    def refresh(self) -> None:
        """Bring ``Answer(CQ)`` up to date without displaying it.

        This is the per-update maintenance cost in isolation — what the
        incremental-maintenance benchmark measures.
        """
        if self._cancelled:
            raise QueryError("query was cancelled")
        self._ensure_fresh()

    def _is_fresh(self, inst: tuple) -> bool:
        """Whether every object the instantiation reads is within the
        staleness bound."""
        bound = self.staleness_bound
        return all(_object_age(self.db, v) <= bound for v in inst)

    def current(self) -> set[tuple]:
        """The display at the current clock tick.

        With a staleness bound, instantiations depending on an object not
        heard from within the bound are suppressed (counted in
        :attr:`suppressed`) — the degraded answer never presents a tuple
        as current on the strength of data older than the bound.
        """
        if self._cancelled:
            raise QueryError("query was cancelled")
        now = self.db.clock.now
        if now > self.expires_at:
            return set()
        self._ensure_fresh()
        insts = self._rf.satisfied_at(now)
        if self.staleness_bound is not None:
            kept = {inst for inst in insts if self._is_fresh(inst)}
            self.suppressed = len(insts) - len(kept)
            insts = kept
        return {
            tuple(inst[p] for p in self._target_positions) for inst in insts
        }

    def answer_tuples(self, include_stale: bool = False) -> list[AnswerTuple]:
        """The current ``Answer(CQ)`` tuples.

        With a staleness bound, tuples supported by out-of-date objects
        are suppressed unless ``include_stale`` is set (a convergence
        check wants the full answer)."""
        self._ensure_fresh()
        if self.staleness_bound is None or include_stale:
            return self.answer.tuples
        filtered = FtlRelation(self._rf.variables)
        suppressed = 0
        for inst, iset in self._rf.rows():
            if self._is_fresh(inst):
                filtered.add(inst, iset)
            else:
                suppressed += 1
        self.suppressed = suppressed
        relation = filtered.project(self.query.targets).clipped(
            self._last_refresh, self.expires_at
        )
        return relation.answer_tuples()

    def stamped_tuples(self) -> list[StampedTuple]:
        """Every ``Answer(CQ)`` tuple with its staleness annotation —
        degraded tuples included, flagged rather than suppressed."""
        self._ensure_fresh()
        return self.stamp_rows()

    # ------------------------------------------------------------------
    # What an answer snapshot needs to follow the answer by its changes
    # (the continuous-query server's ``AnswerState.capture``).
    # ------------------------------------------------------------------
    def changed_since(
        self, mark: tuple | None
    ) -> tuple[tuple, list[Instantiation] | None, int]:
        """``(mark, rows, refreshed_at)`` of the answer as it stands.

        ``mark`` is an opaque stamp of this answer to pass back later;
        ``refreshed_at`` is the tick the answer was computed at (its
        tuples are clipped there).  ``rows`` are the root instantiations
        whose stamped tuples may differ from those of the answer at the
        given ``mark`` other than by aging: the rows the one refresh
        since patched, and the rows naming an object heard from since
        (:meth:`MostDatabase.heard_since` — a heartbeat the validity gate
        dropped still resets its object's age).  Every other row's
        tuples are the same, each exactly the elapsed ticks older — or
        gone, where the window moved past them.  ``rows`` is ``None``
        when that is not known: no mark, a mark of another query, other
        than one refresh since it, or a full evaluation.  Brings the
        answer up to date first, as :meth:`stamped_tuples` does.
        """
        self._ensure_fresh()
        db = self.db
        current = (self._mark_token, self.evaluations, db.heard_serial)
        if (
            mark is None
            or mark[0] is not self._mark_token
            or mark[1] != self.evaluations - 1
            or self._changed_rows is None
        ):
            return current, None, self._last_refresh
        rows = dict.fromkeys(self._changed_rows)
        heard = db.heard_since(mark[2])
        if heard:
            assert self._rf is not None
            rows.update(dict.fromkeys(self._rf.rows_touching(heard)))
        return current, list(rows), self._last_refresh

    def stamp_rows(
        self, insts: Iterable[Instantiation] | None = None
    ) -> list[StampedTuple]:
        """:meth:`stamped_tuples` of the given root instantiations only
        (every row when ``None``), in their order, without a refresh."""
        assert self._rf is not None
        return _stamp_rows(
            self.db,
            self._rf,
            self._target_positions,
            self.staleness_bound,
            self._last_refresh,
            self.expires_at,
            insts,
        )

    def ages_stay_zero(self, inst: Instantiation) -> bool:
        """Whether the instantiation's age is 0 at every tick: none of
        its objects is tracked (server-local objects never go stale)."""
        return not any(map(self.db.is_tracked, inst))

    def cancel(self) -> None:
        """Stop maintaining the answer ("until cancelled")."""
        if not self._cancelled:
            self._router.remove(self)
            self._cancelled = True


def _class_gate(db: MostDatabase, update: MostUpdate) -> tuple[bool, str | None]:
    """The class and known-object gate, shared by every query.

    Returns whether the update can reach any query at all, and the
    updated object's class (``None`` when unknown: it then reaches every
    query).  An update that carries class metadata but names an id the
    database never admitted reaches none — no instantiation can mention
    it.  A tagged update — every commit the database makes — costs one
    membership test."""
    if update.class_name is not None:
        return update.object_id in db, update.class_name
    try:
        return True, db.get(update.object_id).object_class.name
    except SchemaError:
        return True, None


def _divergence_table(update: MostUpdate, ends: Sequence[float]) -> list[float]:
    """``DivergenceProbe(update, ends[-1]).table(ends)``: a record whose
    old and new functions are both exactly :class:`LinearFunction` is
    decided by :func:`linear_divergence` over its laws' coefficients,
    without building a probe."""
    old, new = update.old, update.new
    if (
        type(old) is DynamicAttribute
        and type(new) is DynamicAttribute
        and type(old.function) is LinearFunction
        and type(new.function) is LinearFunction
        and update.kind != "static"
    ):
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
    return DivergenceProbe(update, ends[-1]).table(ends)


def _binds(cq: ContinuousQuery, cls: str | None) -> bool:
    """Whether an update of class ``cls`` reaches ``cq``."""
    return cls is None or cls in cq._bound_classes


def _covered(
    cq: ContinuousQuery, footprints: tuple[Dep | None, ...]
) -> tuple[int, ...]:
    """The indices of the commit records ``cq``'s read-set covers."""
    return tuple(i for i, fp in enumerate(footprints) if cq._covers(fp))


#: ``(query, the query's read-set when routed, covered record indices,
#: the query's index into the router's live ends)``.
_Route = list[tuple[ContinuousQuery, DepAnalysis | None, tuple[int, ...], int]]


class UpdateRouter:
    """The database's one continuous-query listener.

    Section 2.3: a continuous query "has to be reevaluated when an update
    occurs that may change Answer(CQ)".  Whether it may is a property of
    the update and of time, not of each query, so the router decides it
    once per commit for all of them:

    * the class and known-object gate once;
    * the read-set gate by one lookup in a route memo keyed by record
      shape, ``(class, ((kind, attribute), …)) → (footprints, [(query,
      covered records, end index)])``.  A footprint depends only on the
      class, the kind, the attribute and the class's position
      attributes, so one memo entry serves every commit of that shape
      and :func:`update_footprint` runs once per route, not per commit;
    * the temporal-validity gate from one divergence table per record
      over the live queries' distinct ``expires_at``, built on first
      use: :func:`linear_divergence` for a plain linear record (every
      motion-vector update), :meth:`DivergenceProbe.table` otherwise.
      A query whose covered records all reach its end is counted
      (:attr:`~ContinuousQuery.horizon_skipped`) right here; only a
      query the commit dirties runs its own bookkeeping
      (:meth:`ContinuousQuery._take`).

    The memo and the end list are rebuilt only when a query registers,
    cancels or expires (and the memo when a query's read-set is
    replaced).
    """

    def __init__(self, db: MostDatabase) -> None:
        self.db = db
        self._queries: list[ContinuousQuery] = []
        self._routes: dict[
            tuple[object, ...], tuple[tuple[Dep | None, ...], _Route]
        ] = {}
        #: The live queries' distinct ``expires_at``, ascending.
        self._ends: list[float] = []
        db.on_update(self._on_commit)

    @staticmethod
    def of(db: MostDatabase) -> "UpdateRouter":
        """The database's router (created, and subscribed, on first use)."""
        router = db._query_router
        if router is None:
            router = db._query_router = UpdateRouter(db)
        return router

    @property
    def queries(self) -> tuple[ContinuousQuery, ...]:
        """The live (registered, uncancelled, unexpired) queries."""
        return tuple(self._queries)

    def add(self, cq: ContinuousQuery) -> None:
        """Start routing commits to ``cq``."""
        self._reset(self._queries + [cq])

    def remove(self, cq: ContinuousQuery) -> None:
        """Stop routing commits to ``cq`` (no-op when it is not live)."""
        if cq in self._queries:
            self._reset([q for q in self._queries if q is not cq])

    def _reset(self, queries: list[ContinuousQuery]) -> None:
        self._queries = queries
        self._routes.clear()
        self._ends = sorted({float(q.expires_at) for q in queries})

    def _route(
        self, cls: str | None, updates: tuple[MostUpdate, ...]
    ) -> tuple[tuple[Dep | None, ...], _Route]:
        """The footprints of a commit of ``cls`` and every live query it
        reaches, with the indices of the records its read-set covers
        (possibly none) and its end's index."""
        footprints = tuple(update_footprint(u, self.db) for u in updates)
        index = {end: e for e, end in enumerate(self._ends)}
        return footprints, [
            (
                cq,
                cq._deps,
                _covered(cq, footprints),
                index[float(cq.expires_at)],
            )
            for cq in self._queries
            if _binds(cq, cls)
        ]

    def _on_commit(self, updates: tuple[MostUpdate, ...]) -> None:
        if not self._queries:
            return
        db = self.db
        now = db.clock.now
        if now > self._ends[0]:
            self._reset([q for q in self._queries if now <= q.expires_at])
            if not self._queries:
                return
        # One commit is one object: the class gate runs on its first record.
        reachable, cls = _class_gate(db, updates[0])
        if not reachable:
            return
        key = (cls, tuple((u.kind, u.attribute) for u in updates))
        memo = self._routes.get(key)
        if memo is None:
            memo = self._routes[key] = self._route(cls, updates)
        footprints, route = memo
        ends = self._ends
        tables: list[list[float] | None] = [None] * len(updates)
        version = db.version
        for cq, deps, covered, e in route:
            if cq._deps is not deps:
                # The read-set was replaced after routing (an unpruned
                # twin): route this commit afresh and forget the memo.
                self._routes.clear()
                covered = _covered(cq, footprints)
            if not covered:
                cq.skipped_by_deps += 1
                continue
            # The commit got past the shared gates, whatever the validity
            # gate decides below (a skipped heartbeat still resets its
            # object's staleness, so the display may change).
            cq.reached_version = version
            # The validity gate drops a record that leaves the trajectory
            # unchanged through this query's end (e.g. a heartbeat
            # re-anchoring the same motion law) when the query was
            # horizon-eligible at its last refresh.  Whether that horizon
            # is stale does not matter: the divergence test alone proves
            # the state the cached answer was derived from persists to
            # the end.
            eligible = cq._validity is not None and cq._horizon_eligible
            end = ends[e]
            dirty: list[tuple[int, float]] = []
            for i in covered:
                table = tables[i]
                if table is None:
                    table = tables[i] = _divergence_table(updates[i], ends)
                if table[e] < end or not eligible:
                    dirty.append((i, table[e]))
            if not dirty:
                cq.horizon_skipped += 1
                continue
            cq._take(updates, cls, footprints, dirty)


class PersistentQuery:
    """A persistent query anchored at its entry time.

    "A persistent query at time t is a sequence of instantaneous queries
    on the infinite history starting at t ... evaluated at each time
    t' >= t the database is updated."  Evaluation replays the update log
    through a :class:`RecordedHistory` and checks satisfaction at the
    anchor tick.  Every commit re-evaluates; an insert commits nothing,
    so a read after one into a bound class re-evaluates too.
    """

    def __init__(
        self,
        db: MostDatabase,
        query: FtlQuery,
        horizon: int,
        method: str = "auto",
    ) -> None:
        if horizon < 0:
            raise QueryError("horizon must be non-negative")
        if method not in ("auto", "interval", "naive"):
            raise QueryError(f"unknown method {method!r}")
        self.db = db
        self.query = query
        self.horizon = horizon
        self.method = method
        _require_bound_classes(query, db)
        #: Static analysis against the database schema (fail fast).
        self.analysis = _analyze_or_raise(query, db)
        #: Which evaluator actually answered the last evaluation.
        self.last_method: str | None = None
        self.anchor = db.clock.now
        self.evaluations = 0
        self._cancelled = False
        self._bound_classes = frozenset(query.bindings.values())
        self._population: dict[str, int] = {}
        self._current: set[tuple] = self._evaluate()
        self._unsubscribe = db.on_update(self._on_update)
        self._listeners: list[Callable[[set[tuple]], None]] = []

    def _evaluate(self) -> set[tuple]:
        """Evaluate over the recorded history anchored at entry time.

        The paper defers persistent-query processing; here the appendix
        interval algorithm handles it whenever the recorded trajectories
        are continuous piecewise-linear (the update log then yields a
        single piecewise moving point per object), with the per-state
        reference evaluator as the general fallback.
        """
        self.evaluations += 1
        self._population = _class_counts(self.db, self._bound_classes)
        history = RecordedHistory(self.db, self.anchor)
        if self.method in ("auto", "interval"):
            try:
                relation = self.query.evaluate(
                    history, self.horizon, method="interval"
                )
                self.last_method = "interval"
                return relation.satisfied_at(self.anchor)
            except QueryError:
                if self.method == "interval":
                    raise
        relation = self.query.evaluate(history, self.horizon, method="naive")
        self.last_method = "naive"
        return relation.satisfied_at(self.anchor)

    def _on_update(self, _commit: tuple[MostUpdate, ...]) -> None:
        if not self._cancelled:
            self._reevaluate()

    def _reevaluate(self) -> None:
        result = self._evaluate()
        if result != self._current:
            self._current = result
            for listener in list(self._listeners):
                listener(result)

    # ------------------------------------------------------------------
    def current(self) -> set[tuple]:
        """The instantiations currently satisfying the anchored query."""
        population = _class_counts(self.db, self._bound_classes)
        if not self._cancelled and population != self._population:
            self._reevaluate()  # an insert since the last evaluation
        return set(self._current)

    def on_change(self, listener: Callable[[set[tuple]], None]) -> None:
        """Subscribe to answer changes (the trigger hook)."""
        self._listeners.append(listener)

    def cancel(self) -> None:
        """Stop re-evaluating."""
        if not self._cancelled:
            self._unsubscribe()
            self._cancelled = True
