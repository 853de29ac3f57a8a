"""Static temporal-validity analysis: per-node validity horizons (pass 8).

PR 8's read-sets (:mod:`repro.ftl.analysis.deps`) answer *which updates
matter*; this pass answers *for how long an answer stays true* — the
time axis of Mülle & Böhlen's "ongoing query results".  For every node
of a formula tree the walker computes a :class:`Horizon`: a symbolic
description of the interval of evaluation times ``[t_eval, t_expire)``
over which the node's cached relation is provably reusable, given the
motion functions its read-set reaches.

The abstraction is a two-stage design:

1. **Static stage** (this walker, schema-only, no database): a horizon
   is ⊥ (*bottom*: nothing provable, ``t_expire = t_eval``) or a set of
   :class:`Constraint`\\ s over the *dynamic classes* the node reads.  A
   *sliding* constraint with offset ``o`` says the node reads kinetic
   state up to ``o`` ticks ahead of the evaluation instant, so it
   expires ``o`` before the earliest future motion event of its
   classes; a *guarded* constraint says the node reads all the way to
   the evaluation horizon, so it is valid forever iff no motion event
   occurs before ``end + o`` and expires immediately otherwise.  A
   horizon with no constraints is *constant*: valid through the query's
   expiration horizon.
2. **Concretization** (:meth:`Horizon.concretize`, cheap, per refresh):
   given the per-class earliest-future-motion-event table from
   :func:`class_motion_events`, every node's symbolic horizon collapses
   to one absolute ``t_expire``.

Propagation rules (window arithmetic):

* atoms — ⊥ when the read-set is conservative; constant when no
  dynamic class is read; else one sliding constraint at offset 0;
* ``AND``/``OR``/``NOT`` — union of the children (⊥ absorbs);
* bounded operators — ``Nexttime`` shifts sliding offsets by 1,
  ``eventually within c`` / ``always for c`` / ``until within c`` by
  ``c`` (a node answering about ``[t, t+c]`` reads ``c`` ahead);
* unbounded operators (``Until``, ``Eventually``, ``Always``,
  ``eventually after c``) — children's sliding constraints become
  guarded: the operator reads to the evaluation horizon, so a single
  future motion event anywhere before it can flip the answer;
* ``[x := term] f`` — the body's horizon unioned with a sliding-0
  constraint over the dynamic classes the *term* reads beyond the body
  (sound because a shared class already carries a body constraint that
  concretizes at or before the class event);
* anything outside the grammar — ⊥.

Soundness contract consumed by :class:`~repro.core.queries.
ContinuousQuery`, :class:`~repro.ftl.incremental.
PartialIntervalEvaluator` and stamped solve reuse: re-evaluating a
node at any ``t' ∈ [t_eval, t_expire)`` over the same remaining window
provably yields the already-cached relation, and an update whose
:func:`update_divergence` lies at or beyond the window end cannot
change any relation computed over that window.

Population reads deliberately do **not** bottom a node: population
changes never travel the explicit-update stream (see
``UPDATE_SENSITIVE_KINDS`` in deps.py), and every consumer re-derives
its concrete stamps from the live database at each refresh, so a
membership change is re-observed at the next refresh exactly as it is
for the PR 8 dependency skips.

Like the rest of the analysis package this module must not import
:mod:`repro.core`; databases, objects and updates are duck-typed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.ftl.analysis.deps import (
    ATTRIBUTE,
    POSITION,
    DepAnalysis,
    ReadSet,
    _child_formulas,
    _subformulas,
    analyze_formula_deps,
)
from repro.ftl.analysis.diagnostics import Diagnostic, make
from repro.ftl.ast import (
    Always,
    AlwaysFor,
    Assign,
    Compare,
    Eventually,
    EventuallyAfter,
    EventuallyWithin,
    Formula,
    Inside,
    Nexttime,
    Outside,
    Until,
    UntilWithin,
    WithinSphere,
)
from repro.motion.functions import LinearFunction

if TYPE_CHECKING:  # pragma: no cover
    from repro.ftl.query import FtlQuery

INF = float("inf")

#: Events table: per class, the earliest future motion event, ``inf``
#: when none exists before the horizon, ``None`` when the class carries
#: motion the analysis cannot bound (non-piecewise-linear functions).
ClassEvents = Mapping[str, "float | None"]


# ---------------------------------------------------------------------------
# The symbolic lattice
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constraint:
    """One symbolic expiry constraint over a set of dynamic classes.

    Sliding (``guarded=False``): ``t_expire = min_event(classes) -
    offset``.  Guarded (``guarded=True``): ``t_expire = ∞`` when
    ``min_event(classes) >= end + offset`` else ``t_eval``.
    """

    guarded: bool
    offset: float
    classes: frozenset[str]

    def shifted(self, delta: float) -> "Constraint":
        """Window arithmetic for bounded operators: the node now reads
        ``delta`` further ahead.  Guarded constraints already pin the
        evaluation horizon, so they are unchanged."""
        if self.guarded or delta == 0.0:
            return self
        return Constraint(False, self.offset + delta, self.classes)

    def guardified(self) -> "Constraint":
        """Window arithmetic for unbounded operators."""
        if self.guarded:
            return self
        return Constraint(True, self.offset, self.classes)

    def concretize(self, events: ClassEvents, t_eval: float, end: float) -> float:
        earliest = INF
        for cls in self.classes:
            event = events.get(cls, None)
            if event is None:
                return t_eval  # unbounded (nonlinear) motion: unprovable
            earliest = min(earliest, event)
        if self.guarded:
            return INF if earliest >= end + self.offset else t_eval
        return earliest - self.offset

    def to_json(self) -> dict[str, object]:
        return {
            "mode": "guarded" if self.guarded else "sliding",
            "offset": self.offset,
            "classes": sorted(self.classes),
        }


@dataclass(frozen=True)
class Horizon:
    """A node's symbolic validity horizon.

    ``bottom`` (with a human ``reason``) means nothing is provable:
    concretization always yields ``t_expire = t_eval``.  Otherwise the
    horizon is the conjunction of ``constraints`` — no constraints means
    *constant* (valid through the query's expiration horizon).
    """

    bottom: bool = False
    reason: str = ""
    constraints: frozenset[Constraint] = frozenset()

    @property
    def kind(self) -> str:
        """``bottom`` / ``constant`` / ``sliding`` / ``guarded``."""
        if self.bottom:
            return "bottom"
        if not self.constraints:
            return "constant"
        if any(not c.guarded for c in self.constraints):
            return "sliding"
        return "guarded"

    def classes(self) -> list[str]:
        """Every dynamic class any constraint mentions, sorted."""
        return sorted({c for con in self.constraints for c in con.classes})

    @staticmethod
    def union(horizons: Iterable["Horizon"]) -> "Horizon":
        constraints: set[Constraint] = set()
        for h in horizons:
            if h.bottom:
                return h
            constraints |= h.constraints
        return Horizon(constraints=frozenset(constraints))

    def shifted(self, delta: float) -> "Horizon":
        if self.bottom or not self.constraints:
            return self
        return Horizon(
            constraints=frozenset(c.shifted(delta) for c in self.constraints)
        )

    def guardified(self) -> "Horizon":
        if self.bottom or not self.constraints:
            return self
        return Horizon(
            constraints=frozenset(c.guardified() for c in self.constraints)
        )

    def concretize(self, events: ClassEvents, t_eval: float, end: float) -> float:
        """The absolute ``t_expire`` under a concrete event table, always
        clamped to ``>= t_eval`` (a horizon never expires in the past)."""
        if self.bottom:
            return t_eval
        expire = INF
        for c in self.constraints:
            expire = min(expire, c.concretize(events, t_eval, end))
            if expire <= t_eval:
                return t_eval
        return max(expire, t_eval)

    def to_json(self) -> dict[str, object]:
        out: dict[str, object] = {"kind": self.kind}
        if self.bottom:
            out["reason"] = self.reason
        elif self.constraints:
            out["constraints"] = sorted(
                (c.to_json() for c in self.constraints),
                key=lambda c: (str(c["mode"]), str(c["classes"]), str(c["offset"])),
            )
        return out


UNBOUNDED = Horizon()


def _bottom(reason: str) -> Horizon:
    return Horizon(bottom=True, reason=reason)


def _dynamic_classes(rs: ReadSet) -> frozenset[str]:
    """The classes whose *kinetic* state (position or dynamic attribute)
    a read-set reaches — the ones whose motion events bound validity."""
    return frozenset(
        d.cls
        for d in rs.deps
        if d.cls is not None and d.kind in (POSITION, ATTRIBUTE)
    )


# ---------------------------------------------------------------------------
# The bottom-up walker
# ---------------------------------------------------------------------------

_ATOM_TYPES = (Compare, Inside, Outside, WithinSphere)


class _ValidityWalker:
    """One analysis run over the same tree a :class:`DepAnalysis` was
    computed for, memoized by node identity like the dep walker."""

    def __init__(self, deps: DepAnalysis) -> None:
        self.deps = deps
        self.horizons: dict[int, Horizon] = {}

    def walk(self, f: Formula) -> Horizon:
        hit = self.horizons.get(id(f))
        if hit is not None:
            return hit
        h = self._node(f)
        self.horizons[id(f)] = h
        return h

    def _node(self, f: Formula) -> Horizon:
        if isinstance(f, _ATOM_TYPES):
            return self._atom(f)
        if isinstance(f, Assign):
            return self._assign(f)
        if isinstance(f, Nexttime):
            return self.walk(f.operand).shifted(1.0)
        if isinstance(f, EventuallyWithin):
            return self.walk(f.operand).shifted(float(f.bound))
        if isinstance(f, AlwaysFor):
            return self.walk(f.operand).shifted(float(f.bound))
        if isinstance(f, UntilWithin):
            return Horizon.union(
                (self.walk(f.left), self.walk(f.right))
            ).shifted(float(f.bound))
        if isinstance(f, (Eventually, Always)):
            return self.walk(f.operand).guardified()
        if isinstance(f, EventuallyAfter):
            return self.walk(f.operand).guardified()
        if isinstance(f, Until):
            return Horizon.union(
                (self.walk(f.left), self.walk(f.right))
            ).guardified()
        children = _child_formulas(f)
        if children:
            return Horizon.union(self.walk(c) for c in children)
        return _bottom("formula shape outside the analyzed grammar")

    def _atom(self, f: Formula) -> Horizon:
        rs = self.deps.reads_for(f)
        if rs is None:
            return _bottom("node has no read-set")
        if rs.conservative:
            return _bottom("conservative read-set (unattributable term)")
        classes = _dynamic_classes(rs)
        if not classes:
            return UNBOUNDED
        return Horizon(
            constraints=frozenset({Constraint(False, 0.0, classes)})
        )

    def _assign(self, f: Assign) -> Horizon:
        body = self.walk(f.body)
        rs = self.deps.reads_for(f)
        if rs is None or rs.conservative:
            return _bottom("conservative read-set (unattributable term)")
        body_rs = self.deps.reads_for(f.body)
        body_classes = (
            _dynamic_classes(body_rs) if body_rs is not None else frozenset()
        )
        term_classes = _dynamic_classes(rs) - body_classes
        if not term_classes:
            return body
        term = Horizon(
            constraints=frozenset({Constraint(False, 0.0, term_classes)})
        )
        return Horizon.union((body, term))


# ---------------------------------------------------------------------------
# Analysis result + diagnostics
# ---------------------------------------------------------------------------


@dataclass
class ValidityAnalysis:
    """Symbolic horizons of one formula tree.

    ``horizons`` is keyed by ``id(subformula)`` over the analyzed tree —
    the same keying as :class:`DepAnalysis.reads` and the incremental
    evaluator's subformula cache, so runtime consumers can stamp cached
    relations directly.
    """

    root: Formula
    deps: DepAnalysis
    horizons: dict[int, Horizon]
    root_horizon: Horizon
    diagnostics: tuple[Diagnostic, ...] = ()

    def dynamic_classes(self) -> frozenset[str]:
        """Every class whose motion events any node's horizon depends
        on — the classes :func:`class_motion_events` must scan."""
        return frozenset(
            cls
            for h in self.horizons.values()
            for c in h.constraints
            for cls in c.classes
        )

    def concretize(
        self, events: ClassEvents, t_eval: float, end: float
    ) -> dict[int, float]:
        """Per-node absolute expiry stamps for one refresh at ``t_eval``
        with remaining window ending at ``end``."""
        return {
            node_id: h.concretize(events, t_eval, end)
            for node_id, h in self.horizons.items()
        }

    def root_expiry(
        self, events: ClassEvents, t_eval: float, end: float
    ) -> float:
        """The whole condition's ``t_expire`` under a concrete event
        table."""
        return self.root_horizon.concretize(events, t_eval, end)

    def to_json(self) -> dict[str, object]:
        counts = {"bottom": 0, "constant": 0, "sliding": 0, "guarded": 0}
        for h in self.horizons.values():
            counts[h.kind] += 1
        return {
            "root": self.root_horizon.to_json(),
            "classes": sorted(self.dynamic_classes()),
            "nodes": {"total": len(self.horizons), **counts},
            "diagnostics": [d.to_json() for d in self.diagnostics],
        }


def _validity_diagnostics(
    root: Formula, horizons: dict[int, Horizon], root_horizon: Horizon
) -> tuple[Diagnostic, ...]:
    """FTL801 (finite horizon), FTL802 (constant), FTL803 (bottom).

    FTL803 fires on *maximal* bottom nodes only, mirroring FTL701."""
    diagnostics: list[Diagnostic] = []
    if root_horizon.bottom:
        pass  # the FTL803 walk below names the offending node(s)
    elif not root_horizon.constraints:
        diagnostics.append(
            make(
                "FTL802",
                "condition reads no time-varying state; its cached "
                "answer stays valid through the query's expiration "
                "horizon",
                span=root.span,
            )
        )
    else:
        classes = ", ".join(root_horizon.classes())
        diagnostics.append(
            make(
                "FTL801",
                f"condition has a {root_horizon.kind} validity horizon "
                f"driven by motion events of class(es) {classes}; cached "
                "answers are reusable until the earliest such event",
                span=root.span,
            )
        )

    def bottom_walk(f: Formula) -> None:
        h = horizons.get(id(f))
        if h is not None and h.bottom:
            diagnostics.append(
                make(
                    "FTL803",
                    f"no provable validity horizon ({h.reason}); "
                    "t_expire conservatively falls back to t_eval",
                    span=f.span,
                    subformula=f,
                )
            )
            return
        for child in _subformulas(f):
            bottom_walk(child)

    bottom_walk(root)
    return tuple(diagnostics)


def analyze_formula_validity(
    formula: Formula,
    bindings: Mapping[str, str] | None = None,
    schema: object = None,
    deps: DepAnalysis | None = None,
) -> ValidityAnalysis:
    """Compute per-node validity horizons of a bare formula.

    Pass a pre-computed ``deps`` (from the *same* tree) to reuse PR 8's
    read-sets; otherwise they are computed here.
    """
    if deps is None:
        deps = analyze_formula_deps(formula, bindings=bindings, schema=schema)
    walker = _ValidityWalker(deps)
    root_horizon = walker.walk(formula)
    diagnostics = _validity_diagnostics(formula, walker.horizons, root_horizon)
    return ValidityAnalysis(
        root=formula,
        deps=deps,
        horizons=walker.horizons,
        root_horizon=root_horizon,
        diagnostics=diagnostics,
    )


def analyze_query_validity(
    query: "FtlQuery",
    schema: object = None,
    formula: Formula | None = None,
    deps: DepAnalysis | None = None,
) -> ValidityAnalysis:
    """Compute validity horizons for a query's WHERE clause.

    ``formula`` substitutes the analyzed tree — continuous queries pass
    their plan's *ordered* tree so the per-node keys match the evaluator
    caches (same contract as :func:`analyze_query_deps`).
    """
    return analyze_formula_validity(
        formula if formula is not None else query.where,
        bindings=query.bindings,
        schema=schema,
        deps=deps,
    )


# ---------------------------------------------------------------------------
# Runtime concretization inputs
# ---------------------------------------------------------------------------


def class_motion_events(
    db: Any, classes: Iterable[str], t_eval: float, end: float
) -> dict[str, float | None]:
    """Per class, the earliest motion event strictly after ``t_eval``.

    A *motion event* is an absolute time at which some object's dynamic
    attribute changes its kinetic character: the start of a
    piecewise-linear leg (``updatetime + breakpoint``).  ``inf`` means
    no event before the horizon ``end``; ``None`` means the class
    carries a function the analysis cannot bound (non-piecewise-linear),
    which concretizes every dependent horizon to ⊥.

    The objects come from the database's motion-event index
    (:meth:`~repro.core.database.MostDatabase.motion_event_candidates`),
    kept current on every write: when no plain linear attribute of a
    class is anchored after ``t_eval``, only its objects carrying a
    non-plain function are read — usually none — instead of every
    object of the class.

    ``db`` is duck-typed as a :class:`~repro.core.database.MostDatabase`
    (``motion_event_candidates``); objects expose
    ``object_class.all_dynamic`` and ``dynamic_attribute``.
    """
    events: dict[str, float | None] = {}
    for cls in sorted(set(classes)):
        try:
            objects = db.motion_event_candidates(cls, t_eval)
        except Exception:
            events[cls] = None
            continue
        earliest = INF
        nonlinear = False
        for obj in objects:
            for attr in obj.object_class.all_dynamic:
                triple = obj.dynamic_attribute(attr)
                duration = max(end - float(triple.updatetime), 0.0)
                bps = triple.function.linear_breakpoints(duration)
                if bps is None:
                    nonlinear = True
                    break
                for rel_t, _slope in bps:
                    t_abs = float(triple.updatetime) + rel_t
                    if t_abs > t_eval:
                        earliest = min(earliest, t_abs)
                        break  # pieces are sorted ascending
            if nonlinear:
                break
        events[cls] = None if nonlinear else earliest
    return events


def update_divergence(update: Any, end: float) -> float:
    """The earliest time at which an update's new state observably
    diverges from the old within ``[update.time, end)``.

    Returns ``inf`` when old and new are provably indistinguishable over
    the whole window — e.g. a pure re-anchor "heartbeat" that restates
    the value the old motion already implied — so a refresh computed
    from the old state is still exact.  Any doubt (clock regression,
    non-piecewise-linear functions, incomparable values) returns
    ``update.time`` itself: diverges immediately, never skip.

    For piecewise-linear old/new functions the proof obligation is
    finite: both value curves are linear between the merged breakpoint
    cut points, so exact equality at every cut implies identity on the
    whole window.  Comparisons are exact (``==``); floating-point noise
    can only make the result *smaller* (a spurious early divergence),
    which costs a refresh but never soundness.
    """
    return DivergenceProbe(update, end).at(end)


def linear_divergence(
    value: Any,
    slope: Any,
    anchor: Any,
    new_value: Any,
    new_slope: Any,
    new_anchor: Any,
    t_u: float,
    ends: Sequence[float],
) -> list[float]:
    """:func:`update_divergence` at each of the ascending ``ends`` of an
    update at ``t_u`` that replaces the plain linear law ``value + slope
    * (t - anchor)`` by ``new_value + new_slope * (t - new_anchor)`` —
    the one linear verdict, read by :class:`DivergenceProbe` and by the
    update router for every record whose old and new functions are both
    exactly :class:`~repro.motion.functions.LinearFunction`.

    A single-piece law has no breakpoint after the first observable
    instant ``t0 = max(t_u, new_anchor)``, so the cuts are ``{t0, end}``:
    the verdict at ``t0`` is shared and each end costs one comparison of
    ``value + slope * (end - anchor)`` per side — :meth:`DynamicAttribute.value_at
    <repro.core.dynamic.DynamicAttribute.value_at>` in the same
    operations and the same order, so bit-identical to it.  A clock
    regression (``new_anchor`` before ``anchor``) or an anchor that is
    not a number diverges at ``t_u`` at every end; incomparable values
    diverge at ``t_u`` at every end past ``t0``.
    """
    try:
        old_ut = float(anchor)
        new_ut = float(new_anchor)
    except TypeError:
        return [t_u] * len(ends)
    if new_ut < old_ut:
        # Clock regression: the old state is not a valid baseline.
        return [t_u] * len(ends)
    t0 = max(t_u, new_ut)
    verdicts: list[float] = []
    same_t0: bool | None = None
    for end in ends:
        if end <= t0:
            verdicts.append(INF)  # the new state is never observed
            continue
        try:
            if same_t0 is None:
                same_t0 = bool(
                    value + slope * (t0 - anchor)
                    == new_value + new_slope * (t0 - new_anchor)
                )
            if same_t0 and bool(
                value + slope * (end - anchor)
                == new_value + new_slope * (end - new_anchor)
            ):
                verdicts.append(INF)
            else:
                verdicts.append(t0)
        except (TypeError, ArithmeticError):
            verdicts.append(t_u)  # incomparable values
    return verdicts


class DivergenceProbe:
    """:func:`update_divergence` of one update, for every window end up
    to ``end``.

    A commit is tested against every continuous query's own expiration
    horizon.  The update router builds the probe once per record at the
    latest of them and reads one :meth:`table` over all of them; each
    entry is exactly what the single-end test at that end would answer —
    never a clamped or re-anchored approximation.  Three verdicts, each
    implemented once:

    * **fixed** — the answer does not depend on the end (static updates,
      clock regression, incomparable triples, motion that is not
      piecewise linear);
    * **linear** — old and new both carry a plain
      :class:`~repro.motion.functions.LinearFunction` (every
      motion-vector update): :func:`linear_divergence` over the laws'
      coefficients;
    * **cuts** — every other law.  A window end enters the cut set
      itself and through the breakpoints that fall inside the window.  A
      side whose breakpoints all lie at or before ``t0`` contributes
      none at any end; a side with later breakpoints re-derives them per
      end, exactly as the single-end test does, and the old ≡ new
      comparison at each cut is shared between ends.  (Assumes, as every
      :mod:`repro.motion.functions` function satisfies, that a shorter
      window's decomposition is a prefix of a longer one's and exists
      whenever the longer one does.)
    """

    __slots__ = (
        "_old", "_new", "_t_u", "_fixed", "_t0", "_laws", "_sides", "_same"
    )

    def __init__(self, update: Any, end: float) -> None:
        t_u = float(update.time)
        old = getattr(update, "old", None)
        new = getattr(update, "new", None)
        self._old = old
        self._new = new
        self._t_u = t_u
        #: The answer for every end, when it does not depend on the end.
        self._fixed: float | None = None
        self._t0 = t_u
        #: ``(value, slope, updatetime)`` of old then new, when both are
        #: plain linear laws.
        self._laws: tuple[Any, ...] | None = None
        #: ``(anchor, function)`` of the sides with breakpoints past t0.
        self._sides: tuple[tuple[float, Any], ...] = ()
        self._same: dict[float, bool | None] = {}
        if getattr(update, "kind", "dynamic") == "static":
            try:
                self._fixed = INF if bool(old == new) else t_u
            except Exception:
                self._fixed = t_u
            return
        try:
            old_ut = float(old.updatetime)  # type: ignore[union-attr]
            new_ut = float(new.updatetime)  # type: ignore[union-attr]
            old_fn = old.function  # type: ignore[union-attr]
            new_fn = new.function  # type: ignore[union-attr]
        except (AttributeError, TypeError):
            self._fixed = t_u
            return
        if new_ut < old_ut:
            # Clock regression: the old state is not a valid baseline.
            self._fixed = t_u
            return
        if type(old_fn) is LinearFunction and type(new_fn) is LinearFunction:
            self._t0 = max(t_u, new_ut)
            try:
                self._laws = (
                    old.value,  # type: ignore[union-attr]
                    old_fn.slope,
                    old.updatetime,  # type: ignore[union-attr]
                    new.value,  # type: ignore[union-attr]
                    new_fn.slope,
                    new.updatetime,  # type: ignore[union-attr]
                )
            except AttributeError:
                pass  # no value to compare: the cuts find it incomparable
            return
        old_bps = old_fn.linear_breakpoints(max(end - old_ut, 0.0))
        new_bps = new_fn.linear_breakpoints(max(end - new_ut, 0.0))
        if old_bps is None or new_bps is None:
            self._fixed = t_u
            return
        t0 = self._t0 = max(t_u, new_ut)
        sides = []
        for anchor, fn, bps in (
            (old_ut, old_fn, old_bps),
            (new_ut, new_fn, new_bps),
        ):
            for rel_t, _slope in bps:
                if anchor + rel_t > t0:
                    sides.append((anchor, fn))
                    break
        self._sides = tuple(sides)

    def at(self, end: float) -> float:
        """``update_divergence(update, end)`` for an ``end`` no later
        than the one the probe was built at."""
        return self.table((end,))[0]

    def table(self, ends: Sequence[float]) -> list[float]:
        """``[update_divergence(update, end) for end in ends]`` for
        ascending ``ends``, none later than the one the probe was built
        at."""
        if self._fixed is not None:
            return [self._fixed] * len(ends)
        if self._laws is None:
            return [self._cut_verdict(end) for end in ends]
        return linear_divergence(*self._laws, self._t_u, ends)

    def _cut_verdict(self, end: float) -> float:
        t0 = self._t0
        if end <= t0:
            return INF  # the new state is never observed inside the window
        cuts = {t0, end}
        for anchor, fn in self._sides:
            for rel_t, _slope in fn.linear_breakpoints(max(end - anchor, 0.0)):
                t_abs = anchor + rel_t
                if t0 < t_abs < end:
                    cuts.add(t_abs)
        ordered = sorted(cuts)
        for i, cut in enumerate(ordered):
            same = self._same_at(cut)
            if same is None:
                return self._t_u
            if not same:
                return ordered[i - 1] if i > 0 else ordered[0]
        return INF

    def _same_at(self, cut: float) -> bool | None:
        """Whether old and new agree at ``cut`` (None: incomparable)."""
        if cut in self._same:
            return self._same[cut]
        same: bool | None
        try:
            same = bool(self._old.value_at(cut) == self._new.value_at(cut))
        except Exception:
            same = None
        self._same[cut] = same
        return same
