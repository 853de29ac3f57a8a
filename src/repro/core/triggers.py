"""Temporal triggers (section 2.3 of the paper).

"Observe that continuous and persistent queries can be used to define
temporal triggers.  Such a trigger is simply one of these two types of
queries, coupled with an action and possibly an event."

A :class:`TemporalTrigger` wraps a continuous or persistent query and
fires its action whenever an instantiation *enters* the answer (and
optionally when one leaves).
"""

from __future__ import annotations

from typing import Callable

from repro.core.database import MostDatabase, MostUpdate
from repro.core.queries import ContinuousQuery, PersistentQuery
from repro.errors import QueryError

Action = Callable[[tuple], None]


class TemporalTrigger:
    """Fires an action when the underlying query's answer changes.

    For a continuous query, the answer is time-dependent even without
    updates, so the trigger checks on every clock tick *and* after every
    commit the query may observe.  For a persistent query it reacts to
    the query's own change notifications.
    """

    def __init__(
        self,
        db: MostDatabase,
        query: ContinuousQuery | PersistentQuery,
        on_enter: Action,
        on_leave: Action | None = None,
    ) -> None:
        if not isinstance(query, (ContinuousQuery, PersistentQuery)):
            raise QueryError(
                "a trigger wraps a continuous or persistent query"
            )
        self.db = db
        self.query = query
        self.on_enter = on_enter
        self.on_leave = on_leave
        self.firings = 0
        self._active: set[tuple] = set(query.current())
        self._cancelled = False
        if isinstance(query, ContinuousQuery):
            db.clock.on_tick(self._check)
            self._unsub = db.on_update(self._check_update)
        else:
            query.on_change(lambda _result: self._check(db.clock.now))
            self._unsub = lambda: None
        # Fire for anything already satisfied at registration time.
        for inst in sorted(self._active, key=str):
            self.firings += 1
            self.on_enter(inst)

    # ------------------------------------------------------------------
    def _check_update(self, _commit: tuple[MostUpdate, ...]) -> None:
        # The database's query router subscribed when the first
        # continuous query registered, so it has already routed this
        # commit: a commit it did not let through to the query (unbound
        # class, unknown id, a footprint outside the read-set) provably
        # cannot change the display — skip the recheck rather than force
        # a spurious reevaluation.  The version stamp is this commit's
        # own decision, whoever else has read the query since.
        if self.query.reached_version == self.db.version:
            self._check(self.db.clock.now)

    def _check(self, _now: int) -> None:
        if self._cancelled:
            return
        current = set(self.query.current())
        for inst in sorted(current - self._active, key=str):
            self.firings += 1
            self.on_enter(inst)
        if self.on_leave is not None:
            for inst in sorted(self._active - current, key=str):
                self.on_leave(inst)
        self._active = current

    def cancel(self) -> None:
        """Detach from the clock and update stream."""
        if not self._cancelled:
            self._cancelled = True
            self.db.clock.remove_listener(self._check)
            self._unsub()
