"""Independent checkers for the enumerator's uniqueness argument.

The enumerator's duplicate-freedom rests on three facts that these helpers
state directly so tests can verify them against real runs:

* every reachable ordered history keeps its transactions in a *canonical
  order* computable from the plain history alone (:func:`canonical_order`),
* every reachable ordered history is *order-respectful*: any inversion of
  the scheduling priority is justified by a swapped read below it
  (:func:`is_or_respectful`),
* every reachable state has a unique predecessor (:func:`prev`): drop the
  last event, unless it is a swapped read, in which case deterministically
  rebuild the completion the swap tore down.

These are written against the definitions, not the enumerator's traversal,
so a traversal bug shows up as a disagreement here.  One piece is shared:
:func:`is_or_respectful` and :func:`prev` recognize a swapped read by
:func:`explorer.swapped`, which is also the swap gate's first clause.  The
gate's verdict does not depend on it: its second clause refuses every read
the first refuses (:func:`explorer.optimality`).

:func:`entry_check` applies the three at every state a walk enters; it is
what ``txndpor run --oracle-check`` and ``txndpor verify --suite oracles``
run.
"""

from __future__ import annotations

from functools import cmp_to_key

from .isolation import check_consistency
from .model import (
    INIT_TXN,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    canonical_encode,
    causal_reachable,
    causally_before_or_equal,
)
from .program import ExplorationState, Program, _next_action, apply_event, replay
from .explorer import swapped

# ---------------------------------------------------------------------------
# Canonical transaction order
# ---------------------------------------------------------------------------


def _dependencies(h: History, t: TxnId, e: EventId | None) -> list[EventId]:
    """Events anchoring ``t``'s position relative to pivot ``e``.

    All of ``t``'s own events, plus every read observing a transaction
    causally at-or-after ``t`` whose reader is causally strictly before the
    pivot's transaction (any reader, when the pivot is the virtual
    end-of-time sentinel None).
    """
    out = [ev.id for ev in h.txn(t).events]
    for read_id, writer in h.wr:
        if not causally_before_or_equal(h, t, writer):
            continue
        if e is None or causal_reachable(h, read_id.txn, e.txn):
            out.append(read_id)
    return out


def minimal_dependency(
    h: History, t: TxnId, t2: TxnId, e: EventId | None = None
) -> tuple[bool, tuple[tuple[EventId | None, EventId, EventId], ...]]:
    """Compare two causally unrelated transactions by minimal dependencies.

    Repeatedly takes the smallest dependency of each side under the current
    pivot; the first disagreement decides.  Returns whether ``t`` comes
    first, and the steps taken: each the pivot the comparison descended
    through and the two minimal dependencies found under it, the last step
    the one that differed.  Raises if the descent fails to separate the
    transactions within the history's event count (it cannot, for distinct
    transactions of a real history).
    """
    steps: list[tuple[EventId | None, EventId, EventId]] = []
    for _ in range(sum(len(log.events) for log in h.logs) + 1):
        a = min(_dependencies(h, t, e))
        a2 = min(_dependencies(h, t2, e))
        steps.append((e, a, a2))
        if a != a2:
            return a < a2, tuple(steps)
        e = a
    raise ValueError(f"minimal dependencies of {t} and {t2} never separated")


def canonical_order(h: History, t: TxnId, t2: TxnId) -> bool:
    """Whether ``t`` comes no later than ``t2`` in the canonical order.

    Causal predecessors come first; causally unrelated transactions are
    ordered by :func:`minimal_dependency`.  Reflexive.
    """
    if causally_before_or_equal(h, t, t2):
        return True
    if causally_before_or_equal(h, t2, t):
        return False
    return minimal_dependency(h, t, t2)[0]


def canonical_sort(h: History) -> OrderedHistory:
    """Arrange a history's events in canonical order, one transaction at a time."""

    def compare(a: TxnId, b: TxnId) -> int:
        if a == b:
            return 0
        return -1 if canonical_order(h, a, b) else 1

    return OrderedHistory(h, tuple(sorted(h.txn_ids, key=cmp_to_key(compare))))


# ---------------------------------------------------------------------------
# Order-respect
# ---------------------------------------------------------------------------


def is_or_respectful(
    h: OrderedHistory, static_txns: tuple[TxnId, ...] | None = None
) -> bool:
    """Whether every priority inversion in ``h`` is justified by a swap.

    For any event placed after a lower-priority event (or missing while a
    lower-priority transaction has placed events — pending transactions and,
    when ``static_txns`` lists the program's transactions, not-yet-started
    ones contribute their missing events), there must be a swapped read that
    justifies the displacement: one whose transaction is at or below the
    displaced event's priority and is causally reachable from the overtaking
    event's transaction.  At most one transaction may be pending.
    """
    hist = h.history
    if len(hist.pending_txns()) > 1:
        return False
    swapped_txns = {rid.txn for rid in hist.wr_map if swapped(h, rid)}

    def witness(later_txn: TxnId, priority_bound: TxnId) -> bool:
        return any(
            w <= priority_bound and causally_before_or_equal(hist, later_txn, w)
            for w in swapped_txns
        )

    # Each transaction's events are consecutive, so an event of ``a`` comes
    # after one of a lower-priority ``b`` exactly when ``a`` entered after
    # ``b``; an incomplete ``a`` misses events after every ``b``.
    incomplete = (*hist.pending_txns(),
                  *(t for t in static_txns or () if t != INIT_TXN and t not in hist.by_id))
    return all(
        witness(b, a)
        for i, b in enumerate(h.entered)
        for a in h.entered[i + 1 :] + incomplete
        if a < b
    )


# ---------------------------------------------------------------------------
# Unique predecessor
# ---------------------------------------------------------------------------


def max_completion(
    st: ExplorationState, bound: TxnId, level: IsolationLevel
) -> ExplorationState:
    """Deterministically finish every transaction of ``st`` below ``bound``.

    Repeatedly appends the smallest of the sessions' next actions
    (``program._next_action``) whose transaction has lower priority than
    ``bound``;
    external reads observe the highest-priority causally preceding writer
    that keeps the history consistent: writers are tried from the highest
    priority down, and the first consistent result is kept.  This
    reconstructs exactly the completion a swap deleted.
    """
    while True:
        candidates = [
            action for session, ls in enumerate(st.sessions)
            if (action := _next_action(st.program, ls, session, st.by_id)) is not None
            and action.event.id.txn < bound
        ]
        if not candidates:
            return st
        action = min(candidates, key=lambda a: a.event.id)
        event = action.event
        if not action.is_external_read:
            st = apply_event(st, event)
            continue
        hist = st.history.history
        before = hist.causal_past[event.id.txn]
        for w in reversed(hist.writers.get(event.var, ())):  # type: ignore[arg-type]
            if w in before:
                nxt = apply_event(st, event, writer=w)
                if check_consistency(nxt.history.history, level):
                    st = nxt
                    break
        else:
            raise ValueError(f"no causal writer available for {event.id}")


def prev(program: Program, h: OrderedHistory, level: IsolationLevel) -> History:
    """The unique exploration predecessor of an ordered history.

    The starting history is its own predecessor.  Otherwise, when the last
    event is not a swapped read, the predecessor simply lacks that event;
    when it is one, the predecessor is the swap's source, recovered by
    replaying the program along the order without the read and
    deterministically re-completing every transaction below its writer's
    priority (:func:`max_completion`).
    """
    last, hist = h.last_event.id, h.history
    if last.txn == INIT_TXN:  # init precedes every transaction in so: its events come first
        return hist
    if swapped(h, last):
        base = replay(program, hist, h.order[:-1])
        return max_completion(base, hist.wr_map[last], level).history.history
    # No read observes the transaction that entered last, so every check of
    # ``h`` still holds without its last event.
    i = hist.txn_ids.index(last.txn)
    log = hist.logs[i]
    kept = (TransactionLog(log.id, log.events[:-1]),) if last.index else ()
    wr = tuple(p for p in hist.wr if p[0] != last)
    return History._derived(hist.logs[:i] + kept + hist.logs[i + 1 :], wr)


# ---------------------------------------------------------------------------
# All three at every entered state
# ---------------------------------------------------------------------------


class OracleCheckError(RuntimeError):
    """An exploration state failed one of the uniqueness oracles."""


def entry_check(program: Program, level: IsolationLevel):
    """The ``entry_hook`` of :func:`explorer.explore_ce` and
    :func:`explorer.explore_ce_star` that checks the three facts above at
    every state a walk of ``program`` at ``level`` (the traversal level)
    enters.  It raises :class:`OracleCheckError` on the first that fails:
    the state is not order-respectful, its :func:`prev` is not the parent
    it was entered from, or two transactions that entered one after the
    other are out of canonical order."""
    txns = tuple(TxnId(s, i) for s, sess in enumerate(program.sessions)
                 for i in range(len(sess.txns)))

    def hook(parent: ExplorationState | None, st: ExplorationState) -> None:
        h = st.history
        if not is_or_respectful(h, txns):
            raise OracleCheckError(
                f"state is not order-respectful: {canonical_encode(h.history)!r}"
            )
        expected = (parent if parent is not None else st).history.history
        if prev(program, h, level) != expected:
            raise OracleCheckError(f"predecessor mismatch at {canonical_encode(h.history)!r}")
        for a, b in zip(h.entered, h.entered[1:]):
            if not canonical_order(h.history, a, b):
                raise OracleCheckError(
                    f"maintained order disagrees with canonical order on {a}, {b}"
                )

    return hook
