"""Exhaustive, duplicate-free enumeration of a program's histories.

:func:`explore_ce` walks the space of histories of a bounded transactional
program under a causally extensible isolation level (read committed, read
atomic, causal consistency, or TRUE) and reaches every complete consistent
history exactly once, without storing visited sets.  The traversal schedules
transactions in a fixed priority order; alternative orderings are recovered
by *swapping*: when a transaction commits, each earlier read it could have
supplied is a candidate pivot, and a gated swap rebuilds the history with
that read observing the newly committed writer, deleting everything that
causally intervened.  The optimality gate accepts exactly one route to every
history, which is what makes the enumeration duplicate-free.

A swap is built from the walk's trace, not rebuilt from the root
(:meth:`_Trace.swap`): an ordered history runs its transactions one at a
time, so no transaction but the reader is ever cut partway, and the swapped
history is the trace restricted to the transactions it keeps plus the
reader's events up to the pivot, stepped again.  The gate's queries build no
cut at all: which writer the cut would offer each affected read is a query
on the current history (:func:`reads_causally_latest`, whose docstring
proves the two agree).

:func:`explore_ce`, :func:`explore_ce_star` and :func:`dfs` walk one mutable
trace (``_Trace``), as TruSt keeps one execution graph: at most one
transaction is pending, and only the last to enter is extended, so a
depth-first walk pushes each child's event and pops it once the child's
subtree, and for a commit its swaps, are done.  The trace derives each
child's verdict from its parent's at every level: the forced closure at
the causally extensible levels TRUE, RC, RA and CC, where TRUE forces no
edge, so its closure is the causal past, and a witness order at SER and
SI.  No walk treats TRUE apart: its reads, gate and swaps run the rules of
the other extensible levels, whose premises it never meets.
:func:`explore_ce` decides each read's writers on the trace, as
:func:`valid_writes` decides them, and reads each commit's reorder
candidates from it; the gate's queries read it too.  A state is
materialized from the trace only where a caller needs one: for
``emit`` and for ``entry_hook``.  :func:`explore_ce_star` checks a
complete history at the strong level on the trace and drops that verdict
from the trace's cache once an emitted state has copied it, so a leaf it
filters out builds no state.  These states share no dict the trace
changes in place, so callers may keep them.  Each swap the gate takes is
walked on a fresh trace, which the gate builds from the walk's and
returns; no walk cuts or replays a history.

The walks and the public functions run one copy of each rule: the step
(``program._step``), the local-state update (``program._local_after``),
the candidate writers (:meth:`_Trace.committed_writers`), the reorderings
(:func:`_reorderings`) and the transactions a swap keeps (:func:`_kept`),
each over plain relations that the trace carries under :class:`History`'s
names.  What an event changes in those relations is the trace's rule alone
(``_Trace._apply``); the model's one-event edits build their results by
full validation.  A read is decided two ways, on purpose.
:func:`explore_ce`, :func:`explore_ce_star` and :func:`valid_writes` decide
it on the parent (:meth:`_Trace.children`).  :func:`dfs`, the naive
reference, never calls ``children``: it pushes each committed writer and
checks the verdict that :meth:`_Trace.push` derives, by
``isolation._forced_after``'s read rule or ``isolation._witness_after``.
``test_writers_decided_on_the_parent_match_build_then_check`` and
``test_derived_closures_agree_with_full_construction_and_brute_force``
hold the two derivations to full construction.

Every state a walk enters is the state that was checked.  A read's writer
is decided on the parent, whose reader entered last; :func:`dfs`, the
naive reference, pushes every child and checks it on the trace before it
steps the session's locals; the gate checks each history it builds.  Each
event is stepped once and no program code runs on a rejected child or
swap.  The only histories built and checked but never entered are those
the gate rejects and the extensions :func:`causal_extension_exists` tries.
A step is cheap when it repeats: the step and local-state rules run each
transaction's body from the session's ``pc`` behind bounded memos
keyed by one step's inputs (``program._action``, ``program._silent_run``,
``program._write_value``), and a log keeps its last extension
(:meth:`TransactionLog.extended`), so siblings that push the same event
share one log.  A run begins each transaction's log once
(``_Trace.begin_logs``), so every sibling, revisit and swap that begins it
extends one chain.  No memo is keyed by a history or holds a state, and
that table holds one log per transaction and dies with the run, so what a
walk retains grows only with its depth and the program's size.

Both searches follow one scheduling rule, ``_schedule``: the one pending
transaction steps on, else any session may begin.  The paper's invariant
leaves at most one pending, so which one follows from each event: the
trace sets it on every push and pop from the event itself, and a state
reads it off its history's logs.  :func:`next_event` takes the first
action and :func:`dfs` all.  Both run in one loop, ``_walk``, over an
explicit stack of per-node generators, so no run is bounded by the
interpreter's recursion limit.

:func:`explore_ce_star` runs the same traversal under a weak level but only
emits histories that also satisfy a stronger level, enumerating e.g.
serializable histories via causally consistent scheduling.

:func:`dfs` is the deliberately naive baseline used to cross-check coverage:
it branches over every action of the rule (including which session begins
next) and therefore emits the same history many times.

The public functions take and return states.  :func:`valid_writes` and
:func:`optimality`, given a state, decide, push or swap on a trace made from
it and return the trace's states.  :func:`swap` is the plain reference the
trace's swap is tested against: it cuts the state (:func:`drop_events`),
replays the program from the root along the cut and the reader's events
before the pivot (:func:`replay`), and applies the pivot
(:func:`apply_event`), each event checked against the program and each
history built by the validating constructors.
"""

from __future__ import annotations

import time
from bisect import bisect
from dataclasses import dataclass
from typing import Callable, Container, Iterable, Iterator

from .isolation import (
    EXTENSIBLE_LEVELS,
    _forced_after,
    _forced_edges_of,
    _PastDeadline,
    _read_closures,
    _read_edges,
    _verdict,
    _witness_after,
    check_consistency,
)
from .model import (
    ABORT,
    BEGIN,
    COMMIT,
    PENDING,
    READ,
    WRITE,
    Event,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    _past_with_edge,
    _so_before,
    causally_before_or_equal,
    closure_with_edges,
    drop_events,
)
from .program import (
    ExplorationState,
    LocalState,
    NextAction,
    Program,
    _action,
    _local_after,
    _step,
    apply_event,
    replay,
)


@dataclass(frozen=True)
class ReorderCandidate:
    """A read that a newly committed transaction could have supplied."""

    read: EventId
    writer: TxnId


@dataclass
class RunStats:
    """Counters reported by one exploration run."""

    outputs: int = 0
    filtered_outputs: int = 0
    recursive_calls: int = 0
    blocked_calls: int = 0
    inconsistent_branch_entries: int = 0
    swaps_taken: int = 0
    swaps_rejected: int = 0
    max_depth: int = 0
    wall_time: float = 0.0

    def as_dict(self) -> dict:
        return dict(self.__dict__)


class TimeLimitExceeded(RuntimeError):
    """Raised when a run exceeds its wall-clock budget; carries partial stats."""

    def __init__(self, stats: RunStats):
        super().__init__("time limit exceeded")
        self.stats = stats


class RunInterrupted(KeyboardInterrupt):
    """Raised when Ctrl-C stops a run; carries partial stats."""

    def __init__(self, stats: RunStats):
        super().__init__("interrupted")
        self.stats = stats


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def _schedule(st: ExplorationState) -> list[NextAction]:
    """The scheduling rule: the actions the walks may take next from ``st``.

    The one pending transaction, ``st.pending``, is driven to its next
    database event; with none, each session begins its next transaction, in
    session order; a complete run has none.  ``st`` is a state, whose
    ``pending`` is its history's one pending transaction and raises
    ValueError when more than one is open, or the walk's trace, which
    carries it.
    """
    t, sessions = st.pending, st.sessions
    if t is not None:
        return [_step(st.program, sessions[t.session], t, st.by_id[t])]
    return [
        _action(TxnId(s, ls.txn_index), 0, BEGIN)
        for s, (ls, decl) in enumerate(zip(sessions, st.program.sessions))
        if ls.txn_index < len(decl.txns)
    ]


def next_event(st: ExplorationState) -> NextAction | None:
    """The unique next event under the fixed scheduling priority: the pending
    transaction's step, else the first begin (:func:`_schedule`); or None."""
    return next(iter(_schedule(st)), None)


def valid_writes(
    st: ExplorationState, action: NextAction, level: IsolationLevel
) -> dict[TxnId, ExplorationState]:
    """The states the pending external read extends ``st`` to, by writer.

    Keys are the committed transactions the read may observe, in the order
    they entered the history; each value is ``st`` extended by the read
    observing that writer, when its history is ``level``-consistent.  The
    decision is the walk's own, on a trace made from ``st``
    (:meth:`_Trace.children`): each writer is decided on ``st``, since the
    reader entered last, and only an accepted writer's state is pushed,
    entered and materialized, its closure cached as its verdict.  At TRUE,
    which forces no edge, every writer is accepted; when ``st`` is
    inconsistent, none is.  Raises
    ``ValueError`` when ``action`` is not an external read, and at SER and
    SI, whose reads are not decided on the parent, and when the reader is
    not the transaction that entered ``st`` last, which the order forbids
    extending (:class:`OrderedHistory`).
    """
    _check_levels(level)
    if not action.is_external_read:
        raise ValueError(f"{action.event} is not an external read")
    reader, last = action.event.id.txn, st.history.entered[-1]
    if reader != last:
        raise ValueError(f"order interleaves {reader} with {last}")
    tr = _Trace(st, level)
    children = {}
    for t, reach in tr.children(action):
        tr.push(action, t, reach)
        tr.enter(action, t)
        children[t] = tr.state()
        tr.pop()
    return children


def causal_extension_exists(h: History, e: Event, level: IsolationLevel) -> bool:
    """Whether ``h`` extends consistently by ``e`` without new dependencies.

    The extending event must be the next program-order event of a pending
    transaction.  An external read may only observe transactions already
    causally before its own (session order or write-read, transitively,
    including init); all other events extend the history as-is.  Returns True
    when some such extension satisfies ``level``.
    """
    t = e.id.txn
    log = h.txn(t)
    if log.status != PENDING:
        raise ValueError(f"transaction {t} is not pending")
    if e.id.index != len(log.events):
        raise ValueError(f"event {e.id} is not the next event of {t}")
    if e.kind == READ and e.var not in log.write_set:
        return any(
            w in h.causal_past[t] and check_consistency(h.with_event(e, writer=w), level)
            for w in h.writers.get(e.var, ())  # type: ignore[arg-type]
        )
    return check_consistency(h.with_event(e), level)


# ---------------------------------------------------------------------------
# Swapping
# ---------------------------------------------------------------------------


def compute_reorderings(h: OrderedHistory) -> list[ReorderCandidate]:
    """Reads the just-committed transaction could have supplied instead.

    Empty unless the last event is a commit of some transaction ``t``.  A
    candidate is an external read ``r`` (of any log, aborted readers
    included) on a variable ``t`` writes, whose transaction is causally
    unrelated to ``t``; ``t`` entered last, so every such reader ran entirely
    before it.  Candidates come in the order of the history.  A ``t`` that
    writes nothing has none; otherwise each reader is tested by membership in
    ``t``'s causal past and each read by membership in ``t``'s write set.
    """
    if h.last_event.kind != COMMIT:
        return []
    return _reorderings(h.entered[-1], h.starts, h.history.by_id, h.history.causal_past)


def _reorderings(
    t: TxnId, starts: dict[TxnId, int], by_id: dict[TxnId, TransactionLog],
    past: dict[TxnId, frozenset[TxnId]],
) -> list[ReorderCandidate]:
    """:func:`compute_reorderings` of a history whose last event commits
    ``t``, from its entry order, logs by id and causal past."""
    write_set = by_id[t].write_set
    if not write_set:
        return []
    before = past[t]
    return [
        ReorderCandidate(read.id, t)
        for reader in starts
        if reader != t and reader not in before
        for read in by_id[reader].read_set
        if read.var in write_set
    ]


def _kept(
    starts: dict[TxnId, int], past: dict[TxnId, frozenset[TxnId]], r: EventId, t: TxnId
) -> set[TxnId]:
    """The transactions a swap of the read ``r`` toward ``t`` keeps whole,
    from the entry order ``starts`` and causal past ``past``: those that
    entered before ``r``'s reader, ``t`` and ``t``'s causal past (the first
    bullet of :func:`reads_causally_latest`)."""
    start, before_t = starts[r.txn], past[t]
    return {u for u, i in starts.items() if i < start or u == t or u in before_t}


def _rewind(sessions: list[LocalState], lost: Iterable[TxnId]) -> None:
    """Set each session that loses transactions of ``lost`` back to the
    locals its first lost one began with, from ``LocalState.begun``."""
    for tid in sorted(lost, reverse=True):  # first lost last
        begun = sessions[tid.session].begun
        sessions[tid.session] = LocalState(begun[tid.index], tid.index, begun=begun[: tid.index])


def _restricted(tr: _Trace, kept: Container[TxnId]) -> tuple:
    """The transaction ids, causal past, writer index and wr map of a
    swap's cut, from those of the walk's trace ``tr`` and the transactions
    the cut keeps; its session lists are its ids'.  Whole transactions go,
    the reader's included, and none reaches a kept one (the second bullet
    of :func:`reads_causally_latest`), so a kept transaction's past holds
    only kept ones and carries over as is."""
    ids = tuple(u for u in tr.txn_ids if u in kept)
    return (
        ids,
        {u: tr.causal_past[u] for u in ids},
        {x: ws for x, txns in tr.writers.items() if (ws := tuple(u for u in txns if u in kept))},
        {rid: w for rid, w in tr.wr_map.items() if rid.txn in kept},
    )


def _pivot(h: OrderedHistory | _Trace, r: EventId, t: TxnId) -> Event:
    """The event ``r``, which must be an external read of ``h`` whose reader
    is not causally before ``t``: a read a swap toward ``t`` can pivot on.
    ``h`` is an ordered history or the walk's trace."""
    hist = h if isinstance(h, _Trace) else h.history
    log = hist.by_id.get(r.txn)
    ev = next((e for e in log.read_set if e.id == r), None) if log else None
    if ev is None:
        raise ValueError(f"event {r} is not an external read of the history")
    if causally_before_or_equal(hist, r.txn, t):
        raise ValueError(f"reader {r.txn} is causally before {t}")
    return ev


def swap(st: ExplorationState, r: EventId, t: TxnId) -> ExplorationState:
    """Rebuild the history with read ``r`` observing transaction ``t``.

    Everything after ``r`` that is not causally before ``t`` is deleted; the
    reader keeps its events before ``r`` and moves to the end of the order
    as the unique pending transaction, where ``r`` is appended observing
    ``t``.  Other sessions keep their local state as of the cut and the
    reader is replayed along its kept events, so its remaining control flow
    is recomputed from the new value of ``r``.

    The reference the walk's swap (:meth:`_Trace.swap`) is tested against,
    built the plain way: :func:`drop_events` cuts every event of the
    transactions :func:`_kept` leaves out, the reader's whole log included,
    and refuses to orphan a kept read; :func:`replay` runs the program from
    the root along the cut's order and the reader's events before ``r``;
    and :func:`apply_event` applies the pivot.  The rebuilt history is not
    checked against any level.
    """
    h = st.history
    pivot = _pivot(h, r, t)
    kept, logs = _kept(h.starts, h.history.causal_past, r, t), h.history.by_id
    cut = drop_events(h, {ev.id for u in logs if u not in kept for ev in logs[u].events})
    reader = logs[r.txn].events
    base = replay(st.program, h.history, cut.order + tuple(ev.id for ev in reader[: r.index]))
    return apply_event(base, pivot, writer=t)


def swapped(h: OrderedHistory | _Trace, r: EventId) -> bool:
    """Whether read ``r`` sits in the position a swap leaves behind.

    True exactly when ``r`` observes a transaction that ran entirely before
    it yet outranks the reader in scheduling priority, no transaction below
    the reader's priority that causally follows the writer began at or
    before ``r`` (each runs entirely after it), and no earlier read of the
    same transaction observes a writer causally at-or-after the writer of
    ``r``.  The last condition is what separates a pivot from a read
    appended after one: when a swap happens its writer has just committed,
    so nothing the reader observed earlier can causally follow it — whereas
    reads appended behind a pivot routinely observe such transactions.
    Reads produced by plain scheduling never satisfy this; the read a swap
    pivots on always does, and the verdict is stable under extending the
    history, since the reader's earlier observations are frozen.  The query
    looks only at which causal pasts hold the writer and at the reader's wr
    edges before ``r``.  ``h`` is an ordered history or the walk's trace.
    """
    hist, starts = h if isinstance(h, _Trace) else h.history, h.starts
    if r.txn not in hist.by_id or not 0 <= r.index < len(hist.by_id[r.txn].events):
        raise ValueError(f"event {r} not in history")
    t = hist.wr_map.get(r)
    if t is None:
        return False
    reader = r.txn
    if not starts[t] < starts[reader] or not reader < t:
        return False
    past = hist.causal_past
    for other in hist.txn_ids:
        if other < reader and t in past[other] and not starts[reader] < starts[other]:
            return False
    for ev in hist.by_id[reader].events[: r.index]:
        w = hist.wr_map.get(ev.id)  # only external reads have one
        if w is not None and (w == t or t in past[w]):
            return False
    return True


def reads_causally_latest(
    h: OrderedHistory | _Trace, level: IsolationLevel, r: EventId, t: TxnId
) -> bool:
    """Whether ``r`` observes the highest-priority writer available to it.

    The history is cut back to just before ``r`` (discarding, as a swap
    would, everything from ``r`` onward not causally before ``t``); the
    candidates are the transactions causally before the reader that write
    the variable and keep the cut history consistent when ``r`` is
    re-appended reading from them.  True when ``r``'s writer in ``h`` is the
    highest-priority candidate.  ``h`` is an ordered history or the walk's
    trace; it must be ``level``-consistent and let reads observe committed
    writers only, as every state :func:`explore_ce` and :func:`dfs` enter
    does.  Raises ``ValueError`` at SER and SI, where no query on ``h``
    decides the cut.

    The cut is never built: the verdict is a query on ``h``, exact by the
    following.  Let R be the reader; a transaction the cut keeps whole is
    *kept*.

    - Only R is cut partway.  Any other transaction lies wholly before
      ``r``, and is kept, or wholly after it, and is kept iff it is
      causally at or before ``t``.
    - Nothing cut reaches a kept transaction.  R's session successors and
      readers run after it commits, so after ``r``, and none is causally
      before ``t``, or R would be; a dropped transaction causally before a
      kept one would be kept.  So every so/wr path between kept
      transactions stays among them, and a kept transaction's past in
      ``h.causal_past`` is its past in the cut.  R's causal past P in the
      cut is its direct predecessors there (its session predecessors and
      the writers of its reads before ``r``) and their pasts.  As the
      query only adds edges between kept transactions, it may close
      ``h.causal_past`` under them whole: no cycle through a cut
      transaction can close.
    - The cut is consistent.  Its forced edges are those of the kept
      reads.  A kept transaction's reads keep ``h``'s premises, and a
      writer meeting one is kept and is not R, so their edges are the
      checker's own on ``h``.  R's reads before ``r`` take
      the premise toward R in the cut: at rc the writers of R's earlier
      reads, as in ``h``; at ra R's session predecessors and the writers
      of its kept reads; at cc P.  Each lies within ``h``'s premise, so
      the cut's so, wr and forced edges are some of ``h``'s, which are
      acyclic.
    - The candidate test.  Appending ``r`` observing a ``w`` in P adds the
      wr edge (``w``, R), which changes no causality, and the forced edges
      (``t2``, ``w``) for every other writer ``t2`` of the variable in R's
      premise above.  At ra the new wr pair also puts ``w`` in the premise
      of R's kept reads, which adds (``w``, ``w_y``) for each that observes
      a ``w_y != w`` on a variable ``w`` writes.  ``w`` is accepted iff
      these edges close no cycle in the closure of the cut's graph.
    - ``r``'s own writer, when in P, is always accepted: every edge it
      adds is one of ``h``'s.  At TRUE every candidate is, as no edge is
      forced.  So the verdict is that ``r``'s writer is in P and every
      member of P above it that writes the variable is rejected: with none
      above, at once, and else by the closure of the forced edges.
    """
    _check_levels(level)
    hist = h if isinstance(h, _Trace) else h.history
    var = _pivot(h, r, t).var
    reader = r.txn
    past, current = hist.causal_past, hist.wr_map.get(r)
    earlier = [(e.var, hist.wr_map[e.id]) for e in hist.by_id[reader].read_set if e.id < r]
    # R's session predecessor, or init: its past holds R's earlier ones.
    direct = {w for _, w in earlier} | {_so_before(hist.txn_ids, reader)}
    p = direct.union(*map(past.__getitem__, direct))
    if current not in p:
        return False
    above = [w for w in p if w > current and hist.by_id[w].writes_var(var)]  # type: ignore[arg-type]
    if not above:
        return True
    kept = _kept(h.starts, past, r, t)
    reach = closure_with_edges(past, _forced_edges_of(hist, level, kept))
    # R's reads in the cut, then r observing w; at cc R's premise is P.
    return all(
        closure_with_edges(
            reach, _read_edges(level, reader, earlier + [(var, w)], hist.writers, {reader: p})
        ) is None
        for w in above
    )


def optimality(
    st: ExplorationState | _Trace, r: EventId, t: TxnId, level: IsolationLevel
) -> ExplorationState | _Trace | None:
    """The swap gate: accept the pivot only on the canonical route.

    Requires every external read the swap would delete — the reads of each
    transaction :func:`_kept` leaves out, the reader's from the pivot on —
    to be an unswapped read already observing its highest-priority writer,
    and the rebuilt history to be consistent.  Exactly one pivot
    into any given history passes this gate, which keeps the enumeration
    duplicate-free.

    Returns the swapped state ``swap(st, r, t)`` when the pivot passes, for
    the caller to enter, and None when it is rejected.  The rebuilt history
    is checked before the pivot is entered, so a rejected swap runs no code.
    Raises ``ValueError`` on the arguments :func:`swap` refuses and at a
    level :func:`explore_ce` does not walk.

    ``st`` is a state or the walk's trace.  The first two requirements are
    queries on the trace; the swap is :meth:`_Trace.swap`'s.  Given the
    walk's trace, which it leaves as it is, the gate returns the swapped
    trace; given a state, it swaps on a trace made from it and returns the
    swapped trace's state.
    """
    _check_levels(level)
    tr = st if isinstance(st, _Trace) else _Trace(st, level)
    _pivot(tr, r, t)
    kept = _kept(tr.starts, tr.causal_past, r, t)
    affected = [
        read.id
        for u in tr.starts
        if u not in kept
        for read in tr.by_id[u].read_set
        if u != r.txn or read.id >= r
    ]
    if any(swapped(tr, read_id) for read_id in affected):
        return None
    if not all(reads_causally_latest(tr, level, read_id, t) for read_id in affected):
        return None
    new = tr.swap(r, t)
    return new if new is None or st is tr else new.state()


# ---------------------------------------------------------------------------
# The trace
# ---------------------------------------------------------------------------


class _Trace:
    """One mutable state that the walks extend and undo.

    It carries what a state carries, under the names
    :class:`ExplorationState` and :class:`History` give them, so that the
    rules shared with the immutable model read it as they read those:
    ``program``, the sessions' local states ``sessions``, the logs
    ``by_id`` (keyed in entry order), ``starts``, ``wr_map``, ``txn_ids``,
    ``causal_past``, ``writers``, the one open transaction ``pending`` (or
    None), and ``consistency_cache``, which holds the verdict at
    ``level`` (``isolation._verdict``): the forced closure as each
    transaction's past at TRUE, RC, RA and CC, a witness order at SER and SI.
    ``deadline`` is the run's, a ``time.monotonic`` value or None, which
    the SER and SI searches on the trace poll.  An event edits the
    transaction that entered last, which nothing follows, so a begin or a
    read changes one entry of the causal past (``model._past_with_edge``).
    Each relation is carried once: the session lists are the sorted
    ``txn_ids``' (``model._so_before``), and where a begin starts is where
    the logs of ``by_id`` end.

    :meth:`push` applies one event and derives the verdict, :meth:`enter`
    steps the session's locals past it.  ``by_id``, ``starts``, ``wr_map``,
    ``sessions`` and ``consistency_cache`` change in place, one key each;
    the other relations are replaced by the new value the edit builds,
    never changed, so a materialized state may share them.  ``pending``
    follows from the event alone: a push sets it to the event's
    transaction, or None after a commit or an abort, and a pop to None
    before a begin, else to the event's transaction.  :meth:`pop` undoes
    the last push: the undo stack holds, per event, the event and its
    writer, the replaced log and local state, the previous ``txn_ids``,
    causal past and writer index, and the verdict, so it is never longer
    than the walk is deep.  :meth:`swap` builds a taken swap's trace
    from this one, which it leaves as it is, with the reader pending.

    ``begin_logs`` holds the run's one begin log per transaction, built on
    its first begin and shared with a swap's trace, so every begin of a
    transaction pushes one log, whose :meth:`TransactionLog.extended` slot
    carries the transaction's chain across siblings, revisits and swaps.
    It dies with the run.
    """

    def __init__(self, st: ExplorationState, level: IsolationLevel):
        h = st.history
        hist = h.history
        self.program, self.level = st.program, level
        self.sessions = list(st.sessions)
        self.by_id = {t: hist.by_id[t] for t in h.starts}
        self.starts = dict(h.starts)
        self.wr_map = dict(hist.wr_map)
        self.txn_ids = hist.txn_ids
        self.causal_past, self.writers = hist.causal_past, hist.writers
        self.after = _forced_after if level in EXTENSIBLE_LEVELS else _witness_after
        self.consistency_cache = {level: _verdict(hist, level)}
        self.pending = st.pending
        self.undo: list[tuple] = []
        self.begin_logs: dict[TxnId, TransactionLog] = {}
        self.deadline: float | None = None

    def committed_writers(self, var: str) -> list[TxnId]:
        """The committed writers of ``var`` in the order they entered:
        ``writers[var]``, when the one pending transaction reads ``var``
        externally, so has not written it, and :meth:`_apply` has removed
        the aborted writers."""
        return sorted(self.writers.get(var, ()), key=self.starts.__getitem__)

    def children(self, action: NextAction) -> list[tuple[TxnId | None, dict | None]]:
        """The (writer, forced closure) of each child ``action`` leads to:
        for an external read, by the transaction that entered last, each
        committed writer it may observe at ``level``, with the forced
        closure extended by it (:func:`isolation._read_closures`, which at
        TRUE accepts every writer with its causal past), and none when the
        trace is inconsistent; else the one child whose verdict :meth:`push`
        derives.  :func:`dfs` does not call it: it pushes every writer and
        checks the verdict :meth:`push` derives, the reference this
        decision is tested against."""
        if not action.is_external_read:
            return [(None, None)]
        if self.consistency_cache[self.level] is None:
            return []
        writers = self.committed_writers(action.event.var)  # type: ignore[arg-type]
        return [(w, reach) for w, reach in _read_closures(self, self.level, action.event, writers)
                if reach is not None]

    def push(self, action: NextAction, writer: TxnId | None = None, reach: dict | None = None):
        """Apply ``action``'s event, an external read observing ``writer``,
        set ``pending`` by it, and derive the verdict (``after``), or take
        ``reach``, the forced closure a read's decision computed."""
        event = action.event
        t, kind = event.id.txn, event.kind
        cache, level = self.consistency_cache, self.level
        self.undo.append((event, writer, self.by_id.get(t), self.sessions[t.session], self.txn_ids,
                          self.causal_past, self.writers, cache[level]))
        self.pending = None if kind == COMMIT or kind == ABORT else t
        first_write = self._apply(event, writer)
        cache[level] = reach if reach is not None else self.after(
            self, level, cache[level], event, writer, first_write
        )

    def _apply(self, event: Event, writer: TxnId | None) -> bool:
        """The edit rules: apply ``event``, an external read observing
        ``writer``, to the relations, with no undo entry and no verdict.
        Returns whether it is a first write of its variable."""
        kind, t = event.kind, event.id.txn
        old = self.by_id.get(t)
        first_write = False
        if kind == BEGIN:
            # t begins last in its session, with the run's one begin log of
            # t, built on its first begin with the relations extended()
            # carries, so every begin of t extends one chain; its past is
            # its session predecessor's (or init's) plus that transaction,
            # it goes in at its bisect position, and it starts where the
            # transaction that entered last, which is complete, ends.
            log = self.begin_logs.get(t)
            if log is None:
                log = self.begin_logs[t] = object.__new__(TransactionLog)
                log.__dict__.update(id=t, events=(event,), status=PENDING, write_set={},
                                    read_set=())
            self.causal_past = _past_with_edge(self.causal_past, _so_before(self.txn_ids, t), t)
            i = bisect(self.txn_ids, t)
            self.txn_ids = self.txn_ids[:i] + (t,) + self.txn_ids[i:]
            last = next(reversed(self.starts))
            self.starts[t] = self.starts[last] + len(self.by_id[last].events)
        else:
            log = old.extended(event)  # type: ignore[union-attr]
            if writer is not None:
                self.wr_map[event.id] = writer
                self.causal_past = _past_with_edge(self.causal_past, writer, t)
            elif kind == ABORT and old.write_set:  # type: ignore[union-attr]
                writers = self.writers = dict(self.writers)
                for var in old.write_set:  # type: ignore[union-attr]
                    if ws := tuple(u for u in writers[var] if u != t):
                        writers[var] = ws
                    else:
                        del writers[var]
            elif kind == WRITE and event.var not in old.write_set:  # type: ignore[union-attr]
                first_write = True
                ws = self.writers.get(event.var, ()) + (t,)  # type: ignore[arg-type]
                self.writers = {**self.writers, event.var: tuple(sorted(ws))}  # type: ignore[dict-item]
        self.by_id[t] = log
        return first_write

    def enter(self, action: NextAction, writer: TxnId | None = None) -> None:
        """Step the locals past the pushed ``action``, an external read
        observing ``writer`` (``_local_after`` reads only its log)."""
        s = action.event.id.txn.session
        self.sessions[s] = _local_after(self.program, self.sessions[s], action, self.by_id, writer)

    def pop(self) -> None:
        """Undo the last :meth:`push`, and :meth:`enter` if it followed."""
        (event, writer, old, ls, self.txn_ids, self.causal_past, self.writers,
         reach) = self.undo.pop()
        t = event.id.txn
        self.pending = None if event.kind == BEGIN else t
        self.sessions[t.session] = ls
        if old is None:
            del self.by_id[t], self.starts[t]
        else:
            self.by_id[t] = old
        if writer is not None:
            del self.wr_map[event.id]
        self.consistency_cache[self.level] = reach

    def swap(self, r: EventId, t: TxnId) -> "_Trace | None":
        """The trace of ``swap(self.state(), r, t)``, entered, or None when
        its history is inconsistent at ``level``; ``r`` is a read a swap
        toward ``t`` can pivot on (:func:`_pivot`).

        No transaction but the reader is cut partway, so the swap's trace is
        built from this one, left as it is, in four steps: (1) its relations
        restricted to the kept transactions, those that entered before the
        reader plus ``t`` and whatever is causally before it (:func:`_kept`,
        :func:`_restricted`); (2) each session that lost transactions
        rewound (:func:`_rewind`); (3) the reader's events before ``r``
        stepped again with their writers, by the step, edit and local-state
        rules, with no undo entry and no verdict; (4) ``r`` applied
        observing ``t`` and the history checked once, from scratch, before
        the pivot is entered, so a rejected swap runs no program code.
        """
        reader, starts = r.txn, self.starts
        kept = _kept(starts, self.causal_past, r, t)
        new = object.__new__(_Trace)
        new.program, new.level, new.after = self.program, self.level, self.after
        new.txn_ids, new.causal_past, new.writers, new.wr_map = _restricted(self, kept)
        new.by_id = {u: log for u, log in self.by_id.items() if u in kept}
        new.starts, start = {}, 0
        for u, log in new.by_id.items():
            new.starts[u], start = start, start + len(log.events)
        new.sessions = list(self.sessions)
        _rewind(new.sessions, [u for u in starts if u not in kept])
        new.consistency_cache, new.undo, new.pending = {}, [], reader
        new.begin_logs, new.deadline = self.begin_logs, self.deadline
        s = reader.session
        action = NextAction(self.by_id[reader].events[0])
        for _ in range(r.index):
            writer = self.wr_map.get(action.event.id)
            new._apply(action.event, writer)
            new.enter(action, writer)
            action = _step(new.program, new.sessions[s], reader, new.by_id[reader])
        new._apply(action.event, t)
        if not check_consistency(new, new.level):
            return None
        new.enter(action, t)
        return new

    def state(self) -> ExplorationState:
        """The state the trace stands at, sharing no dict it changes in
        place; its verdict at ``level`` cached, its entry order and
        ``starts`` carried, and its logs by id, session lists, wr map and
        per-event order left to be computed on first use."""
        logs = tuple(map(self.by_id.__getitem__, self.txn_ids))
        hist = History._derived(
            logs, tuple(sorted(self.wr_map.items())), txn_ids=self.txn_ids,
            causal_past=self.causal_past, writers=self.writers,
            consistency_cache=dict(self.consistency_cache),
        )
        h = object.__new__(OrderedHistory)
        h.__dict__.update(history=hist, entered=tuple(self.starts), starts=dict(self.starts))
        return ExplorationState(self.program, h, tuple(self.sessions))


# ---------------------------------------------------------------------------
# The enumerator
# ---------------------------------------------------------------------------

Emit = Callable[[ExplorationState], None]
EntryHook = Callable[[ExplorationState | None, ExplorationState], None]


def explore_ce(
    program: Program,
    level: IsolationLevel,
    *,
    emit: Emit | None = None,
    entry_hook: EntryHook | None = None,
    time_limit: float | None = None,
) -> RunStats:
    """Enumerate every complete ``level``-consistent history exactly once.

    Args:
        program: the bounded program to explore.
        level: a causally extensible level (RC, RA, CC or TRUE).
        emit: called once per complete history, in discovery order, with a
            state the caller may keep.
        entry_hook: called as ``entry_hook(parent, state)`` on every node
            entered, with the state it was derived from (None at the root);
            both may be kept.
        time_limit: wall-clock budget in seconds; exceeding it raises
            :class:`TimeLimitExceeded` carrying the partial stats.

    Returns:
        The run's counters.
    """
    _check_levels(level)
    return _explore(program, level, None, emit, entry_hook, time_limit)


def explore_ce_star(
    program: Program,
    weak: IsolationLevel,
    strong: IsolationLevel,
    *,
    emit: Emit | None = None,
    entry_hook: EntryHook | None = None,
    time_limit: float | None = None,
) -> RunStats:
    """Enumerate ``strong``-consistent histories via a ``weak`` traversal.

    The walk is the same as :func:`explore_ce` under ``weak``; complete
    histories failing ``strong`` are counted as filtered instead of emitted.
    ``strong`` must be at least as strong as ``weak``.
    """
    _check_levels(weak, strong)
    return _explore(program, weak, strong, emit, entry_hook, time_limit)


def _check_levels(weak: IsolationLevel, strong: IsolationLevel | None = None) -> None:
    """Raise ``ValueError`` unless :func:`explore_ce` may walk at ``weak``,
    or :func:`explore_ce_star` may walk at ``weak`` and emit at
    ``strong``."""
    if weak not in EXTENSIBLE_LEVELS:
        hint = "; use dfs instead" if strong is None else ""
        raise ValueError(f"{weak.value} is not causally extensible{hint}")
    if strong is not None and not strong.at_least(weak):
        raise ValueError(f"{strong.value} is weaker than the traversal level {weak.value}")


def _walk(
    root: tuple,
    successors: Callable[..., Iterator[tuple]],
    stats: RunStats,
    time_limit: float | None,
) -> RunStats:
    """Depth-first search from the node ``root`` over a stack of one
    generator per open node: ``successors(*node)`` does the node's work,
    then yields its children's nodes.  A node's depth is the stack's height
    when it is yielded; only this loop counts nodes and turns Ctrl-C into
    :class:`RunInterrupted`.  The time is checked here, at each node, and
    inside the SER and SI searches, which read the deadline off the trace
    ``root[0]`` and the swaps' traces built from it."""
    if time_limit is not None and not time_limit >= 0:  # NaN too
        raise ValueError(f"time_limit must be a number of seconds >= 0, not {time_limit}")
    start = time.monotonic()
    deadline = root[0].deadline = None if time_limit is None else start + time_limit
    stack: list[Iterator[tuple]] = [iter([root])]
    try:
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            stats.recursive_calls += 1
            stats.max_depth = max(stats.max_depth, len(stack))
            if deadline is not None and time.monotonic() > deadline:
                raise TimeLimitExceeded(stats)
            stack.append(successors(*node))
    except _PastDeadline:
        raise TimeLimitExceeded(stats) from None
    except KeyboardInterrupt:
        raise RunInterrupted(stats) from None
    finally:
        stats.wall_time = time.monotonic() - start
    return stats


def _explore(
    program: Program,
    weak: IsolationLevel,
    strong: IsolationLevel | None,
    emit: Emit | None,
    entry_hook: EntryHook | None,
    time_limit: float | None,
) -> RunStats:
    stats = RunStats()

    # A node is (trace, parent, state): the trace stands at the node, whose
    # state is materialized for the entry hook, else None.  A swap's node
    # stands on the trace the gate built for it.
    def successors(
        tr: _Trace, parent: ExplorationState | None, st: ExplorationState | None
    ) -> Iterator[tuple]:
        if not check_consistency(tr, weak):
            stats.inconsistent_branch_entries += 1
        if entry_hook is not None:
            entry_hook(parent, st)
        action = next_event(tr)
        if action is None:
            if strong is None or check_consistency(tr, strong):
                stats.outputs += 1
                if emit is not None:
                    emit(tr.state() if st is None else st)
            else:
                stats.filtered_outputs += 1
            if strong not in (None, weak):  # the trace caches weak alone
                tr.consistency_cache.pop(strong, None)
            return
        children = tr.children(action)
        if not children:
            stats.blocked_calls += 1
            return
        for writer, reach in children:
            tr.push(action, writer, reach)
            tr.enter(action, writer)
            child = None if entry_hook is None else tr.state()
            yield tr, st, child
            if action.event.kind == COMMIT:  # only a commit has candidates
                t = action.event.id.txn
                for cand in _reorderings(t, tr.starts, tr.by_id, tr.causal_past):
                    swapped_tr = optimality(tr, cand.read, cand.writer, weak)
                    if swapped_tr is None:
                        stats.swaps_rejected += 1
                    else:
                        stats.swaps_taken += 1
                        yield swapped_tr, child, None if entry_hook is None else swapped_tr.state()
            tr.pop()

    initial = ExplorationState.initial(program)
    return _walk((_Trace(initial, weak), None, initial), successors, stats, time_limit)


# ---------------------------------------------------------------------------
# Naive baseline
# ---------------------------------------------------------------------------


def dfs(
    program: Program,
    level: IsolationLevel,
    *,
    emit: Emit | None = None,
    time_limit: float | None = None,
) -> RunStats:
    """Enumerate complete histories by branching over every scheduling choice.

    Branches over every action of the scheduling rule (each session's next
    begin when none is open) and over every consistent writer for each
    external read, gating every single extension on consistency (necessary
    for SI and SER, where writes can be the blocking step).  Each extension
    is pushed on the walk's trace and checked there, from the verdict the
    trace derives, and entered only when it passes.  The same history is
    reached along many interleavings, so emissions contain duplicates;
    callers deduplicate by encoding.  ``emit`` gets a state the caller may
    keep.  Works at every isolation level.
    """
    stats = RunStats()

    def successors(tr: _Trace) -> Iterator[tuple]:
        actions = list(_schedule(tr))
        if not actions:
            stats.outputs += 1
            if emit is not None:
                emit(tr.state())
            return
        blocked = True
        for a in actions:
            var = a.event.var if a.is_external_read else None
            for w in [None] if var is None else tr.committed_writers(var):
                tr.push(a, w)
                # Checked here, on the trace, so traced runs count them under dfs.
                if check_consistency(tr, level):
                    blocked = False
                    tr.enter(a, w)
                    yield (tr,)
                tr.pop()
        if blocked:
            stats.blocked_calls += 1

    root = _Trace(ExplorationState.initial(program), level)
    return _walk((root,), successors, stats, time_limit)
