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

A swap cuts the current state instead of rebuilding it from the root (see
:func:`_swap_base`); transactions run one at a time, so no transaction but
the reader is ever cut partway.  The gate builds no cut at all: which writer
the cut would offer each affected read is a query on the current history
(:func:`reads_causally_latest`, whose docstring proves the two agree).

Every state the traversal enters is the state that was checked:
:func:`valid_writes`, :func:`dfs` and the gate check each extended history and
pass those that hold, with the action the walk stepped, to ``advance``, so
each event is stepped once and no program code runs on a rejected child or
swap.  The only histories checked but never entered are the extensions
:func:`causal_extension_exists` tries.

Both searches follow one scheduling rule read from the session states,
``_schedule``: the open transaction steps on, else any session may begin;
:func:`next_event` takes the first action and :func:`dfs` all.  Both run in
one loop, ``_walk``, over an explicit stack of per-node generators, so no
run is bounded by the interpreter's recursion limit.

:func:`explore_ce_star` runs the same traversal under a weak level but only
emits histories that also satisfy a stronger level, enumerating e.g.
serializable histories via causally consistent scheduling.

:func:`dfs` is the deliberately naive baseline used to cross-check coverage:
it branches over every action of the rule (including which session begins
next) and therefore emits the same history many times.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

from .isolation import _forced_edges_of, check_consistency
from .model import (
    COMMIT,
    COMMITTED,
    INIT_TXN,
    PENDING,
    READ,
    Event,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TxnId,
    begin_event,
    causally_before_or_equal,
    closure_with_edges,
    drop_events,
)
from .program import (
    ExplorationState,
    LocalState,
    NextAction,
    Program,
    advance,
    apply_event,
    replay,
    step_local,
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


def _schedule(st: ExplorationState) -> Iterator[NextAction]:
    """The scheduling rule: the actions the walks may take next from ``st``.

    The open transaction, read from the session states, is driven to its
    next database event; with none open, each session begins its next
    transaction, in session order; a complete run yields nothing.  Raises
    ValueError when more than one transaction is open.
    """
    pending = tuple(TxnId(s, ls.txn_index) for s, ls in enumerate(st.sessions) if ls.in_txn)
    if len(pending) > 1:
        raise ValueError(f"multiple pending transactions: {pending}")
    if pending:
        yield step_local(st, pending[0].session)
        return
    for session in range(len(st.sessions)):
        tid = st.next_unstarted_txn(session)
        if tid is not None:
            yield NextAction(begin_event(tid))


def next_event(st: ExplorationState) -> NextAction | None:
    """The unique next event under the fixed scheduling priority: the first
    action of :func:`_schedule`, or None when the run is complete."""
    return next(_schedule(st), None)


def _extensions(
    st: ExplorationState, action: NextAction
) -> Iterator[tuple[TxnId | None, OrderedHistory]]:
    """``st``'s history extended by ``action``'s event, with its writer: an
    external read observing each committed transaction that writes its
    variable, in the order they entered; any other event with no writer."""
    event = action.event
    if not action.is_external_read:
        yield None, st.history.append(event)
        return
    hist = st.history.history
    for t in st.history.txn_spans:  # keyed in the order transactions entered
        log = hist.txn(t)
        if log.status == COMMITTED and log.writes_var(event.var):  # type: ignore[arg-type]
            yield t, st.history.append(event, writer=t)


def valid_writes(
    st: ExplorationState, action: NextAction, level: IsolationLevel
) -> dict[TxnId, ExplorationState]:
    """The states the pending external read extends ``st`` to, by writer.

    Keys are the committed transactions the read may observe, in the order
    they entered the history; each value is ``st`` extended by the read
    observing that writer, built only when its history is ``level``-consistent.
    Raises ``ValueError`` when ``action`` is not an external read.
    """
    if not action.is_external_read:
        raise ValueError(f"{action.event} is not an external read")
    return {
        t: advance(st, action, t, h)
        for t, h in _extensions(st, action)
        if check_consistency(h.history, level)
    }


# The levels at which every reachable history extends by its next event
# (see causal_extension_exists); explore_ce runs only under these.
EXTENSIBLE_LEVELS = (
    IsolationLevel.TRUE,
    IsolationLevel.RC,
    IsolationLevel.RA,
    IsolationLevel.CC,
)


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
            t in h.causal_closure[w] and check_consistency(h.with_event(e, writer=w), level)
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
    included) on a variable ``t`` writes, whose transaction ran entirely
    before ``t`` and is causally unrelated to it.
    """
    if h.last_event.kind != COMMIT:
        return []
    t = h.order[-1].txn
    hist = h.history
    tlog = hist.txn(t)
    out = []
    for read in hist.external_reads():
        reader = read.id.txn
        if reader == t or not tlog.writes_var(read.var):  # type: ignore[arg-type]
            continue
        if not h.txn_before_txn(reader, t):
            continue
        if causally_before_or_equal(hist, reader, t):
            continue
        out.append(ReorderCandidate(read.id, t))
    out.sort(key=lambda c: h.position[c.read])
    return out


def _swap_drop_set(h: OrderedHistory, r: EventId, t: TxnId) -> set[EventId]:
    """Events strictly after ``r`` whose transaction is not causally before ``t``."""
    after = h.order[h.position[r] + 1 :]
    return {eid for eid in after if not causally_before_or_equal(h.history, eid.txn, t)}


def _swap_base(st: ExplorationState, r: EventId, dropped: set[EventId]) -> ExplorationState:
    """``st`` cut back to what a swap on ``r`` keeps, up to just before ``r``.

    The history loses ``dropped`` and the whole reader; each session that
    lost transactions goes back to the locals its first lost one began
    with, and only the reader's events before ``r`` are replayed on top.
    Kept events keep their writers and so their values; only the pivot,
    appended next, can bring in a new one."""
    h = st.history
    reader = h.history.txn(r.txn)
    cut = drop_events(h, dropped | {ev.id for ev in reader.events})
    sessions = list(st.sessions)
    for tid in sorted({eid.txn for eid in dropped} | {r.txn}, reverse=True):  # first lost last
        assert tid not in cut.history.by_id, f"swap cuts {tid} partway"
        begun = sessions[tid.session].begun
        sessions[tid.session] = LocalState(begun[tid.index], tid.index, begun=begun[: tid.index])
    base = ExplorationState(st.program, cut, tuple(sessions))
    return replay(st.program, h.history, [ev.id for ev in reader.events[: r.index]], base)


def _external_read(h: OrderedHistory, r: EventId) -> Event:
    """The event ``r``, which must be an external read of ``h``."""
    ev = h.history.event(r) if r in h.position else None
    if ev is None or ev not in h.history.txn(r.txn).read_set:
        raise ValueError(f"event {r} is not an external read of the history")
    return ev


def swap(st: ExplorationState, r: EventId, t: TxnId) -> ExplorationState:
    """Rebuild the history with read ``r`` observing transaction ``t``.

    Everything after ``r`` that is not causally before ``t`` is deleted; the
    reader keeps its events before ``r`` and moves to the end of the order
    as the unique pending transaction, where ``r`` is appended observing
    ``t``.  Other sessions keep their local state as of the cut and the
    reader is replayed along its kept events, so its remaining control flow
    is recomputed from the new value of ``r``.
    """
    h = st.history
    pivot = _external_read(h, r)
    if causally_before_or_equal(h.history, r.txn, t):
        raise ValueError(f"reader {r.txn} is causally before {t}")
    base = _swap_base(st, r, _swap_drop_set(h, r, t))
    return apply_event(base, pivot, writer=t)


def swapped(h: OrderedHistory, r: EventId) -> bool:
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
    looks only at the writer's causal successors and the reader's wr edges
    before ``r``.
    """
    if r not in h.position:
        raise ValueError(f"event {r} not in history")
    hist = h.history
    t = hist.wr_map.get(r)
    if t is None:
        return False
    reader = r.txn
    if not h.txn_before_event(t, r) or not reader < t:
        return False
    after_t = hist.causal_closure[t]
    for other in after_t:
        if other < reader and not h.event_before_txn(r, other):
            return False
    for ev in hist.by_id[reader].events[: r.index]:
        w = hist.wr_map.get(ev.id)  # only external reads have one
        if w == t or w in after_t:
            return False
    return True


def reads_causally_latest(
    h: OrderedHistory, level: IsolationLevel, r: EventId, t: TxnId
) -> bool:
    """Whether ``r`` observes the highest-priority writer available to it.

    The history is cut back to just before ``r`` (discarding, as a swap
    would, everything from ``r`` onward not causally before ``t``); the
    candidates are the transactions causally before the reader that write
    the variable and keep the cut history consistent when ``r`` is
    re-appended reading from them.  True when ``r``'s writer in ``h`` is the
    highest-priority candidate.  ``h`` must be ``level``-consistent, run
    its transactions one at a time and let reads observe committed writers
    only, as every state :func:`explore_ce` and :func:`dfs` enter does.

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
      transactions stays among them, and ``h.causal_closure`` restricted
      to them is the cut's causality, except toward R: R's causal past P
      in the cut is its session predecessors, the writers of its reads
      before ``r`` and whatever reaches those.  As the query only adds
      edges between kept transactions, it may close ``h.causal_closure``
      under them whole: no cycle through a cut transaction can close.
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
      adds is one of ``h``'s.  At TRUE every candidate is.  So the verdict
      is that ``r``'s writer is in P and every member of P above it that
      writes the variable is rejected.
    """
    hist = h.history
    var = _external_read(h, r).var
    reader = r.txn
    if causally_before_or_equal(hist, reader, t):
        raise ValueError(f"reader {reader} is causally before {t}")
    closure, current = hist.causal_closure, hist.wr_map.get(r)
    earlier = [(e.id, hist.wr_map[e.id]) for e in hist.by_id[reader].read_set if e.id < r]
    same = hist.sessions[reader.session]
    direct = {w for _, w in earlier} | {INIT_TXN, *same[: same.index(reader)]}
    past = direct | {u for u in hist.txn_ids if not closure[u].isdisjoint(direct)}
    if current not in past:
        return False
    above = [w for w in past if w > current and hist.by_id[w].writes_var(var)]  # type: ignore[arg-type]
    if not above or level is IsolationLevel.TRUE:
        return not above
    kept = {
        u for u in hist.txn_ids
        if u != reader and (h.txn_before_event(u, r) or causally_before_or_equal(hist, u, t))
    }
    reach = closure_with_edges(closure, _forced_edges_of(hist, level, kept, hist.writers))

    def closes_cycle(w: TxnId) -> bool:
        """Whether R's reads in the cut and then ``r`` observing ``w`` force a cycle."""
        edges: list[tuple[TxnId, TxnId]] = []
        seen: set[TxnId] = set()
        fixed = direct | {w} if level is IsolationLevel.RA else past
        for rid, observed in earlier + [(r, w)]:
            before = seen if level is IsolationLevel.RC else fixed
            y = hist.event(rid).var
            edges += [
                (t2, observed) for t2 in before
                if t2 != observed and hist.by_id[t2].writes_var(y)  # type: ignore[arg-type]
            ]
            seen.add(observed)
        return closure_with_edges(reach, edges) is None

    return all(closes_cycle(w) for w in above)


def optimality(
    st: ExplorationState, r: EventId, t: TxnId, level: IsolationLevel
) -> ExplorationState | None:
    """The swap gate: accept the pivot only on the canonical route.

    Requires every external read the swap would delete — and the pivot
    itself — to be an unswapped read already observing its highest-priority
    writer, and the rebuilt history to be consistent.  Exactly one pivot
    into any given history passes this gate, which keeps the enumeration
    duplicate-free.

    Returns the swapped state ``swap(st, r, t)`` when the pivot passes, for
    the caller to enter, and None when it is rejected.  The rebuilt history
    is checked before the pivot is applied, so a rejected swap runs no code.
    """
    h = st.history
    dropset = _swap_drop_set(h, r, t)
    affected = [
        read.id
        for read in h.history.external_reads()
        if read.id == r or read.id in dropset
    ]
    affected.sort(key=lambda eid: h.position[eid])
    if any(swapped(h, read_id) for read_id in affected):
        return None
    if not all(reads_causally_latest(h, level, read_id, t) for read_id in affected):
        return None
    base = _swap_base(st, r, dropset)
    pivot = step_local(base, r.txn.session)
    rebuilt = base.history.append(pivot.event, writer=t)
    if not check_consistency(rebuilt.history, level):
        return None
    return advance(base, pivot, t, rebuilt)


# ---------------------------------------------------------------------------
# The enumerator
# ---------------------------------------------------------------------------

Emit = Callable[[ExplorationState], None]
EntryHook = Callable[[ExplorationState | None, ExplorationState], None]
# A node to enter and the state it was derived from (None at the root).
Node = tuple[ExplorationState, ExplorationState | None]


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
        emit: called once per complete history, in discovery order.
        entry_hook: called as ``entry_hook(parent, state)`` on every node
            entered, with the state it was derived from (None at the root).
        time_limit: wall-clock budget in seconds; exceeding it raises
            :class:`TimeLimitExceeded` carrying the partial stats.

    Returns:
        The run's counters.
    """
    if level not in EXTENSIBLE_LEVELS:
        raise ValueError(f"{level.value} is not causally extensible; use dfs instead")
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
    if weak not in EXTENSIBLE_LEVELS:
        raise ValueError(f"{weak.value} is not causally extensible")
    if not strong.at_least(weak):
        raise ValueError(
            f"{strong.value} is weaker than the traversal level {weak.value}"
        )
    return _explore(program, weak, strong, emit, entry_hook, time_limit)


def _walk(
    root: ExplorationState,
    successors: Callable[[ExplorationState, ExplorationState | None], Iterator[Node]],
    stats: RunStats,
    time_limit: float | None,
) -> RunStats:
    """Depth-first search from ``root`` over a stack of one generator per
    open node: ``successors(st, parent)`` does the node's work, then yields
    its children as ``(child, st)``.  A node's depth is the stack's height
    when it is yielded; only this loop counts nodes, checks the time and
    turns Ctrl-C into :class:`RunInterrupted`."""
    if time_limit is not None and not time_limit >= 0:  # NaN too
        raise ValueError(f"time_limit must be a number of seconds >= 0, not {time_limit}")
    start = time.monotonic()
    stack: list[Iterator[Node]] = [iter([(root, None)])]
    try:
        while stack:
            node = next(stack[-1], None)
            if node is None:
                stack.pop()
                continue
            stats.recursive_calls += 1
            stats.max_depth = max(stats.max_depth, len(stack))
            if time_limit is not None and time.monotonic() - start > time_limit:
                raise TimeLimitExceeded(stats)
            stack.append(successors(*node))
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

    def successors(st: ExplorationState, parent: ExplorationState | None) -> Iterator[Node]:
        if not check_consistency(st.history.history, weak):
            stats.inconsistent_branch_entries += 1
        if entry_hook is not None:
            entry_hook(parent, st)
        action = next_event(st)
        if action is None:
            if strong is None or check_consistency(st.history.history, strong):
                stats.outputs += 1
                if emit is not None:
                    emit(st)
            else:
                stats.filtered_outputs += 1
            return
        if action.is_external_read:
            children = list(valid_writes(st, action, weak).values())
            if not children:
                stats.blocked_calls += 1
                return
        else:
            children = [advance(st, action)]
        for child in children:
            yield child, st
            for cand in compute_reorderings(child.history):
                swapped_st = optimality(child, cand.read, cand.writer, weak)
                if swapped_st is None:
                    stats.swaps_rejected += 1
                else:
                    stats.swaps_taken += 1
                    yield swapped_st, child

    return _walk(ExplorationState.initial(program), successors, stats, time_limit)


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
    for SI and SER, where writes can be the blocking step).  The same
    history is reached along many interleavings, so emissions contain
    duplicates; callers deduplicate by encoding.
    Works at every isolation level.
    """
    stats = RunStats()

    def successors(st: ExplorationState, parent: ExplorationState | None) -> Iterator[Node]:
        actions = list(_schedule(st))
        if not actions:
            stats.outputs += 1
            if emit is not None:
                emit(st)
            return
        # Checked here, not in valid_writes, so traced runs count them under dfs.
        children = [
            advance(st, action, writer, h)
            for action in actions
            for writer, h in _extensions(st, action)
            if check_consistency(h.history, level)
        ]
        if not children:
            stats.blocked_calls += 1
        for child in children:
            yield child, st

    return _walk(ExplorationState.initial(program), successors, stats, time_limit)
