"""History data model: events, transaction logs, histories, ordered histories.

A history abstracts one execution's database interaction: a set of transaction
logs together with a session order (derived from positional transaction ids)
and a write-read relation mapping each external read to the transaction whose
write it observes.  An ordered history additionally carries the order in which
its transactions entered during exploration, an order extending so union wr.
Transactions enter one at a time and only the last to enter is extended, so
the total order of events is derived, not stored: each transaction's events
consecutively and in program order, in entry order
(:attr:`OrderedHistory.order`).

Typical construction goes through :class:`OrderedHistory`::

    h = OrderedHistory.initial(("x", "y"))
    h = h.append(begin_event(TxnId(0, 0)))
    h = h.append(read_event(TxnId(0, 0), 1, "x"), writer=INIT_TXN)

All values are immutable; mutation happens by producing new values.

Full validation runs wherever a history is built: ``History(...)``,
``OrderedHistory(...)``, :func:`canonical_decode` and the one-event edits
(:meth:`History.with_begin`, :meth:`History.with_event`,
:meth:`OrderedHistory.append`).  An edit first refuses, with its own message,
what no valid history continues with: a begin of a transaction that already
began, an event that is not the next of its transaction, a writer on an event
other than a read, and, in :meth:`OrderedHistory.append`, an event of a
transaction other than the last to enter.  It then builds its result by the
validating constructors, which raise for anything else.  The explorer's
walks edit no value: they run on a mutable trace (``explorer._Trace``),
which applies each event's relation changes in place and materializes
histories only where a caller needs one, by :meth:`History._derived`.
:func:`drop_events` refuses, with its own message, a cut that orphans a
surviving read, then builds its result by the validating constructors too.
Lazy relations fill by :class:`lazy_property`, which takes no lock.

:func:`canonical_encode` writes the bytes of ``json.dumps(..., sort_keys=True,
separators=(",", ":"))`` without calling it, from fragments of the immutable
values emitted histories share: each event and each log caches its own, and
bounded memos hold the ``so`` part per tuple of transaction ids and each
``wr`` edge.  Keys are written in sorted order and variables escaped by ``json``'s
ASCII escaper; an event's variable is a ``str`` and its value an ``int``.
"""

from __future__ import annotations

import json
from bisect import bisect, bisect_left
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, NamedTuple


class lazy_property:
    """``functools.cached_property`` without its lock: the first read stores
    ``func(instance)`` in the instance's ``__dict__``, where later reads find
    it before this non-data descriptor.  Up to Python 3.11 the functools one
    takes a class-wide lock on every fill; nothing here runs threads."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


# ---------------------------------------------------------------------------
# Identifiers
# ---------------------------------------------------------------------------


class TxnId(NamedTuple):
    """Positional transaction identity: (session, index within session).

    The tuple ordering doubles as the oracle order used by the scheduler:
    sessions in declaration order, transactions in session order, with the
    init transaction (session -1) before everything.
    """

    session: int
    index: int


class EventId(NamedTuple):
    """Positional event identity: (transaction, position in program order).

    Identity is structural, so the same program event compares equal across
    exploration branches.  Tuple ordering is the event-level oracle order.
    """

    txn: TxnId
    index: int


INIT_TXN = TxnId(-1, 0)

# Event kinds.
BEGIN = "begin"
READ = "read"
WRITE = "write"
COMMIT = "commit"
ABORT = "abort"

_KINDS = (BEGIN, READ, WRITE, COMMIT, ABORT)

# Transaction statuses.
PENDING = "pending"
COMMITTED = "committed"
ABORTED = "aborted"


# ---------------------------------------------------------------------------
# Events and transaction logs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One database action: begin/read/write/commit/abort.

    A read or write carries exactly one variable, a ``str``; a write also
    carries the (already evaluated) value, an ``int`` and no ``bool``.  These
    are the types :func:`canonical_decode` accepts, so every event's
    encoding reads back.
    """

    id: EventId
    kind: str
    var: str | None = None
    value: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")
        if self.kind in (BEGIN, COMMIT, ABORT):
            if self.var is not None or self.value is not None:
                raise ValueError(f"{self.kind} events carry no variable")
        elif self.kind == READ:
            if self.var is None or self.value is not None:
                raise ValueError("read events carry a variable and no value")
        else:  # WRITE
            if self.var is None or self.value is None:
                raise ValueError("write events carry a variable and a value")
            _typed(self.value, int, "a value")
        if self.var is not None:
            _typed(self.var, str, "a variable")

    @lazy_property
    def fragment(self) -> str:
        """This event's object in :func:`canonical_encode`, built on first
        use with its keys in sorted order."""
        head = f'{{"index":{self.id.index},"kind":"{self.kind}"'
        if self.kind == WRITE:
            return f'{head},"value":{self.value},"var":{encode_basestring_ascii(self.var)}}}'
        if self.kind == READ:
            return f'{head},"var":{encode_basestring_ascii(self.var)}}}'
        return head + "}"


def begin_event(txn: TxnId) -> Event:
    return Event(EventId(txn, 0), BEGIN)


def read_event(txn: TxnId, index: int, var: str) -> Event:
    return Event(EventId(txn, index), READ, var=var)


def write_event(txn: TxnId, index: int, var: str, value: int) -> Event:
    return Event(EventId(txn, index), WRITE, var=var, value=value)


def commit_event(txn: TxnId, index: int) -> Event:
    return Event(EventId(txn, index), COMMIT)


def abort_event(txn: TxnId, index: int) -> Event:
    return Event(EventId(txn, index), ABORT)


@dataclass(frozen=True)
class TransactionLog:
    """A transaction's events in program order.

    The first event is always Begin; a Commit or Abort, if present, is last
    and unique.  The event sequence *is* the program order.
    """

    id: TxnId
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if not self.events:
            raise ValueError(f"transaction {self.id} has no events")
        if self.events[0].kind != BEGIN:
            raise ValueError(f"transaction {self.id} does not start with begin")
        for pos, ev in enumerate(self.events):
            if ev.id != EventId(self.id, pos):
                raise ValueError(
                    f"event {ev.id} at position {pos} of transaction {self.id}"
                )
            if ev.kind == BEGIN and pos != 0:
                raise ValueError(f"transaction {self.id} has a non-initial begin")
            if ev.kind in (COMMIT, ABORT) and pos != len(self.events) - 1:
                raise ValueError(f"transaction {self.id} continues past {ev.kind}")

    @lazy_property
    def status(self) -> str:
        last = self.events[-1].kind
        if last == COMMIT:
            return COMMITTED
        if last == ABORT:
            return ABORTED
        return PENDING

    @lazy_property
    def read_set(self) -> tuple[Event, ...]:
        """External reads: reads with no program-order-earlier same-variable write."""
        out = []
        written: set[str] = set()
        for ev in self.events:
            if ev.kind == READ and ev.var not in written:
                out.append(ev)
            elif ev.kind == WRITE:
                written.add(ev.var)  # type: ignore[arg-type]
        return tuple(out)

    @lazy_property
    def write_set(self) -> dict[str, Event]:
        """Last write per variable; empty for aborted transactions."""
        if self.status == ABORTED:
            return {}
        out: dict[str, Event] = {}
        for ev in self.events:
            if ev.kind == WRITE:
                out[ev.var] = ev  # type: ignore[index]
        return out

    @lazy_property
    def fragment(self) -> str:
        """This log's object in :func:`canonical_encode`, built on first use
        from its events' fragments."""
        events = ",".join(ev.fragment for ev in self.events)
        return (f'{{"events":[{events}],"id":[{self.id.session},{self.id.index}],'
                f'"status":"{self.status}"}}')

    def extended(self, event: Event) -> "TransactionLog":
        """This log plus ``event``, with ``status``, ``write_set`` and
        ``read_set`` carried over and updated by the one event.

        Checks in O(1) what the event can break: that this log is pending and
        that ``event`` is its next event and no begin.  Any other input goes
        through the validating constructor, which raises its usual message.

        The log keeps its last extension, ``(event, log)``, outside its
        fields, so ``==``, ``hash`` and ``repr`` ignore it, and returns that
        log again when ``event`` *is* the same object: a sibling that takes
        the same hash-consed event (``program._action``) shares one log, with
        the relations and ``fragment`` cached on it.  A hit is what a miss
        builds, since the result depends only on this log and the event; an
        equal but distinct event misses and replaces the entry.  Each log
        holds at most one extension, and that one at most one of its own, so
        a log the walk keeps reaches at most one further log per position
        left in its transaction.  The one table outside the logs is a run's
        begin logs (``explorer._Trace.begin_logs``), one per transaction
        the run begins, each the head of one chain: the logs a run retains
        stay O(depth × transaction length + program size).
        """
        last = self.__dict__.get("_extension")
        if last is not None and last[0] is event:
            return last[1]
        kind, eid = event.kind, event.id
        if (self.status != PENDING or kind == BEGIN
                or eid.index != len(self.events) or eid.txn != self.id):
            return TransactionLog(self.id, self.events + (event,))
        write_set = self.write_set
        read_set = self.read_set
        if kind == ABORT:
            write_set = {}
        elif kind == WRITE:
            write_set = {**write_set, event.var: event}
        elif kind == READ and event.var not in write_set:
            read_set += (event,)
        log = object.__new__(TransactionLog)
        log.__dict__.update(
            id=self.id, events=self.events + (event,), write_set=write_set,
            read_set=read_set,
            status=COMMITTED if kind == COMMIT else ABORTED if kind == ABORT else PENDING,
        )
        self.__dict__["_extension"] = (event, log)
        return log

    def writes_var(self, var: str) -> bool:
        return var in self.write_set


# ---------------------------------------------------------------------------
# Isolation levels
# ---------------------------------------------------------------------------


class IsolationLevel(Enum):
    """Consistency predicate selector, declared in order of strength.

    TRUE accepts every history; the rest are the usual weak isolation levels,
    with SER the strongest.
    """

    TRUE = "true"
    RC = "rc"
    RA = "ra"
    CC = "cc"
    SI = "si"
    SER = "ser"

    # Members are singletons: hash by identity, in C, not by name in Python.
    __hash__ = object.__hash__

    @property
    def strength(self) -> int:
        """The level's position in the declaration order, weakest first."""
        return list(IsolationLevel).index(self)

    def at_least(self, other: "IsolationLevel") -> bool:
        """True when this level is at least as strong as ``other``."""
        return self.strength >= other.strength

    @classmethod
    def from_name(cls, name: str) -> "IsolationLevel":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown isolation level {name!r}") from None


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class History:
    """Transaction logs plus the write-read relation.

    The session order is derived from the positional transaction ids rather
    than stored: within a session, transactions are ordered by index, and the
    init transaction precedes every other.  ``wr`` maps each (externally)
    reading event to the transaction whose write it observes; totality of
    ``wr`` over the external reads is *not* a construction invariant (partial
    histories arise while editing).
    """

    logs: tuple[TransactionLog, ...]
    wr: tuple[tuple[EventId, TxnId], ...]

    def __post_init__(self) -> None:
        ids = [log.id for log in self.logs]
        if ids != sorted(ids):
            raise ValueError("logs must be sorted by transaction id")
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate transaction id")
        by_id = {log.id: log for log in self.logs}
        init = by_id.get(INIT_TXN)
        if init is None:
            raise ValueError("history lacks the init transaction")
        if init.status != COMMITTED:
            raise ValueError("init transaction must be committed")
        if list(self.wr) != sorted(self.wr):
            raise ValueError("wr must be sorted")
        seen_reads: set[EventId] = set()
        for read_id, writer in self.wr:
            if read_id in seen_reads:
                raise ValueError(f"read {read_id} has two writers")
            seen_reads.add(read_id)
            reader = by_id.get(read_id.txn)
            if reader is None or read_id.index >= len(reader.events):
                raise ValueError(f"wr source read {read_id} not in history")
            ev = reader.events[read_id.index]
            if ev.kind != READ:
                raise ValueError(f"wr source {ev.id} is not a read")
            if ev not in reader.read_set:
                raise ValueError(f"read {ev.id} is internal, cannot have a writer")
            if writer == ev.id.txn:
                raise ValueError(f"read {ev.id} reads from its own transaction")
            wlog = by_id.get(writer)
            if wlog is None:
                raise ValueError(f"writer {writer} of read {ev.id} not in history")
            if wlog.status == ABORTED:
                raise ValueError(f"read {ev.id} reads from aborted {writer}")
            if not wlog.writes_var(ev.var):  # type: ignore[arg-type]
                raise ValueError(f"writer {writer} does not write {ev.var!r}")
        if _sources_first(self.causal_adjacency) is None:
            raise ValueError("so union wr is cyclic")

    # -- basic accessors ----------------------------------------------------

    @lazy_property
    def by_id(self) -> dict[TxnId, TransactionLog]:
        return {log.id: log for log in self.logs}

    @lazy_property
    def txn_ids(self) -> tuple[TxnId, ...]:
        return tuple(log.id for log in self.logs)

    def txn(self, tid: TxnId) -> TransactionLog:
        try:
            return self.by_id[tid]
        except KeyError:
            raise ValueError(f"unknown transaction {tid}") from None

    @lazy_property
    def wr_map(self) -> dict[EventId, TxnId]:
        return dict(self.wr)

    def events(self) -> Iterator[Event]:
        for log in self.logs:
            yield from log.events

    def event(self, eid: EventId) -> Event:
        log = self.txn(eid.txn)
        if eid.index >= len(log.events):
            raise ValueError(f"unknown event {eid}")
        return log.events[eid.index]

    @lazy_property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.txn(INIT_TXN).write_set))

    def pending_txns(self) -> tuple[TxnId, ...]:
        return tuple(
            log.id for log in self.logs if log.status == PENDING and log.id != INIT_TXN
        )

    # -- session order and causality ----------------------------------------

    @lazy_property
    def sessions(self) -> dict[int, tuple[TxnId, ...]]:
        """Session id -> its transactions in session order (init excluded)."""
        out: dict[int, list[TxnId]] = {}
        for tid in self.txn_ids:
            if tid != INIT_TXN:
                out.setdefault(tid.session, []).append(tid)
        return {s: tuple(sorted(ts)) for s, ts in out.items()}

    @lazy_property
    def causal_adjacency(self) -> dict[TxnId, tuple[TxnId, ...]]:
        """Successor lists for so union wr (session successors, not the closure)."""
        adj: dict[TxnId, set[TxnId]] = {t: set() for t in self.txn_ids}
        firsts = [txns[0] for txns in self.sessions.values() if txns]
        adj[INIT_TXN].update(firsts)
        for txns in self.sessions.values():
            for a, b in zip(txns, txns[1:]):
                adj[a].add(b)
        for writer, reader in self.wr_txn_pairs:
            adj[writer].add(reader)
        return {t: tuple(sorted(s)) for t, s in adj.items()}

    @lazy_property
    def causal_past(self) -> dict[TxnId, frozenset[TxnId]]:
        """t -> every transaction strictly before t in so union wr: its
        causal past.  The walk's trace carries it; from scratch it takes one
        pass over so/wr in topological order."""
        adj = self.causal_adjacency
        past: dict[TxnId, set[TxnId]] = {t: set() for t in adj}
        for t in _sources_first(adj):  # type: ignore[union-attr]
            for u in adj[t]:
                past[u] |= past[t] | {t}
        return {t: frozenset(p) for t, p in past.items()}

    @lazy_property
    def wr_txn_pairs(self) -> frozenset[tuple[TxnId, TxnId]]:
        return frozenset((writer, rid.txn) for rid, writer in self.wr)

    @lazy_property
    def writers(self) -> dict[str, tuple[TxnId, ...]]:
        """Variable -> the transactions whose ``write_set`` holds it, in
        ``logs`` order.  Never mutated, so the walk's snapshots share it."""
        out: dict[str, list[TxnId]] = {}
        for log in self.logs:
            for var in log.write_set:
                out.setdefault(var, []).append(log.id)
        return {var: tuple(ts) for var, ts in out.items()}

    @lazy_property
    def consistency_cache(self) -> dict:
        """Per-level results of :func:`isolation.check_consistency`."""
        return {}

    # -- editing ------------------------------------------------------------

    @classmethod
    def _derived(cls, logs, wr, **relations) -> "History":
        """A history whose validity the caller vouches for.

        Skips ``__post_init__``; ``relations`` become its cached
        properties, and a relation left out is computed on first use.  It
        serves the walk's snapshots (``explorer._Trace.state``), which
        carry the trace's relations, and ``oracles.prev``'s removal of the
        last event of the last transaction to enter, which carries none.
        """
        h = object.__new__(cls)
        h.__dict__.update(relations, logs=logs, wr=wr)
        return h

    def with_begin(self, txn: TxnId, begin: Event | None = None) -> "History":
        """Open ``txn`` with its begin event ``begin`` (built when not given).

        The log goes in at its ``bisect`` position and the result is built
        by the validating constructors, which raise when ``begin`` is not
        ``txn``'s begin.
        """
        if txn in self.by_id:
            raise ValueError(f"transaction {txn} already began")
        i = bisect(self.txn_ids, txn)
        log = TransactionLog(txn, (begin or begin_event(txn),))
        return History(self.logs[:i] + (log,) + self.logs[i:], self.wr)

    def with_event(self, event: Event, writer: TxnId | None = None) -> "History":
        """Append one event to its (existing) transaction, optionally with a wr edge.

        The extended log and the result are built by the validating
        constructors; the wr edge goes into ``wr`` at its ``bisect``
        position.
        """
        log = self.txn(event.id.txn)
        if event.id.index != len(log.events):
            raise ValueError(f"event {event.id} is not the next of {log.id}")
        new_log = TransactionLog(log.id, log.events + (event,))
        if writer is not None and event.kind != READ:
            raise ValueError("only reads take a writer")
        i = self.txn_ids.index(log.id)
        wr = self.wr
        if writer is not None:
            j = bisect(wr, edge := (event.id, writer))
            wr = wr[:j] + (edge,) + wr[j:]
        return History(self.logs[:i] + (new_log,) + self.logs[i + 1 :], wr)


# ---------------------------------------------------------------------------
# Relation helpers
# ---------------------------------------------------------------------------


def _sources_first(adj: dict[TxnId, tuple[TxnId, ...]]) -> list[TxnId] | None:
    """The transactions of successor lists ``adj`` in a topological order,
    or None when they hold a cycle: Kahn's pass, iterative, which orders
    every transaction exactly when no cycle blocks one."""
    preds = dict.fromkeys(adj, 0)
    for successors in adj.values():
        for b in successors:
            preds[b] += 1
    ready = [t for t, n in preds.items() if not n]
    for a in ready:
        for b in adj[a]:
            preds[b] -= 1
            if not preds[b]:
                ready.append(b)
    return ready if len(ready) == len(adj) else None


def closure_with_edges(
    past: dict[TxnId, frozenset[TxnId]], edges: Iterable[tuple[TxnId, TxnId]]
) -> dict[TxnId, frozenset[TxnId]] | None:
    """The transitive closure ``past`` (each transaction's strict
    predecessors) closed under ``edges``: a new dict, or ``past`` itself when
    every edge is already in it, or None when an edge closes a cycle.
    (a, b) closes one iff a == b or b is in a's past; otherwise ``b`` and
    every transaction whose past holds ``b`` gain a's past and ``a``."""
    for a, b in edges:
        if a == b or b in past[a]:
            return None
        if a in past[b]:
            continue
        gained = past[a] | {a}
        past = {x: p | gained if x == b or b in p else p for x, p in past.items()}
    return past


def _past_with_edge(
    past: dict[TxnId, frozenset[TxnId]], w: TxnId, t: TxnId
) -> dict[TxnId, frozenset[TxnId]]:
    """``past`` closed under the edge (``w``, ``t``) for a ``t``, possibly
    new, that nothing follows, as the last transaction to enter a walk:
    only ``t``'s entry changes, and ``past`` itself when ``w`` is already
    before ``t``."""
    mine = past.get(t, ())
    return past if w in mine else {**past, t: past[w].union(mine, (w,))}


def _so_before(txn_ids: tuple[TxnId, ...], t: TxnId) -> TxnId:
    """``t``'s session predecessor among the sorted ids ``txn_ids``, which
    may or may not hold ``t``, or init when it has none: the session order
    is the ids' order, so it is the id just below ``t`` if in ``t``'s
    session."""
    before = txn_ids[bisect_left(txn_ids, t) - 1]
    return before if before.session == t.session else INIT_TXN


def causal_reachable(h: History, a: TxnId, b: TxnId) -> bool:
    """Whether (a, b) is in the strict transitive closure of so union wr."""
    if a not in h.by_id:
        raise ValueError(f"unknown transaction {a}")
    if b not in h.by_id:
        raise ValueError(f"unknown transaction {b}")
    return a in h.causal_past[b]


def causally_before_or_equal(h: History, a: TxnId, b: TxnId) -> bool:
    """(a, b) in the reflexive-transitive closure of so union wr."""
    return a == b or causal_reachable(h, a, b)


# ---------------------------------------------------------------------------
# Ordered histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedHistory:
    """A history plus the order in which its transactions entered.

    ``entered`` lists the history's transactions, each once, in an order
    extending so union wr.  Several may be pending, but only the last to
    enter is extended.  The per-event views are derived on first read:
    :attr:`order` lists each transaction's events consecutively and in
    program order, in entry order, and :attr:`starts` maps each transaction
    to the position of its begin there; an event's position is its
    transaction's start plus its index.

    Construction checks the entry order against the direct so/wr edges
    (:attr:`History.causal_adjacency`) only, which builds no closure.  It
    accepts what a check of every pair in :attr:`History.causal_past`
    accepts: a direct edge is such a pair, and a pair is joined by a path
    of direct edges, each entering in order, so by transitivity the pair
    does.
    """

    history: History
    entered: tuple[TxnId, ...]

    def __post_init__(self) -> None:
        if sorted(self.entered) != list(self.history.txn_ids):
            raise ValueError("entered must list each of the history's transactions once")
        starts = self.starts
        for a, successors in self.history.causal_adjacency.items():
            for b in successors:
                if starts[a] > starts[b]:
                    raise ValueError(f"order violates so/wr between {a} and {b}")

    @classmethod
    def initial(cls, variables: tuple[str, ...] | list[str]) -> "OrderedHistory":
        """The starting history: only init, writing 0 to every variable."""
        events = [begin_event(INIT_TXN)]
        for i, var in enumerate(sorted(variables)):
            events.append(write_event(INIT_TXN, i + 1, var, 0))
        events.append(commit_event(INIT_TXN, len(events)))
        log = TransactionLog(INIT_TXN, tuple(events))
        return cls(History((log,), ()), (INIT_TXN,))

    @lazy_property
    def order(self) -> tuple[EventId, ...]:
        """Every event, each transaction's consecutively, in entry order."""
        by_id = self.history.by_id
        return tuple(ev.id for t in self.entered for ev in by_id[t].events)

    @lazy_property
    def starts(self) -> dict[TxnId, int]:
        """Transaction -> position of its begin in :attr:`order`, keyed in
        entry order."""
        by_id, starts, start = self.history.by_id, {}, 0
        for t in self.entered:
            starts[t], start = start, start + len(by_id[t].events)
        return starts

    @property
    def last_event(self) -> Event:
        return self.history.by_id[self.entered[-1]].events[-1]

    def append(self, event: Event, writer: TxnId | None = None) -> "OrderedHistory":
        """Extend with one event at the end of the order.

        A begin event opens a new log, which enters last; any other event
        extends the pending log of the last transaction to enter, and an
        event of another transaction is refused once
        :meth:`History.with_event` has checked it.  ``writer`` attaches the
        wr edge of an external read.  The result is built by
        :meth:`History.with_begin` or :meth:`History.with_event` and the
        validating constructor.
        """
        t = event.id.txn
        if event.kind == BEGIN:
            if writer is not None:
                raise ValueError("begin takes no writer")
            return OrderedHistory(self.history.with_begin(t, event), self.entered + (t,))
        hist = self.history.with_event(event, writer)
        if t != self.entered[-1]:
            raise ValueError(f"order interleaves {t} with {self.entered[-1]}")
        return OrderedHistory(hist, self.entered)


def drop_events(h: OrderedHistory, dropped: set[EventId]) -> OrderedHistory:
    """Remove a set of events, discarding logs emptied entirely.

    wr edges whose read was dropped disappear.  Ids absent from the history
    are ignored.  Raises, with its own message, if a surviving read's
    writer loses the write it observes (callers must include such reads in
    the drop set); the result is built by the validating constructors,
    which raise for anything else the cut breaks.
    """
    cut = {eid.txn for eid in dropped}
    new_logs = []
    for log in h.history.logs:
        if log.id not in cut:
            new_logs.append(log)
        elif events := tuple(ev for ev in log.events if ev.id not in dropped):
            new_logs.append(TransactionLog(log.id, events))
    survivors = {log.id: log for log in new_logs}
    new_wr = []
    for read_id, writer in h.history.wr:
        if read_id in dropped:
            continue
        wlog = survivors.get(writer)
        if wlog is None or not wlog.writes_var(h.history.event(read_id).var):  # type: ignore[arg-type]
            raise ValueError(
                f"dropping writer events of {writer} while read {read_id} survives"
            )
        new_wr.append((read_id, writer))
    entered = tuple(t for t in h.entered if t in survivors)
    return OrderedHistory(History(tuple(new_logs), tuple(new_wr)), entered)


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------


def canonical_encode(h: History) -> bytes:
    """Deterministic, order-independent encoding of a history.

    Two histories encode identically exactly when they are equal as values
    (same logs, session order, write-read relation).  The encoding doubles
    as the on-disk JSON record emitted by the command line front end: the
    object ``{"so": ..., "txns": [...], "wr": [...]}`` as
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` writes it.

    Each ``txns`` entry is its log's cached :attr:`TransactionLog.fragment`,
    the join of its events' cached :attr:`Event.fragment`.  The ``so`` part
    is memoized per tuple of transaction ids, from which it groups the
    sessions (:func:`_so_fragment`, 64 entries; all complete histories of a
    program share one), and each ``wr`` edge per edge (:func:`_wr_fragment`,
    1,024 entries).  A history's ``wr`` is never cached whole: one log
    appears in histories with different writers.
    """
    so = _so_fragment(h.txn_ids)
    wr = ",".join(map(_wr_fragment, h.wr))
    txns = ",".join(log.fragment for log in h.logs)
    return f'{{"so":{{{so}}},"txns":[{txns}],"wr":[{wr}]}}'.encode()


@lru_cache(maxsize=64)
def _so_fragment(txn_ids: tuple[TxnId, ...]) -> str:
    """The ``so`` object's members for the sorted transaction ids
    ``txn_ids``: each session's transactions, init left out, keyed by
    session ids sorted as strings, as ``sort_keys`` does."""
    sessions: dict[str, list[str]] = {}
    for t in txn_ids:
        if t != INIT_TXN:
            sessions.setdefault(str(t.session), []).append(f"[{t.session},{t.index}]")
    return ",".join(f'"{s}":[{",".join(ts)}]' for s, ts in sorted(sessions.items()))


@lru_cache(maxsize=1024)
def _wr_fragment(edge: tuple[EventId, TxnId]) -> str:
    """One ``wr`` edge as its list ``[[session,index,position],[session,index]]``."""
    read, writer = edge
    return (f"[[{read.txn.session},{read.txn.index},{read.index}],"
            f"[{writer.session},{writer.index}]]")


_TYPE_NAMES = {int: "an integer", str: "a string", list: "a list", dict: "an object"}


def _typed(value, kind: type, what: str):
    """``value``, if its type is exactly ``kind`` (so a bool is no int)."""
    if type(value) is not kind:
        raise ValueError(f"{what} must be {_TYPE_NAMES[kind]}, not {value!r}")
    return value


def _ints(value, n: int, what: str) -> tuple[int, ...]:
    """``value``, a list of ``n`` integers, as a tuple."""
    if len(_typed(value, list, what)) != n:
        raise ValueError(f"{what} must be a list of {n} integers, not {value!r}")
    return tuple(_typed(v, int, what) for v in value)


def _keyed(value, keys: set[str], what: str, optional: frozenset = frozenset()) -> dict:
    """``value``, an object with every key of ``keys`` and others only from ``optional``."""
    if not keys <= _typed(value, dict, what).keys() <= keys | optional:
        raise ValueError(f"{what} must have the keys {sorted(keys)}, not {sorted(value)}")
    return value


def canonical_decode(data: bytes | str) -> History:
    """Inverse of :func:`canonical_encode`; validates its input.

    Raises ``ValueError`` on malformed or too deeply nested JSON, a missing
    or unknown key, an id, index or value that is not an integer (bools
    included), a kind, variable or status that is not a string, a status or
    ``so`` that disagrees with the logs, and on anything ``History`` rejects.
    """
    try:
        obj = _keyed(json.loads(data), {"so", "txns", "wr"}, "an encoded history")
    except RecursionError:
        raise ValueError("encoded history is nested too deeply") from None
    logs = []
    for tobj in _typed(obj["txns"], list, "txns"):
        tobj = _keyed(tobj, {"events", "id", "status"}, "a transaction")
        tid = TxnId(*_ints(tobj["id"], 2, "a transaction id"))
        events = []
        for eobj in _typed(tobj["events"], list, f"the events of {tid}"):
            eobj = _keyed(eobj, {"index", "kind"}, f"an event of {tid}", {"var", "value"})
            events.append(
                Event(
                    EventId(tid, _typed(eobj["index"], int, "an event index")),
                    _typed(eobj["kind"], str, "an event kind"),
                    var=_typed(eobj["var"], str, "a variable") if "var" in eobj else None,
                    value=_typed(eobj["value"], int, "a value") if "value" in eobj else None,
                )
            )
        log = TransactionLog(tid, tuple(events))
        if log.status != _typed(tobj["status"], str, "a status"):
            raise ValueError(f"status mismatch for {tid} in encoded history")
        logs.append(log)
    wr = []
    for edge in _typed(obj["wr"], list, "wr"):
        if len(_typed(edge, list, "a wr edge")) != 2:
            raise ValueError(f"a wr edge must be a list of a read and a writer, not {edge!r}")
        session, index, pos = _ints(edge[0], 3, "a wr read")
        writer = TxnId(*_ints(edge[1], 2, "a wr writer"))
        wr.append((EventId(TxnId(session, index), pos), writer))
    h = History(tuple(sorted(logs, key=lambda log: log.id)), tuple(sorted(wr)))
    so = {
        session: [_ints(t, 2, "an so entry") for t in _typed(txns, list, "an so session")]
        for session, txns in _typed(obj["so"], dict, "so").items()
    }
    if so != {str(s): list(txns) for s, txns in h.sessions.items()}:
        raise ValueError("so disagrees with the session order of the logs")
    return h

