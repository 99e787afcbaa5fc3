"""History data model: events, transaction logs, histories, ordered histories.

A history abstracts one execution's database interaction: a set of transaction
logs together with a session order (derived from positional transaction ids)
and a write-read relation mapping each external read to the transaction whose
write it observes.  An ordered history additionally carries the total order in
which events were appended during exploration.

Typical construction goes through :class:`OrderedHistory`::

    h = OrderedHistory.initial(("x", "y"))
    h = h.append(begin_event(TxnId(0, 0)))
    h = h.append(read_event(TxnId(0, 0), 1, "x"), writer=INIT_TXN)

All values are immutable; mutation happens by producing new values.

Full validation runs wherever a history enters from outside: ``History(...)``,
``OrderedHistory(...)`` and :func:`canonical_decode`.  The explorer's edits
start from an already valid value and check only what the edit can break,
with the same rules and messages.  The one-event edits (:meth:`History.with_begin`,
:meth:`History.with_event`, :meth:`OrderedHistory.append`) carry six of the
parent's derived relations forward updated by the delta: the index by id, the
transaction ids, sessions, causal closure, wr map and the writer index
:attr:`History.writers`.  The session-order pairs, so/wr adjacency and wr
transaction pairs are views computed on first use; only full construction
and the literal reference checkers read them.  Only a begin that is not last
in its session, or is in the init session, falls back to full validation.
:meth:`History.with_event` extends the open log by
:meth:`TransactionLog.extended`, which checks in O(1) that the log is pending
and the event is its next one and no begin, and carries ``status`` and
``write_set``; any other event goes to the validating constructor, which
raises.  The edit records :attr:`History.derivation`: the parent's
consistency cache, the event, its writer and whether it is a first write,
read from the open log's ``write_set``.  :func:`drop_events`, the cut a swap
makes, recomputes the relations from the result instead, since deleting
events can shrink causality.

:func:`canonical_encode` builds a history's bytes from JSON fragments cached
on its immutable logs (:attr:`TransactionLog.fragment`); emitted histories
share most of their logs, so each log is encoded once.  The bytes equal
``json.dumps(..., sort_keys=True)`` of the whole object: keys are written in
sorted order, and ``wr``, which differs between histories sharing a log, is
never cached.
"""

from __future__ import annotations

import graphlib
import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

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

    A read or write carries exactly one variable; a write also carries the
    (already evaluated) integer value.
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

    @cached_property
    def status(self) -> str:
        last = self.events[-1].kind
        if last == COMMIT:
            return COMMITTED
        if last == ABORT:
            return ABORTED
        return PENDING

    @cached_property
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

    @cached_property
    def write_set(self) -> dict[str, Event]:
        """Last write per variable; empty for aborted transactions."""
        if self.status == ABORTED:
            return {}
        out: dict[str, Event] = {}
        for ev in self.events:
            if ev.kind == WRITE:
                out[ev.var] = ev  # type: ignore[index]
        return out

    @cached_property
    def fragment(self) -> str:
        """This log's object in :func:`canonical_encode`, built on first use."""
        obj = {"events": [_event_obj(ev) for ev in self.events],
               "id": list(self.id), "status": self.status}
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def extended(self, event: Event) -> "TransactionLog":
        """This log plus ``event``, with ``status`` and ``write_set`` carried
        over and updated by the one event.

        Checks in O(1) what the event can break: that this log is pending and
        that ``event`` is its next event and no begin.  Any other input goes
        through the validating constructor, which raises its usual message.
        """
        kind = event.kind
        if (self.status != PENDING or kind == BEGIN
                or event.id != EventId(self.id, len(self.events))):
            return TransactionLog(self.id, self.events + (event,))
        write_set = self.write_set
        if kind == ABORT:
            write_set = {}
        elif kind == WRITE:
            write_set = {**write_set, event.var: event}
        log = object.__new__(TransactionLog)
        log.__dict__.update(
            id=self.id, events=self.events + (event,), write_set=write_set,
            status=COMMITTED if kind == COMMIT else ABORTED if kind == ABORT else PENDING,
        )
        return log

    def writes_var(self, var: str) -> bool:
        return var in self.write_set


# ---------------------------------------------------------------------------
# Isolation levels
# ---------------------------------------------------------------------------


class IsolationLevel(Enum):
    """Consistency predicate selector, ordered by strength.

    TRUE accepts every history; the rest are the usual weak isolation levels,
    with SER the strongest.
    """

    TRUE = "true"
    RC = "rc"
    RA = "ra"
    CC = "cc"
    SI = "si"
    SER = "ser"

    @property
    def strength(self) -> int:
        return _STRENGTH[self]

    def at_least(self, other: "IsolationLevel") -> bool:
        """True when this level is at least as strong as ``other``."""
        return self.strength >= other.strength

    @classmethod
    def from_name(cls, name: str) -> "IsolationLevel":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown isolation level {name!r}") from None


_STRENGTH = {
    IsolationLevel.TRUE: 0,
    IsolationLevel.RC: 1,
    IsolationLevel.RA: 2,
    IsolationLevel.CC: 3,
    IsolationLevel.SI: 4,
    IsolationLevel.SER: 5,
}


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
            _check_wr_edge(by_id, ev, ev not in reader.read_set, writer)
        # so union wr must stay acyclic; graphlib's cycle search is iterative.
        try:
            graphlib.TopologicalSorter(self.causal_adjacency).prepare()
        except graphlib.CycleError:
            raise ValueError("so union wr is cyclic") from None

    # -- basic accessors ----------------------------------------------------

    @cached_property
    def by_id(self) -> dict[TxnId, TransactionLog]:
        return {log.id: log for log in self.logs}

    @cached_property
    def txn_ids(self) -> tuple[TxnId, ...]:
        return tuple(log.id for log in self.logs)

    def txn(self, tid: TxnId) -> TransactionLog:
        try:
            return self.by_id[tid]
        except KeyError:
            raise ValueError(f"unknown transaction {tid}") from None

    @cached_property
    def wr_map(self) -> dict[EventId, TxnId]:
        return dict(self.wr)

    @cached_property
    def event_ids(self) -> frozenset[EventId]:
        return frozenset(ev.id for log in self.logs for ev in log.events)

    def events(self) -> Iterator[Event]:
        for log in self.logs:
            yield from log.events

    def event(self, eid: EventId) -> Event:
        log = self.txn(eid.txn)
        if eid.index >= len(log.events):
            raise ValueError(f"unknown event {eid}")
        return log.events[eid.index]

    @cached_property
    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.txn(INIT_TXN).write_set))

    def external_reads(self) -> Iterator[Event]:
        """All external reads across all logs (aborted readers included)."""
        for log in self.logs:
            yield from log.read_set

    def pending_txns(self) -> tuple[TxnId, ...]:
        return tuple(
            log.id for log in self.logs if log.status == PENDING and log.id != INIT_TXN
        )

    # -- session order and causality ----------------------------------------

    @cached_property
    def sessions(self) -> dict[int, tuple[TxnId, ...]]:
        """Session id -> its transactions in session order (init excluded)."""
        out: dict[int, list[TxnId]] = {}
        for tid in self.txn_ids:
            if tid != INIT_TXN:
                out.setdefault(tid.session, []).append(tid)
        return {s: tuple(sorted(ts)) for s, ts in out.items()}

    @cached_property
    def so_pairs(self) -> frozenset[tuple[TxnId, TxnId]]:
        """The session order as a relation: same-session pairs plus init before all."""
        pairs = {
            (INIT_TXN, tid) for tid in self.txn_ids if tid != INIT_TXN
        }
        for txns in self.sessions.values():
            for i, a in enumerate(txns):
                for b in txns[i + 1 :]:
                    pairs.add((a, b))
        return frozenset(pairs)

    @cached_property
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

    @cached_property
    def causal_closure(self) -> dict[TxnId, frozenset[TxnId]]:
        """t -> every transaction strictly reachable from t via so union wr."""
        out: dict[TxnId, frozenset[TxnId]] = {}
        for start in self.txn_ids:
            seen: set[TxnId] = set()
            stack = list(self.causal_adjacency[start])
            while stack:
                node = stack.pop()
                if node not in seen:
                    seen.add(node)
                    stack.extend(self.causal_adjacency[node])
            out[start] = frozenset(seen)
        return out

    @cached_property
    def wr_txn_pairs(self) -> frozenset[tuple[TxnId, TxnId]]:
        return frozenset((writer, rid.txn) for rid, writer in self.wr)

    @cached_property
    def writers(self) -> dict[str, tuple[TxnId, ...]]:
        """Variable -> the transactions whose ``write_set`` holds it, in
        ``logs`` order.  Never mutated, so derived edits share it."""
        out: dict[str, list[TxnId]] = {}
        for log in self.logs:
            for var in log.write_set:
                out.setdefault(var, []).append(log.id)
        return {var: tuple(ts) for var, ts in out.items()}

    @cached_property
    def consistency_cache(self) -> dict:
        """Per-level results of :func:`isolation.check_consistency`."""
        return {}

    # (parent's consistency_cache, event, writer, is a first write) of a derived
    # edit, never the parent itself; None after full construction.  Not a field.
    derivation = None

    # -- editing ------------------------------------------------------------

    @classmethod
    def _derived(cls, logs, wr, **relations) -> "History":
        """A child of a valid history whose delta the caller has checked.

        Skips ``__post_init__``; ``relations`` are the parent's derived
        relations updated by the delta and become the child's cached
        properties, ``derivation`` (the edit) among them.  A relation left out
        (the one-event edits leave out the session-order pairs, so/wr
        adjacency and wr transaction pairs, ``drop_events`` all but ``by_id``)
        is computed on first use.
        """
        h = object.__new__(cls)
        h.__dict__.update(relations, logs=logs, wr=wr)
        return h

    def with_begin(self, txn: TxnId) -> "History":
        """Open ``txn`` with its begin event.

        A begin that comes last in a non-init session is derived from this
        history, adding (session predecessor or init, ``txn``) to the closure;
        any other begin goes through full validation.
        """
        if txn in self.by_id:
            raise ValueError(f"transaction {txn} already began")
        begin = begin_event(txn)
        logs = tuple(sorted(self.logs + (TransactionLog(txn, (begin,)),),
                            key=lambda log: log.id))
        same = self.sessions.get(txn.session, ())
        if txn.session < 0 or (same and same[-1] > txn):
            return History(logs, self.wr)
        pred = same[-1] if same else INIT_TXN
        sessions = dict(self.sessions)
        sessions[txn.session] = same + (txn,)
        closure = closure_with_edges(
            {**self.causal_closure, txn: frozenset()}, [(pred, txn)]
        )
        return History._derived(
            logs,
            self.wr,
            by_id={log.id: log for log in logs},
            txn_ids=tuple(log.id for log in logs),
            sessions=dict(sorted(sessions.items())),
            causal_closure=closure,
            wr_map=self.wr_map,
            writers=self.writers,
            derivation=(self.consistency_cache, begin, None, False),
        )

    def with_event(self, event: Event, writer: TxnId | None = None) -> "History":
        """Append one event to its (existing) transaction, optionally with a wr edge.

        Derived from this history: the new log is
        :meth:`TransactionLog.extended`, and only its O(1) checks, the new wr
        edge and, for an abort, the reads observing the aborting transaction
        are checked.  The relations :meth:`with_begin` carries are carried
        over: a wr edge adds its read to ``wr_map`` and (writer, reader) to
        the closure.  The writer index changes only on a first write of a
        variable, which inserts the transaction in order, and on an abort,
        which removes it.  The open log's ``write_set`` tells a first write,
        recorded in ``derivation``, and an internal read.
        """
        log = self.txn(event.id.txn)
        if event.id.index != len(log.events):
            raise ValueError(f"event {event.id} is not the next of {log.id}")
        new_log = log.extended(event)
        if writer is not None and event.kind != READ:
            raise ValueError("only reads take a writer")
        i = self.txn_ids.index(log.id)
        logs = self.logs[:i] + (new_log,) + self.logs[i + 1 :]
        by_id = dict(self.by_id)
        by_id[log.id] = new_log
        writers = self.writers
        first_write = event.kind == WRITE and event.var not in log.write_set
        if event.kind == ABORT:
            for read_id, w in self.wr:
                if w == log.id:
                    raise ValueError(f"read {read_id} reads from aborted {w}")
            if log.write_set:
                writers = dict(writers)
                for var in log.write_set:
                    if kept := tuple(t for t in writers[var] if t != log.id):
                        writers[var] = kept
                    else:
                        del writers[var]
        elif first_write:
            ordered = tuple(sorted(writers.get(event.var, ()) + (log.id,)))  # type: ignore[arg-type]
            writers = {**writers, event.var: ordered}  # type: ignore[dict-item]
        wr = self.wr
        wr_map = self.wr_map
        closure = self.causal_closure
        if writer is not None:
            _check_wr_edge(self.by_id, event, event.var in log.write_set, writer)
            closure = closure_with_edges(closure, [(writer, log.id)])
            if closure is None:
                raise ValueError("so union wr is cyclic")
            wr = tuple(sorted(wr + ((event.id, writer),)))
            wr_map = {**wr_map, event.id: writer}
        return History._derived(
            logs,
            wr,
            by_id=by_id,
            txn_ids=self.txn_ids,
            sessions=self.sessions,
            causal_closure=closure,
            wr_map=wr_map,
            writers=writers,
            derivation=(self.consistency_cache, event, writer, first_write),
        )


def _check_wr_edge(
    by_id: dict[TxnId, TransactionLog], ev: Event, internal: bool, writer: TxnId
) -> None:
    """Reject a wr edge from ``writer`` to the event ``ev`` that no valid
    history has (cycles aside); ``internal``: ``ev``'s transaction wrote its
    variable before it."""
    if ev.kind != READ:
        raise ValueError(f"wr source {ev.id} is not a read")
    if internal:
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


# ---------------------------------------------------------------------------
# Relation helpers
# ---------------------------------------------------------------------------


def closure_with_edges(
    reach: dict[TxnId, frozenset[TxnId]], edges: Iterable[tuple[TxnId, TxnId]]
) -> dict[TxnId, frozenset[TxnId]] | None:
    """The transitive closure ``reach`` (each transaction's strict
    successors) closed under ``edges``: a new dict, or ``reach`` itself when
    every edge is already in it, or None when an edge closes a cycle."""
    for a, b in edges:
        if a == b or a in reach[b]:
            return None
        if b in reach[a]:
            continue
        gained = reach[b] | {b}
        reach = {x: r | gained if x == a or a in r else r for x, r in reach.items()}
    return reach


def causal_reachable(h: History, a: TxnId, b: TxnId) -> bool:
    """Whether (a, b) is in the strict transitive closure of so union wr."""
    if a not in h.by_id:
        raise ValueError(f"unknown transaction {a}")
    if b not in h.by_id:
        raise ValueError(f"unknown transaction {b}")
    return b in h.causal_closure[a]


def causally_before_or_equal(h: History, a: TxnId, b: TxnId) -> bool:
    """(a, b) in the reflexive-transitive closure of so union wr."""
    return a == b or causal_reachable(h, a, b)


def is_prefix(p: History, h: History) -> bool:
    """Whether ``p`` is a causally-downward-closed prefix of ``h``.

    Every log of ``p`` must be a program-order prefix of the same-id log of
    ``h``; the restricted write-read relation must match; and the event set
    must be downward closed under program order, session order, and
    write-read (a read present in ``p`` forces its writer's events in too).
    """
    for log in p.logs:
        other = h.by_id.get(log.id)
        if other is None or log.events != other.events[: len(log.events)]:
            return False
    p_events = p.event_ids
    expected_wr = tuple(sorted(pair for pair in h.wr if pair[0] in p_events))
    if p.wr != expected_wr:
        return False
    # Downward closure.  Program order holds by the log-prefix check; session
    # order and write-read predecessors must be entirely present.
    complete = {
        log.id for log in p.logs if log.events == h.by_id[log.id].events
    }
    for log in p.logs:
        if log.id == INIT_TXN:
            continue
        if INIT_TXN not in complete:
            return False
        for pred in h.sessions.get(log.id.session, ()):
            if pred < log.id and pred not in complete:
                return False
    for read_id, writer in h.wr:
        if read_id in p_events and writer not in complete:
            return False
    return True


# ---------------------------------------------------------------------------
# Ordered histories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderedHistory:
    """A history plus the total order in which its events were added.

    The order contains every event exactly once and extends program order,
    session order, and write-read: whenever two transactions are related by
    (so union wr)+, all events of the first precede all events of the second.
    """

    history: History
    order: tuple[EventId, ...]

    def __post_init__(self) -> None:
        if set(self.order) != set(self.history.event_ids) or len(self.order) != len(
            self.history.event_ids
        ):
            raise ValueError("order must list exactly the history's events")
        pos = {eid: i for i, eid in enumerate(self.order)}
        for log in self.history.logs:
            for a, b in zip(log.events, log.events[1:]):
                if pos[a.id] > pos[b.id]:
                    raise ValueError(f"order violates program order in {log.id}")
        closure = self.history.causal_closure
        spans = {
            log.id: (
                min(pos[ev.id] for ev in log.events),
                max(pos[ev.id] for ev in log.events),
            )
            for log in self.history.logs
        }
        for a, (_, last_a) in spans.items():
            for b in closure[a]:
                if last_a > spans[b][0]:
                    raise ValueError(f"order violates so/wr between {a} and {b}")

    @classmethod
    def initial(cls, variables: tuple[str, ...] | list[str]) -> "OrderedHistory":
        """The starting history: only init, writing 0 to every variable."""
        events = [begin_event(INIT_TXN)]
        for i, var in enumerate(sorted(variables)):
            events.append(write_event(INIT_TXN, i + 1, var, 0))
        events.append(commit_event(INIT_TXN, len(events)))
        log = TransactionLog(INIT_TXN, tuple(events))
        hist = History((log,), ())
        return cls(hist, tuple(ev.id for ev in events))

    @cached_property
    def position(self) -> dict[EventId, int]:
        return {eid: i for i, eid in enumerate(self.order)}

    @cached_property
    def txn_spans(self) -> dict[TxnId, tuple[int, int]]:
        """Transaction -> (first, last) positions of its events in the order."""
        first: dict[TxnId, int] = {}
        last: dict[TxnId, int] = {}
        for i, eid in enumerate(self.order):
            first.setdefault(eid.txn, i)
            last[eid.txn] = i
        return {t: (first[t], last[t]) for t in first}

    @property
    def last_event(self) -> Event:
        return self.history.event(self.order[-1])

    def txn_before_event(self, txn: TxnId, eid: EventId) -> bool:
        """All of ``txn``'s events precede ``eid`` in the order."""
        return self.txn_spans[txn][1] < self.position[eid]

    def event_before_txn(self, eid: EventId, txn: TxnId) -> bool:
        """``eid`` precedes all of ``txn``'s events in the order."""
        return self.position[eid] < self.txn_spans[txn][0]

    def txn_before_txn(self, a: TxnId, b: TxnId) -> bool:
        return self.txn_spans[a][1] < self.txn_spans[b][0]

    def append(self, event: Event, writer: TxnId | None = None) -> "OrderedHistory":
        """Extend with one event at the end of the order.

        A begin event opens a new log; any other event extends its pending
        log.  ``writer`` attaches the wr edge of an external read.  The
        result is derived from this value, checking only the appended
        transaction's span (a begin that is not last in its session always
        fails that check, since its session successor already precedes it).
        """
        txn = event.id.txn
        order = self.order + (event.id,)
        if event.kind == BEGIN:
            if writer is not None:
                raise ValueError("begin takes no writer")
            hist = self.history.with_begin(txn)
        else:
            hist = self.history.with_event(event, writer)
        last = len(self.order)
        after = hist.causal_closure[txn]
        if after:
            raise ValueError(f"order violates so/wr between {txn} and {min(after)}")
        first = self.txn_spans[txn][0] if event.kind != BEGIN else last
        if writer is not None and self.txn_spans[writer][1] > first:
            raise ValueError(f"order violates so/wr between {writer} and {txn}")
        position = dict(self.position)
        position[event.id] = last
        spans = dict(self.txn_spans)
        spans[txn] = (first, last)
        h = object.__new__(OrderedHistory)
        h.__dict__.update(history=hist, order=order, position=position, txn_spans=spans)
        return h


def drop_events(h: OrderedHistory, dropped: set[EventId]) -> OrderedHistory:
    """Remove a set of events, discarding logs emptied entirely.

    wr edges whose read was dropped disappear.  Ids absent from the history
    are ignored.  Raises if a surviving read's writer loses the write it
    observes (callers must include such reads in the drop set).

    Derived from ``h``: only truncated logs (still program-order prefixes),
    surviving reads' writers and init are re-checked; a deletion keeps ids
    sorted and unique, reads' own wr checks, so union wr acyclic and the
    order extending it.  Relations are recomputed: a cut may lose wr edges.
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
    if INIT_TXN not in survivors:
        raise ValueError("history lacks the init transaction")
    if survivors[INIT_TXN].status != COMMITTED:
        raise ValueError("init transaction must be committed")
    hist = History._derived(tuple(new_logs), tuple(new_wr), by_id=survivors)
    order = tuple(eid for eid in h.order if eid not in dropped)
    out = object.__new__(OrderedHistory)
    out.__dict__.update(history=hist, order=order)
    return out


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------


def _event_obj(ev: Event) -> dict:
    obj: dict = {"index": ev.id.index, "kind": ev.kind}
    if ev.var is not None:
        obj["var"] = ev.var
    if ev.value is not None:
        obj["value"] = ev.value
    return obj


def canonical_encode(h: History) -> bytes:
    """Deterministic, order-independent encoding of a history.

    Two histories encode identically exactly when they are equal as values
    (same logs, session order, write-read relation).  The encoding doubles
    as the on-disk JSON record emitted by the command line front end: the
    object ``{"so": ..., "txns": [...], "wr": [...]}`` as
    ``json.dumps(obj, sort_keys=True, separators=(",", ":"))`` writes it.

    Each ``txns`` entry is its log's :attr:`TransactionLog.fragment`, cached
    on the immutable log, so a log shared by many emitted histories is
    encoded once.  The small ``so`` and ``wr`` parts are written here, with
    ``so`` keyed by session ids sorted as strings, as ``sort_keys`` does.
    Nothing that depends on ``wr`` is cached: one log appears in histories
    with different writers.
    """
    so = ",".join(f'"{s}":[{",".join(f"[{t.session},{t.index}]" for t in txns)}]'
                  for s, txns in sorted(h.sessions.items(), key=lambda kv: str(kv[0])))
    wr = ",".join(f"[[{r.txn.session},{r.txn.index},{r.index}],[{w.session},{w.index}]]"
                  for r, w in h.wr)
    txns = ",".join(log.fragment for log in h.logs)
    return f'{{"so":{{{so}}},"txns":[{txns}],"wr":[{wr}]}}'.encode()


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

