"""Consistency checking of histories against isolation levels.

A history satisfies an isolation level when some strict total *commit order*
over all its transactions extends session order and write-read and satisfies
the level's axioms.  Every axiom instance has the same shape: a read observes
writer ``t1`` on variable ``x`` while ``t2`` also writes ``x``; if the level's
visibility premise relates ``t2`` to the reading transaction, then ``t2`` must
be ordered before ``t1``.

For read committed, read atomic and causal consistency the premise never
mentions the commit order, so consistency is acyclicity of G = session
order, write-read and the forced conclusion edges.  TRUE is the level with
no axiom: no premise holds, so it forces no edge and G is so/wr, which is
acyclic in every history.  These are the causally extensible levels
(:data:`EXTENSIBLE_LEVELS`).  The *verdict* at these levels is the
transitive closure of G, as each transaction's *past* (its strict
predecessors; None on a cycle), which at TRUE is the causal past.  One function, :func:`_verdict`,
caches a history's verdict at every level and computes it from scratch on
first use.  The explorer's trace carries it at its level and derives each
child's from its parent's (:func:`_forced_after`), where (a, b) closes a cycle iff
a == b or b is in a's past.  The derivation holds only for an edit of the
transaction that entered last, with nothing after it: no session successor
has begun and no read observes it, as in the walks, which only extend the
one pending transaction.  A begin of ``t`` adds (session predecessor or
init, ``t``); a read of ``t`` observing ``w`` adds (``w``, ``t``) and the
forced edges of the reads of ``t``, whose premises alone can change; every
other event but an abort adds nothing.  A write by ``t`` adds no forced
edge: one whose overwriter is ``t`` needs a reader that ``t`` is causally
before, and nothing follows ``t``.  This is exact because such edits only add
transactions, writes and wr edges, in which every premise is monotone: G
only grows, and a parent's cycle stays.  An abort removes forced edges, so
it takes one full computation.  An edge into ``t`` changes its own past
alone (``model._past_with_edge``): only forced edges between older
transactions rewrite every past that holds their target.

Serializability and snapshot isolation quantify over the commit order itself.
Both are decided by one search that commits transactions one at a time,
respecting so/wr, trying candidates in ``txn_ids`` order.  Its state is the
set of *placed* (committed) transactions and the set of *open* ones, whose
snapshot is taken but whose commit is not.  ``t`` may commit next iff its
so/wr predecessors are placed, no open transaction conflicts with it, and
every instance with overwriter ``t``, writer placed and reader ``t3``
neither placed nor open can open ``t3`` now: ``t3``'s predecessors are
placed and ``t3`` does not conflict with ``t``.  At SI two transactions
conflict when both write one variable; at SER every pair conflicts, so
nothing ever opens and the rule is the frontier search of Biswas and Enea
(OOPSLA 2019): ``w <co t2 <co t3`` (writer, overwriter, reader) is exactly
a violated SER instance.

The search memoizes the failed (placed, open) pairs of one call.  An open
transaction is the first unplaced one of its session, so for k sessions
this bounds the search by O(n^k) placed sets times 2^k open sets instead of
the number of orders.  The memo is exact: any SI witness can be rescheduled
so that each snapshot is taken as late as possible, just before the
transaction's own commit or just before the first commit that overwrites
one of its reads whose writer has already committed.  In that form
everything the rule reads is in (placed, open), so a failed pair can never
be completed.  As the memo only cuts subtrees without a completion, the
first order found is the lexicographically first witness.  A walk with a
time limit stops the search too: its trace carries the deadline, which the
search polls (:func:`_commit_order`).

At SER and SI the verdict is a witness order (None when there is none),
which :func:`_verdict` finds by the search on first use.  The explorer's
trace carries it at its level and derives each child's from its
parent's witness ``o`` (:func:`_witness_after`).  Instances are read as
:func:`total_order_satisfies` reads them: a wr edge plus another
transaction whose ``write_set`` holds the variable, where ``write_set``
holds a pending transaction's writes and none of an aborted one's.

- A begin of ``t``, last in its session: ``o`` plus ``t`` last.  ``t`` has
  no reads, writes or so/wr successors, so the instances, prefix and
  conflict witnesses are the parent's.  Both levels.
- A commit, a read without a writer or a repeated write changes no write
  set and no wr edge, and an abort only empties its write set (no read may
  observe it): instances and conflict witnesses stay or shrink, premises
  are monotone in them, so ``o`` stands.  Both levels.
- At SER, a read of ``t`` observing ``w`` on ``x`` adds (``w``, ``t``) and
  the instances (``x``, ``w``, ``t2``, ``t``), violated iff ``w <o t2 <o
  t``, as ``t`` writes no ``x`` yet: ``o`` stands iff ``w <o t`` with no
  writer of ``x`` between.  A first write of ``x`` by ``t`` adds the
  instances with overwriter ``t``: ``o`` stands iff no read of ``x`` by a
  ``t3`` observes a ``w`` with ``w <o t <o t3``.

Anything else searches: a read or first write at SI, which can add prefix
or conflict witnesses to older instances; a failed SER rule; a parent
without a witness.  A read that is not causally latest is refuted before
it would search, at both levels: ``t`` observes ``w`` on ``x`` while
another writer ``t2`` of ``x`` has ``t2`` in ``t``'s causal past and ``w``
in ``t2``'s.  The CC instance (``x``, ``w``, ``t2``, ``t``) then forces
``t2`` before ``w`` while so/wr puts ``w`` before ``t2``, in every order
extending them.  Its SER premise ``t2 <co t`` and its SI prefix premise
(``t2`` is, or is before, the last transaction on a so/wr path to ``t``)
hold in every such order too, so no witness exists.  So every False comes
from the search or from this CC instance.
:func:`find_commit_order` always searches, for the lexicographically first
witness.  Below SI it runs the same search over the forced closure (the
causal past at TRUE) with no conflicts and no instances, so it places the
smallest transaction whose predecessors are placed and never backtracks.

:func:`brute_force_consistency` is a deliberately independent re-statement:
it enumerates every order extension outright and evaluates the axioms
literally.  It exists to cross-check the optimized decision procedures.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .model import (
    ABORT,
    BEGIN,
    INIT_TXN,
    Event,
    EventId,
    History,
    IsolationLevel,
    TxnId,
    _past_with_edge,
    _so_before,
    canonical_encode,
    causal_reachable,
    closure_with_edges,
)

# ---------------------------------------------------------------------------
# Axiom instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomInstance:
    """One instantiated axiom obligation.

    ``read`` (an event of ``reader``) observes ``writer`` on ``var`` while
    ``overwriter`` also writes ``var``.  When the level's premise holds for
    (``overwriter``, ``reader``/``read``), the commit order must place
    ``overwriter`` before ``writer``.
    """

    var: str
    writer: TxnId
    overwriter: TxnId
    reader: TxnId
    read: EventId


@dataclass(frozen=True)
class CommitOrder:
    """A strict total order over a history's transactions."""

    order: tuple[TxnId, ...]


def axiom_instances(h: History) -> tuple[AxiomInstance, ...]:
    """All axiom instances of a history, independent of level."""
    out = []
    for read_id, writer in h.wr:
        var = h.event(read_id).var
        assert var is not None
        for log in h.logs:
            if log.id != writer and log.writes_var(var):
                out.append(
                    AxiomInstance(var, writer, log.id, read_id.txn, read_id)
                )
    return tuple(out)


def _premise_static(h: History, level: IsolationLevel, inst: AxiomInstance) -> bool:
    """Premise evaluation for levels whose premise ignores the commit order."""
    t2, t3 = inst.overwriter, inst.reader
    if level is IsolationLevel.RC:
        # Some program-order-earlier read of the same transaction already
        # observed the overwriter.
        return any(
            rid.index < inst.read.index and w == t2
            for rid, w in h.wr
            if rid.txn == t3
        )
    if level is IsolationLevel.RA:
        return _so_wr_step(h, t2, t3)
    if level is IsolationLevel.CC:
        return causal_reachable(h, t2, t3)
    raise ValueError(f"{level} premise depends on the commit order")


def _so_wr_step(h: History, t: TxnId, t3: TxnId) -> bool:
    """Whether (``t``, ``t3``) is one so or wr step.  The session order is
    the ids' order, as :class:`History` defines it: init is before every
    other transaction, and within a session the lower index is first."""
    return (t == INIT_TXN != t3 or t.session == t3.session and t < t3
            or (t, t3) in h.wr_txn_pairs)


def forced_edges(h: History, level: IsolationLevel) -> set[tuple[TxnId, TxnId]]:
    """Conclusion edges forced by order-free premises (RC, RA, CC only;
    TRUE has no premise, so it forces none and is refused as well).

    Args:
        h: the history under test.
        level: one of RC, RA, CC.

    Returns:
        All pairs (overwriter, writer) whose axiom premise holds, i.e. the
        edges any witnessing commit order must contain.
    """
    if level is IsolationLevel.TRUE or level not in EXTENSIBLE_LEVELS:
        raise ValueError(f"no order-free premise for {level.value}")
    return set(_forced_edges_of(h, level, h.by_id))


# The levels at which every reachable history extends by its next event, so
# whose verdict is a forced closure: TRUE, whose closure forces no edge, and
# the levels whose premise ignores the commit order.
EXTENSIBLE_LEVELS = (IsolationLevel.TRUE, IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)


def _forced_edges_of(
    h: History, level: IsolationLevel, readers: Iterable[TxnId]
) -> Iterator[tuple[TxnId, TxnId]]:
    """The forced edges (t2, w) of the reads by ``readers`` (TRUE, RC, RA,
    CC):
    :func:`_read_edges` of each reader's reads, its log's ``read_set`` in
    program order with writers from ``wr_map``."""
    wr_map = h.wr_map
    for t3 in readers:
        reads = [(ev.var, wr_map[ev.id]) for ev in h.by_id[t3].read_set if ev.id in wr_map]
        yield from _read_edges(level, t3, reads, h.writers, h.causal_past)  # type: ignore[arg-type]


def _read_edges(
    level: IsolationLevel, t3: TxnId, reads: list[tuple[str, TxnId]],
    writers: dict[str, tuple[TxnId, ...]], past: dict[TxnId, frozenset[TxnId]],
) -> Iterator[tuple[TxnId, TxnId]]:
    """The forced edges (t2, w) of ``t3``'s ``reads``, (variable, writer)
    pairs in program order.

    At TRUE no premise holds, so there are none.  Else a read of ``x``
    observing ``w`` forces every ``t2 != w`` in
    ``writers[x]`` before ``w`` when the premise holds: at RC an earlier read
    of ``t3`` observed ``t2``, at RA ``t2`` is one so/wr step before ``t3``,
    at CC ``t2`` is in ``past[t3]``, the one entry of ``past`` read.  The RA
    premise is an id test, since the session order is the ids' order:
    ``t2`` is init or earlier in ``t3``'s session, or one of ``reads``
    observes it.
    """
    if level is IsolationLevel.TRUE:
        return
    observed = {w for _, w in reads}
    before = past[t3]
    seen = set()
    for var, w in reads:
        for t2 in writers.get(var, ()):
            if t2 == w:
                continue
            if level is IsolationLevel.RC:
                premise = t2 in seen
            elif level is IsolationLevel.RA:
                premise = (t2 == INIT_TXN or t2 in observed
                           or (t2.session == t3.session and t2 < t3))
            else:
                premise = t2 in before
            if premise:
                yield t2, w
        seen.add(w)


def _read_closures(
    h: History, level: IsolationLevel, read: Event, candidates: Iterable[TxnId]
) -> Iterator[tuple[TxnId, dict | None]]:
    """Each ``w`` of ``candidates`` with the forced closure
    :func:`_forced_after` derives for ``h`` extended by ``read`` observing
    ``w``, built on ``h`` alone.  ``h`` is ``level``-consistent (TRUE, RC,
    RA, CC) and ``read``'s transaction ``t`` entered it last, as in the walks:
    nothing follows ``t``, so (``w``, ``t``) changes only ``t``'s entry of
    the causal past (the CC premise) and of the forced closure, whose other
    entries only the forced edges of ``t``'s reads can change."""
    reach, t, past = _verdict(h, level), read.id.txn, h.causal_past
    reads = [(ev.var, h.wr_map[ev.id]) for ev in h.by_id[t].read_set if ev.id in h.wr_map]
    for w in candidates:
        if level is IsolationLevel.CC:  # the child's causality toward t
            past = _past_with_edge(h.causal_past, w, t)
        edges = _read_edges(level, t, reads + [(read.var, w)], h.writers, past)  # type: ignore[arg-type]
        yield w, closure_with_edges(_past_with_edge(reach, w, t), edges)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Order-dependent premises (snapshot isolation, serializability)
# ---------------------------------------------------------------------------


class _PastDeadline(Exception):
    """Raised by :func:`_commit_order` once its history's ``deadline``
    has passed; the explorer's walk reports it as its time limit."""


def _commit_order(
    h: History, level: IsolationLevel, past: dict[TxnId, frozenset[TxnId]]
) -> tuple[TxnId, ...] | None:
    """The first linear extension of ``past``, in ``txn_ids`` order, that
    ``level`` accepts, or None.

    ``past`` maps each transaction to its strict predecessors in a
    transitively closed relation that holds so and wr: the causal past at
    SER and SI, the forced closure at TRUE, RC, RA and CC, which at TRUE is
    the causal past too.  The frontier
    search of the module docstring.  Transactions are indexed ``0..n-1``
    and ``bit`` maps each to its bit, the placed and open sets are int
    bitmasks, ``preds[t]`` holds ``past[t]`` as the sum of its members'
    bits, ``conflicts[t]`` the transactions that may not run
    concurrently with ``t`` and ``by_over[t]`` the (writer bit, reader
    index) of the instances whose overwriter is ``t``.  Below SI there are
    neither, as every extension of ``past`` is a witness: the search places
    the smallest transaction whose predecessors are placed and never
    backtracks.  A placed set is always downward closed under ``past``, so
    "every predecessor placed" admits exactly the candidates that "every
    direct predecessor placed" does: the search, its memo and its witness
    are those of the direct edges.  It reads only relations the explorer's
    trace carries, and the ``deadline`` (a ``time.monotonic`` value) that
    the trace carries for a run with a time limit: every 1,024 failed
    pairs it reads the clock and raises :class:`_PastDeadline` once the
    deadline has passed.  A history carries none, so a search without a
    deadline reads no clock.
    """
    deadline = getattr(h, "deadline", None)
    txns = h.txn_ids
    n = len(txns)
    idx = {t: i for i, t in enumerate(txns)}
    bit = {t: 1 << i for i, t in enumerate(txns)}
    preds = [sum(map(bit.__getitem__, past[t])) for t in txns]
    full = (1 << n) - 1
    writers = h.writers
    conflicts = [0] * n
    by_over: list[list[tuple[int, int]]] = [[] for _ in txns]
    if level in (IsolationLevel.SER, IsolationLevel.SI):
        if level is IsolationLevel.SER:
            conflicts = [full ^ 1 << i for i in range(n)]
        else:
            for ws in writers.values():
                mask = sum(map(bit.__getitem__, ws))
                for t in ws:
                    conflicts[idx[t]] |= mask ^ bit[t]
        for rid, w in h.wr_map.items():
            r = rid.txn
            for t2 in writers.get(h.by_id[r].events[rid.index].var, ()):  # type: ignore[arg-type]
                if t2 != w and t2 != r:  # t2 == t3 never meets a premise
                    by_over[idx[t2]].append((bit[w], idx[r]))

    failed: set[int] = set()
    order: list[int] = []
    saved: list[int] = []  # per depth, the open set before that commit
    tried = [0]  # per depth, the first candidate index not yet tried
    placed = opened = 0
    while placed != full:
        for i in range(tried[-1], n):
            bit = 1 << i
            if placed & bit or preds[i] & ~placed or opened & conflicts[i]:
                continue
            now = opened
            for wb, r in by_over[i]:
                rb = 1 << r
                if placed & wb and not (placed | now) & rb:
                    if preds[r] & ~placed or conflicts[i] & rb:
                        break
                    now |= rb
            else:
                now &= ~bit
                if placed | bit | now << n not in failed:
                    tried[-1] = i + 1
                    tried.append(0)
                    order.append(i)
                    saved.append(opened)
                    placed |= bit
                    opened = now
                    break
        else:
            failed.add(placed | opened << n)
            if deadline is not None and not len(failed) & 1023 and time.monotonic() > deadline:
                raise _PastDeadline
            if not order:
                return None
            tried.pop()
            placed ^= 1 << order.pop()
            opened = saved.pop()
    return tuple(txns[i] for i in order)


def _prefix_witnesses(h: History, t3: TxnId) -> tuple[TxnId, ...]:
    """Transactions one so/wr step before ``t3`` (the t4 of the prefix premise)."""
    return tuple(t for t in h.txn_ids if _so_wr_step(h, t, t3))


def _conflict_witnesses(h: History, t3: TxnId) -> tuple[TxnId, ...]:
    """Transactions writing a variable that ``t3`` also writes."""
    t3_vars = set(h.txn(t3).write_set)
    return tuple(
        t for t in h.txn_ids
        if t != t3 and any(h.txn(t).writes_var(v) for v in t3_vars)
    )


def total_order_satisfies(
    h: History, level: IsolationLevel, pos: dict[TxnId, int]
) -> bool:
    """Literal axiom evaluation against one total commit order."""
    if level is IsolationLevel.TRUE:
        return True
    for inst in axiom_instances(h):
        if pos[inst.overwriter] < pos[inst.writer]:
            continue
        t2, t3 = inst.overwriter, inst.reader
        if level in (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC):
            premise = _premise_static(h, level, inst)
        elif level is IsolationLevel.SER:
            premise = pos[t2] < pos[t3]
        else:  # snapshot isolation: prefix or conflict, same conclusion
            premise = any(
                t4 == t2 or pos[t2] < pos[t4] for t4 in _prefix_witnesses(h, t3)
            ) or any(
                (t4 == t2 or pos[t2] < pos[t4]) and pos[t4] < pos[t3]
                for t4 in _conflict_witnesses(h, t3)
            )
        if premise:
            return False
    return True


# ---------------------------------------------------------------------------
# The decision procedures
# ---------------------------------------------------------------------------


def check_consistency(h: History, level: IsolationLevel) -> bool:
    """Whether ``h`` satisfies ``level``.

    Args:
        h: the history under test (pending and aborted transactions allowed).
        level: any isolation level, including TRUE.

    Returns:
        True when some strict total commit order extending session order and
        write-read satisfies every axiom instance of the level, which is
        when ``h``'s verdict (:func:`_verdict`) is not None: always at
        TRUE, whose verdict is the causal past.
    """
    return _verdict(h, level) is not None


def _verdict(h: History, level: IsolationLevel) -> dict | tuple[TxnId, ...] | None:
    """The verdict of ``h`` at ``level``, None when ``h`` is inconsistent:
    the forced closure as each transaction's past at TRUE, RC, RA and CC
    (at TRUE the causal past, as nothing is forced), a witness order at SER
    and SI.  Cached per history and level; else computed from scratch, the
    closure of so, wr and the forced edges, or the search's first
    witness."""
    cache = h.consistency_cache
    if level not in cache:
        cache[level] = (closure_with_edges(h.causal_past, _forced_edges_of(h, level, h.by_id))
                        if level in EXTENSIBLE_LEVELS else _commit_order(h, level, h.causal_past))
    return cache[level]


def _witness_after(
    h: History, level: IsolationLevel, order: tuple[TxnId, ...] | None, event: Event,
    writer: TxnId | None, first_write: bool,
) -> tuple[TxnId, ...] | None:
    """The witness order of ``h`` at SER or SI, the history just after
    ``event`` (with ``writer``, a first write or not) was appended to one
    whose witness is ``order``: ``order``, a begin's transaction appended,
    where a rule of the module docstring keeps it, else the search's.

    A read of ``t`` observing ``w`` on ``x`` is refuted before it would
    search when another writer ``t2`` of ``x`` is causally before ``t``
    with ``w`` causally before ``t2``: CC forces ``t2`` before ``w``
    against so/wr, and the SER and SI premises of that instance hold for
    any ``t2`` causally before ``t``, so neither level has a witness.
    ``t2 != w`` needs no test, as no causal past holds its own
    transaction, and ``t`` writes no ``x`` before an external read of it.
    A False is thus the search's or this instance's."""
    t, x = event.id.txn, event.var
    if order is not None:
        if event.kind == BEGIN:
            return order + (t,)
        if level is IsolationLevel.SI and (writer is not None or first_write):
            order = None
        elif writer is not None:  # writer before t, no writer of x between
            i, j = order.index(writer), order.index(t)
            if i > j or any(h.by_id[u].writes_var(x) for u in order[i + 1 : j]):
                order = None
        elif first_write:  # no read of x observing w with w < t < reader
            pos = {u: i for i, u in enumerate(order)}
            if any(pos[w] < pos[t] < pos[r.txn] for r, w in h.wr_map.items()
                   if h.by_id[r.txn].events[r.index].var == x):
                order = None
    if order is not None:
        return order
    past = h.causal_past
    if writer is not None and any(t2 in past[t] and writer in past[t2] for t2 in h.writers[x]):
        return None  # w before t2 before t, t2 writing x: not even CC
    return _commit_order(h, level, past)


def _forced_after(
    h: History, level: IsolationLevel, reach: dict | None, event: Event,
    writer: TxnId | None, first_write: bool,
) -> dict | None:
    """The forced closure of ``h``, the history just after ``event`` (with
    ``writer``) was appended to one whose forced closure is ``reach``: the
    rules of the module docstring.  Reads only ``h``'s logs by id,
    transaction ids, causal past, wr map and writer index, which the
    explorer's trace carries under the same names.  ``first_write`` is
    unused: it is part of the signature :func:`_witness_after` shares.

    Precondition: ``event``'s transaction ``t`` entered ``h`` last and
    nothing follows it, so no transaction's causal past holds ``t``.  The
    one caller, the explorer's ``_Trace.push``, only extends the pending
    transaction, which entered last.  A write of ``x`` by ``t`` then adds no
    forced edge: one whose overwriter is ``t`` needs a reader whose causal
    past holds ``t``, as the premise relating ``t`` to a reader puts ``t``
    there at each level (at RC the reader observed ``t``; at RA it follows
    ``t`` in its session or observed ``t``; at CC ``t`` is causally before
    it by definition).  A begin's new transaction has no successor either:
    its edge changes its own past alone.

    So a read of ``t`` observing ``w`` adds (``w``, ``t``) and the forced
    edges of ``t``'s reads alone, which need no child:
    :func:`_read_closures` asks them of the parent, with the CC premise
    ``t2`` in ``t``'s past in the parent, or ``t2 == w``, or ``t2`` in
    ``w``'s past.
    """
    if event.kind == ABORT:  # it takes away the aborted writes' forced edges
        return closure_with_edges(h.causal_past, _forced_edges_of(h, level, h.by_id))
    if reach is None:  # every other edit only adds edges: a cycle stays
        return None
    t = event.id.txn
    if event.kind == BEGIN:
        return _past_with_edge(reach, _so_before(h.txn_ids, t), t)
    if writer is None:
        return reach
    return closure_with_edges(reach, [(writer, t), *_forced_edges_of(h, level, [t])])


def find_commit_order(h: History, level: IsolationLevel) -> CommitOrder | None:
    """A witnessing commit order, or None when the history is inconsistent.

    The witness is the first valid linear extension in ``txn_ids`` order,
    found by :func:`_commit_order` over the causal past at SER and SI, and
    over the forced closure, the verdict, at TRUE, RC, RA and CC.  There it
    is the smallest-first topological order of so, wr and the forced edges
    (none at TRUE), which exists exactly when they are acyclic.
    """
    past = _verdict(h, level) if level in EXTENSIBLE_LEVELS else h.causal_past
    order = None if past is None else _commit_order(h, level, past)
    return None if order is None else CommitOrder(order)


# ---------------------------------------------------------------------------
# Independent brute-force oracle
# ---------------------------------------------------------------------------

_BRUTE_FORCE_LIMIT = 8


def brute_force_consistency(h: History, level: IsolationLevel) -> bool:
    """Decide consistency by enumerating every commit order outright.

    Restricted to histories of at most eight transactions; raises otherwise.
    This is the ground-truth oracle: no saturation, no pruning, just every
    strict total order extending so/wr, each evaluated literally.
    """
    if len(h.txn_ids) > _BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force limited to {_BRUTE_FORCE_LIMIT} transactions, "
            f"got {len(h.txn_ids)}"
        )
    preds = {b: [a for a in h.txn_ids if _so_wr_step(h, a, b)] for b in h.txn_ids}

    pos: dict[TxnId, int] = {}

    def extend() -> bool:
        if len(pos) == len(h.txn_ids):
            return total_order_satisfies(h, level, pos)
        for t in h.txn_ids:
            if t in pos or not all(p in pos for p in preds[t]):
                continue
            pos[t] = len(pos)
            if extend():
                return True
            del pos[t]
        return False

    return extend()


@lru_cache(maxsize=200_000)
def _brute_force_cached(encoded: bytes, level: IsolationLevel) -> bool:
    from .model import canonical_decode

    return brute_force_consistency(canonical_decode(encoded), level)


def brute_force_consistency_cached(h: History, level: IsolationLevel) -> bool:
    """Memoized wrapper keyed by canonical encoding (for large test corpora)."""
    return _brute_force_cached(canonical_encode(h), level)
