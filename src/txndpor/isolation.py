"""Consistency checking of histories against isolation levels.

A history satisfies an isolation level when some strict total *commit order*
over all its transactions extends session order and write-read and satisfies
the level's axioms.  Every axiom instance has the same shape: a read observes
writer ``t1`` on variable ``x`` while ``t2`` also writes ``x``; if the level's
visibility premise relates ``t2`` to the reading transaction, then ``t2`` must
be ordered before ``t1``.

For read committed, read atomic and causal consistency the premise never
mentions the commit order, so consistency is acyclicity of G = session
order, write-read and the forced conclusion edges.  The transitive closure
of G (None on a cycle) is cached per history and level.  A one-event edit
(``History.with_begin``/``with_event``) records its parent's cache and the
edit; its closure is the parent's plus the new edges, where (a, b) closes a
cycle iff a == b or b reaches a.  A begin of ``t`` adds (session predecessor
or init, ``t``); a commit, a read without a writer or a repeated write adds
nothing; a first write by ``t`` adds the forced edges with overwriter ``t``;
a read of ``t`` observing ``w`` adds (``w``, ``t``) and the forced edges of
the reads of ``t`` and of what ``t`` reaches, whose premises alone can
change.  This is exact because such edits only add transactions, writes and
wr edges, in which every premise is monotone: G only grows, and a parent's
cycle stays.  An abort removes forced edges, so it, like a history without a
cached parent closure, takes one full computation, then cached.  A first
write (its variable not yet in the open log's ``write_set``) is told by a
flag the edit records in ``History.derivation``.

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
first order found is the lexicographically first witness.

:func:`check_consistency` caches a witness order per history at SER and SI
(None when there is none) and, for a one-event edit of a history found
consistent, derives it from the parent's witness ``o``.  Instances are read
as :func:`total_order_satisfies` reads them: a wr edge plus another
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

Anything else searches and caches the result: a read or first write at SI,
which can add prefix or conflict witnesses to older instances; a failed SER
rule; no derivation; a parent inconsistent or unchecked at the level.  So
every False comes from the search.  :func:`find_commit_order` always
searches, for the lexicographically first witness.

:func:`brute_force_consistency` is a deliberately independent re-statement:
it enumerates every order extension outright and evaluates the axioms
literally.  It exists to cross-check the optimized decision procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from .model import (
    ABORT,
    BEGIN,
    INIT_TXN,
    EventId,
    History,
    IsolationLevel,
    TxnId,
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
        return (t2, t3) in h.so_pairs or (t2, t3) in h.wr_txn_pairs
    if level is IsolationLevel.CC:
        return causal_reachable(h, t2, t3)
    raise ValueError(f"{level} premise depends on the commit order")


def forced_edges(h: History, level: IsolationLevel) -> set[tuple[TxnId, TxnId]]:
    """Conclusion edges forced by order-free premises (RC, RA, CC only).

    Args:
        h: the history under test.
        level: one of RC, RA, CC.

    Returns:
        All pairs (overwriter, writer) whose axiom premise holds, i.e. the
        edges any witnessing commit order must contain.
    """
    if level not in _CLOSURE_LEVELS:
        raise ValueError(f"no order-free premise for {level}")
    return set(_forced_edges_of(h, level, h.by_id, h.writers))


_CLOSURE_LEVELS = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)


def _forced_edges_of(
    h: History, level: IsolationLevel, readers: Iterable[TxnId],
    writers: dict[str, tuple[TxnId, ...]],
) -> Iterator[tuple[TxnId, TxnId]]:
    """The forced edges (t2, w) of the reads by ``readers`` (RC, RA, CC).

    A read of ``x`` by ``t3`` observing ``w`` forces every ``t2 != w`` in
    ``writers[x]`` before ``w`` when the premise holds: at RC an earlier read
    of ``t3`` observed ``t2``, at RA ``t2`` is one so/wr step before ``t3``,
    at CC ``t2`` is causally before ``t3``.  Each reader's reads are its
    log's ``read_set`` in program order, with writers from ``wr_map``.  The
    RA premise is an id test, since the session order is the ids' order:
    ``t2`` is init or earlier in ``t3``'s session, or one of ``t3``'s reads
    observes it.
    """
    wr_map = h.wr_map
    for t3 in readers:
        reads = [(ev.var, wr_map[ev.id]) for ev in h.by_id[t3].read_set if ev.id in wr_map]
        observed = {w for _, w in reads}
        seen = set()
        for var, w in reads:
            for t2 in writers.get(var, ()):  # type: ignore[arg-type]
                if t2 == w:
                    continue
                if level is IsolationLevel.RC:
                    premise = t2 in seen
                elif level is IsolationLevel.RA:
                    premise = (t2 == INIT_TXN or t2 in observed
                               or (t2.session == t3.session and t2 < t3))
                else:
                    premise = t3 in h.causal_closure[t2]
                if premise:
                    yield t2, w
            seen.add(w)


# ---------------------------------------------------------------------------
# Order-dependent premises (snapshot isolation, serializability)
# ---------------------------------------------------------------------------


def _commit_order(h: History, level: IsolationLevel) -> tuple[TxnId, ...] | None:
    """The first so/wr linear extension, in ``txn_ids`` order, that SER or SI
    accepts.

    The frontier search of the module docstring.  Transactions are indexed
    ``0..n-1``, the placed and open sets are int bitmasks, ``preds[t]`` holds
    ``t``'s causal predecessors (from ``causal_closure``), ``conflicts[t]``
    the transactions that may not run concurrently with ``t`` and
    ``by_over[t]`` the (writer bit, reader index) of the instances whose
    overwriter is ``t``.  A placed set is always downward closed under so/wr,
    so "every causal predecessor placed" admits exactly the candidates that
    "every direct predecessor placed" does: the search, its memo and its
    witness are those of the direct so/wr predecessors.
    """
    txns = h.txn_ids
    n = len(txns)
    idx = {t: i for i, t in enumerate(txns)}
    preds = [0] * n
    for a, succs in h.causal_closure.items():
        for b in succs:
            preds[idx[b]] |= 1 << idx[a]
    full = (1 << n) - 1
    writers = h.writers
    if level is IsolationLevel.SER:
        conflicts = [full ^ 1 << i for i in range(n)]
    else:
        conflicts = [0] * n
        for ws in writers.values():
            mask = sum(1 << idx[t] for t in ws)
            for t in ws:
                conflicts[idx[t]] |= mask ^ 1 << idx[t]
    by_over: list[list[tuple[int, int]]] = [[] for _ in txns]
    for rid, w in h.wr:
        r = rid.txn
        for t2 in writers.get(h.by_id[r].events[rid.index].var, ()):  # type: ignore[arg-type]
            if t2 != w and t2 != r:  # t2 == t3 never meets a premise
                by_over[idx[t2]].append((1 << idx[w], idx[r]))

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
            if not order:
                return None
            tried.pop()
            placed ^= 1 << order.pop()
            opened = saved.pop()
    return tuple(txns[i] for i in order)


def _prefix_witnesses(h: History, t3: TxnId) -> tuple[TxnId, ...]:
    """Transactions one so/wr step before ``t3`` (the t4 of the prefix premise)."""
    return tuple(
        t for t in h.txn_ids
        if (t, t3) in h.so_pairs or (t, t3) in h.wr_txn_pairs
    )


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
        write-read satisfies every axiom instance of the level.
    """
    if level is IsolationLevel.TRUE:
        return True
    if level in _CLOSURE_LEVELS:
        return _forced_closure(h, level) is not None
    return _witness(h, level) is not None


def _witness(h: History, level: IsolationLevel) -> tuple[TxnId, ...] | None:
    """A SER or SI witness order of ``h``, or None: cached, and the parent's
    when a rule of the module docstring keeps it, else the full search's."""
    cache = h.consistency_cache
    if level in cache:
        return cache[level]
    parent_cache, event, writer, first_write = h.derivation or ({}, None, None, False)
    order = parent_cache.get(level)
    if order is not None:
        t, x = event.id.txn, event.var
        if event.kind == BEGIN:
            order += (t,)
        elif level is IsolationLevel.SI and (writer is not None or first_write):
            order = None
        elif writer is not None:  # writer before t, no writer of x between
            i, j = order.index(writer), order.index(t)
            if i > j or any(h.by_id[u].writes_var(x) for u in order[i + 1 : j]):
                order = None
        elif first_write:  # no read of x observing w with w < t < reader
            pos = {u: i for i, u in enumerate(order)}
            if any(pos[w] < pos[t] < pos[r.txn] for r, w in h.wr if h.event(r).var == x):
                order = None
    cache[level] = _commit_order(h, level) if order is None else order
    return cache[level]


def _forced_closure(h: History, level: IsolationLevel) -> dict | None:
    """The transitive closure of so, wr and the forced edges, or None on a cycle.

    Cached per history and level; derived from the parent's cached closure
    when ``h`` is a one-event edit of a history checked at ``level``.
    """
    cache = h.consistency_cache
    if level in cache:
        return cache[level]
    parent_cache, event, writer, first_write = h.derivation or ({}, None, None, False)
    reach = parent_cache.get(level)
    if level not in parent_cache or event.kind == ABORT:
        # An abort takes away the aborted writes' forced edges.
        reach = closure_with_edges(h.causal_closure, forced_edges(h, level))
    elif reach is not None:  # every other edit only adds edges: a cycle stays
        t = event.id.txn
        if event.kind == BEGIN:
            same = h.sessions[t.session]
            pred = same[-2] if len(same) > 1 else INIT_TXN
            reach = closure_with_edges({**reach, t: frozenset()}, [(pred, t)])
        elif writer is not None:
            readers = h.causal_closure[t] | {t}
            new = _forced_edges_of(h, level, readers, h.writers)
            reach = closure_with_edges(reach, [(writer, t), *new])
        elif first_write:
            new = _forced_edges_of(h, level, h.by_id, {event.var: (t,)})  # type: ignore[dict-item]
            reach = closure_with_edges(reach, new)
    cache[level] = reach
    return reach


def find_commit_order(h: History, level: IsolationLevel) -> CommitOrder | None:
    """A witnessing commit order, or None when the history is inconsistent.

    For SER and SI one frontier search decides both, and the witness is
    the first valid so/wr linear extension in ``txn_ids`` order; for the
    other levels the witness is the smallest-first topological order of so,
    wr and the forced edges, which exists exactly when they are acyclic.
    """
    if level in (IsolationLevel.SER, IsolationLevel.SI):
        order = _commit_order(h, level)
        return None if order is None else CommitOrder(order)
    reach = h.causal_closure if level is IsolationLevel.TRUE else _forced_closure(h, level)
    if reach is None:
        return None
    order: list[TxnId] = []
    left = list(h.txn_ids)  # sorted
    while left:
        first = next(t for t in left if not any(t in reach[u] for u in left))
        order.append(first)
        left.remove(first)
    return CommitOrder(tuple(order))


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
    base = set(h.so_pairs) | set(h.wr_txn_pairs)
    preds: dict[TxnId, set[TxnId]] = {t: set() for t in h.txn_ids}
    for a, b in base:
        preds[b].add(a)

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
