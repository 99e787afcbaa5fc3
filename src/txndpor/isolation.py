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
cached parent closure, takes one full computation, then cached.

Serializability and snapshot isolation quantify over the commit order itself.
Both are decided by a depth-first search that appends transactions to a
prefix of the commit order, one at a time, respecting so/wr, and trying
candidates in ``txn_ids`` order; the first full order found is the
lexicographically first witness.

At SER an instance is violated exactly when ``w <co t2 <co t3`` (writer,
overwriter, reader), and that violation is created at the step that places
``t2`` while ``w`` is placed and ``t3`` is not.  So ``t`` may be placed next
iff its so/wr predecessors are placed and no instance with overwriter ``t``
has its writer placed and its reader unplaced (the frontier search of Biswas
and Enea, OOPSLA 2019).  Since this rule reads only the *set* of placed
transactions, whether a prefix has a valid completion depends on its set
alone: the search memoizes the failed sets of one call, which bounds it by
the number of so/wr-closed sets, O(n^k) for k sessions, instead of the
number of orders.

At SI an instance's premise holds when ``t2`` precedes some ``t4`` inside
the prefix (a so/wr predecessor of ``t3``, or a transaction ordered before
``t3`` that writes a variable ``t3`` writes), so whether a prefix can be
completed depends on its order and not just its set; the SI search
therefore memoizes nothing and prunes a branch once its partial order makes
some premise unavoidable and the matching conclusion impossible.

:func:`brute_force_consistency` is a deliberately independent re-statement:
it enumerates every order extension outright and evaluates the axioms
literally.  It exists to cross-check the optimized decision procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Container, Iterable, Iterator

from .model import (
    ABORT,
    BEGIN,
    INIT_TXN,
    WRITE,
    EventId,
    History,
    IsolationLevel,
    TxnId,
    canonical_encode,
    causal_reachable,
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
    return set(_forced_edges_of(h, level, h.by_id, _writers_by_var(h)))


_CLOSURE_LEVELS = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)


def _writers_by_var(h: History) -> dict[str, list[TxnId]]:
    out: dict[str, list[TxnId]] = {}
    for log in h.logs:
        for var in log.write_set:
            out.setdefault(var, []).append(log.id)
    return out


def _forced_edges_of(
    h: History, level: IsolationLevel, readers: Container[TxnId], writers: dict[str, list[TxnId]]
) -> Iterator[tuple[TxnId, TxnId]]:
    """The forced edges (t2, w) of the reads by ``readers`` (RC, RA, CC).

    A read of ``x`` by ``t3`` observing ``w`` forces every ``t2 != w`` in
    ``writers[x]`` before ``w`` when the premise holds: at RC an earlier read
    of ``t3`` observed ``t2``, at RA ``t2`` is one so/wr step before ``t3``,
    at CC ``t2`` is causally before ``t3``.
    """
    current, seen = None, set()
    # wr is sorted, so each reader's reads come together in program order.
    for rid, w in h.wr:
        t3 = rid.txn
        if t3 not in readers:
            continue
        if t3 != current:
            current, seen = t3, set()
        for t2 in writers.get(h.by_id[t3].events[rid.index].var, ()):  # type: ignore[arg-type]
            if t2 == w:
                continue
            if level is IsolationLevel.RC:
                premise = t2 in seen
            elif level is IsolationLevel.RA:
                premise = (t2, t3) in h.so_pairs or (t2, t3) in h.wr_txn_pairs
            else:
                premise = t3 in h.causal_closure[t2]
            if premise:
                yield t2, w
        seen.add(w)


# ---------------------------------------------------------------------------
# Order-dependent premises (snapshot isolation, serializability)
# ---------------------------------------------------------------------------


def _ser_order(h: History) -> CommitOrder | None:
    """The first so/wr linear extension, in ``txn_ids`` order, that SER accepts.

    The frontier search of the module docstring.  Transactions are indexed
    ``0..n-1``, a placed set is an int bitmask, and ``by_over[t]`` holds the
    (writer, reader) bits of the instances whose overwriter is ``t``.
    """
    txns = h.txn_ids
    n = len(txns)
    idx = {t: i for i, t in enumerate(txns)}
    preds = [0] * n
    for a, succs in h.causal_adjacency.items():
        for b in succs:
            preds[idx[b]] |= 1 << idx[a]
    by_over: list[list[tuple[int, int]]] = [[] for _ in txns]
    writers = _writers_by_var(h)
    for rid, w in h.wr:
        r = rid.txn
        for t2 in writers.get(h.by_id[r].events[rid.index].var, ()):  # type: ignore[arg-type]
            if t2 != w and t2 != r:  # t2 == t3 never meets the premise t2 <co t3
                by_over[idx[t2]].append((1 << idx[w], 1 << idx[r]))

    full = (1 << n) - 1
    failed: set[int] = set()
    order: list[int] = []
    tried = [0]  # per depth, the first candidate index not yet tried
    placed = 0
    while placed != full:
        for i in range(tried[-1], n):
            bit = 1 << i
            if not (
                placed & bit
                or preds[i] & ~placed
                or placed | bit in failed
                or any(placed & wb and not placed & rb for wb, rb in by_over[i])
            ):
                tried[-1] = i + 1
                tried.append(0)
                order.append(i)
                placed |= bit
                break
        else:
            failed.add(placed)
            if not order:
                return None
            tried.pop()
            placed ^= 1 << order.pop()
    return CommitOrder(tuple(txns[i] for i in order))


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


class _OrderSearch:
    """Backtracking search for a commit order satisfying SI.

    Transactions are appended one at a time, respecting so/wr.  Placed
    transactions are totally ordered; unplaced ones come after every placed
    one in any completion, which makes some premise/conclusion facts definite
    already at interior nodes.  A branch is abandoned as soon as some
    instance's premise is definitely true while its conclusion is definitely
    false.  Once every transaction is placed these facts are the literal
    axioms, so the first full order reached is a witness.
    """

    def __init__(self, h: History):
        self.h = h
        self.instances = axiom_instances(h)
        # The t4 candidates of the prefix and conflict premises, per t3.
        self.prefix_w: dict[TxnId, set[TxnId]] = {t: set() for t in h.txn_ids}
        for a, b in h.so_pairs | h.wr_txn_pairs:
            self.prefix_w[b].add(a)
        writers = _writers_by_var(h)
        self.conflict_w = {
            t: {u for var in h.by_id[t].write_set for u in writers[var]} - {t}
            for t in h.txn_ids
        }
        self.preds: dict[TxnId, set[TxnId]] = {t: set() for t in h.txn_ids}
        for a, succs in h.causal_adjacency.items():
            for b in succs:
                self.preds[b].add(a)
        self.pos: dict[TxnId, int] = {}

    # -- definite facts about partial orders --------------------------------

    def _def_before(self, a: TxnId, b: TxnId) -> bool:
        """(a, b) lies in the commit order of every completion."""
        return a in self.pos and (b not in self.pos or self.pos[a] < self.pos[b])

    def _def_premise(self, inst: AxiomInstance) -> bool:
        """The prefix or the conflict premise of ``inst`` (same conclusion)."""
        t2, t3 = inst.overwriter, inst.reader
        for t4 in self.prefix_w[t3]:
            if t4 == t2 or self._def_before(t2, t4):
                return True
        for t4 in self.conflict_w[t3]:
            if (t4 == t2 or self._def_before(t2, t4)) and self._def_before(t4, t3):
                return True
        return False

    def _violated(self) -> bool:
        for inst in self.instances:
            if self._def_before(inst.writer, inst.overwriter) and self._def_premise(
                inst
            ):
                return True
        return False

    def search(self) -> CommitOrder | None:
        txns = self.h.txn_ids
        order: list[TxnId] = []
        tried = [0]  # per depth, the first candidate index not yet tried
        while len(order) < len(txns):
            for i in range(tried[-1], len(txns)):
                t = txns[i]
                if t in self.pos or not all(p in self.pos for p in self.preds[t]):
                    continue
                self.pos[t] = len(order)
                if self._violated():
                    del self.pos[t]
                    continue
                tried[-1] = i + 1
                tried.append(0)
                order.append(t)
                break
            else:
                if not order:
                    return None
                tried.pop()
                del self.pos[order.pop()]
        return CommitOrder(tuple(order))


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
    return find_commit_order(h, level) is not None


def _forced_closure(h: History, level: IsolationLevel) -> dict | None:
    """The transitive closure of so, wr and the forced edges, or None on a cycle.

    Cached per history and level; derived from the parent's cached closure
    when ``h`` is a one-event edit of a history checked at ``level``.
    """
    cache = h.consistency_cache
    if level in cache:
        return cache[level]
    parent_cache, event, writer = h.derivation or ({}, None, None)
    reach = parent_cache.get(level)
    if level not in parent_cache or event.kind == ABORT:
        # An abort takes away the aborted writes' forced edges.
        reach = _with_edges(h.causal_closure, forced_edges(h, level))
    elif reach is not None:  # every other edit only adds edges: a cycle stays
        t = event.id.txn
        if event.kind == BEGIN:
            same = h.sessions[t.session]
            pred = same[-2] if len(same) > 1 else INIT_TXN
            reach = _with_edges({**reach, t: frozenset()}, [(pred, t)])
        elif writer is not None:
            readers = h.causal_closure[t] | {t}
            new = _forced_edges_of(h, level, readers, _writers_by_var(h))
            reach = _with_edges(reach, [(writer, t), *new])
        elif event.kind == WRITE and not h.txn(t).has_own_write_before(
            event.id.index, event.var  # type: ignore[arg-type]
        ):
            new = _forced_edges_of(h, level, h.by_id, {event.var: [t]})  # type: ignore[dict-item]
            reach = _with_edges(reach, new)
    cache[level] = reach
    return reach


def _with_edges(reach: dict, edges: Iterable[tuple[TxnId, TxnId]]) -> dict | None:
    """``reach`` closed under ``edges`` (a new dict), or None on a cycle."""
    for a, b in edges:
        if a == b or a in reach[b]:
            return None
        if b in reach[a]:
            continue
        gained = reach[b] | {b}
        reach = {x: r | gained if x == a or a in r else r for x, r in reach.items()}
    return reach


def find_commit_order(h: History, level: IsolationLevel) -> CommitOrder | None:
    """A witnessing commit order, or None when the history is inconsistent.

    For SER and SI the order searches decide, and the witness is the first
    valid so/wr linear extension in ``txn_ids`` order; for the other levels
    the witness is the smallest-first topological order of so, wr and the
    forced edges, which exists exactly when they are acyclic.
    """
    if level is IsolationLevel.SER:
        return _ser_order(h)
    if level is IsolationLevel.SI:
        return _OrderSearch(h).search()
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
