"""Consistency checking of histories against isolation levels.

A history satisfies an isolation level when some strict total *commit order*
over all its transactions extends session order and write-read and satisfies
the level's axioms.  Every axiom instance has the same shape: a read observes
writer ``t1`` on variable ``x`` while ``t2`` also writes ``x``; if the level's
visibility premise relates ``t2`` to the reading transaction, then ``t2`` must
be ordered before ``t1``.

For read committed, read atomic and causal consistency the premise never
mentions the commit order, so consistency reduces to an acyclicity check on
session order, write-read and the forced conclusion edges.  Snapshot
isolation and serializability quantify over the commit order itself and are
decided by a backtracking search over order extensions, pruning branches
whose partial order already makes some premise unavoidable and the matching
conclusion impossible.

:func:`brute_force_consistency` is a deliberately independent re-statement:
it enumerates every order extension outright and evaluates the axioms
literally.  It exists to cross-check the optimized decision procedures.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .model import (
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
    if level not in (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC):
        raise ValueError(f"no order-free premise for {level}")
    return {
        (inst.overwriter, inst.writer)
        for inst in axiom_instances(h)
        if _premise_static(h, level, inst)
    }


# ---------------------------------------------------------------------------
# Order-dependent premises (snapshot isolation, serializability)
# ---------------------------------------------------------------------------


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
    """Backtracking search for a commit order satisfying SI or SER.

    Transactions are appended one at a time, respecting so/wr.  Placed
    transactions are totally ordered; unplaced ones come after every placed
    one in any completion, which makes some premise/conclusion facts definite
    already at interior nodes.  A branch is abandoned as soon as some
    instance's premise is definitely true while its conclusion is definitely
    false; full orders are checked exactly.
    """

    def __init__(self, h: History, level: IsolationLevel):
        self.h = h
        self.level = level
        self.instances = axiom_instances(h)
        self.prefix_w = {t: _prefix_witnesses(h, t) for t in h.txn_ids}
        self.conflict_w = {t: _conflict_witnesses(h, t) for t in h.txn_ids}
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
        t2, t3 = inst.overwriter, inst.reader
        if self.level is IsolationLevel.SER:
            return self._def_before(t2, t3)
        # Snapshot isolation: prefix or conflict premise, same conclusion.
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

    # -- exact evaluation of full orders -------------------------------------

    def _full_ok(self) -> bool:
        return total_order_satisfies(self.h, self.level, self.pos)

    def search(self) -> CommitOrder | None:
        order: list[TxnId] = []

        def extend() -> bool:
            if self._violated():
                return False
            if len(order) == len(self.h.txn_ids):
                return self._full_ok()
            for t in self.h.txn_ids:
                if t in self.pos or not all(p in self.pos for p in self.preds[t]):
                    continue
                self.pos[t] = len(order)
                order.append(t)
                if extend():
                    return True
                order.pop()
                del self.pos[t]
            return False

        if extend():
            return CommitOrder(tuple(order))
        return None


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
    return level is IsolationLevel.TRUE or find_commit_order(h, level) is not None


def find_commit_order(h: History, level: IsolationLevel) -> CommitOrder | None:
    """A witnessing commit order, or None when the history is inconsistent.

    For SI and SER the order search decides; for the other levels the witness
    is the smallest-first topological order of so, wr and the forced edges,
    which exists exactly when they are acyclic.
    """
    if level in (IsolationLevel.SI, IsolationLevel.SER):
        return _OrderSearch(h, level).search()
    edges = set(h.so_pairs) | set(h.wr_txn_pairs)
    if level is not IsolationLevel.TRUE:
        edges |= forced_edges(h, level)
    order = _some_topological_order(h.txn_ids, edges)
    return None if order is None else CommitOrder(order)


def _some_topological_order(
    nodes: tuple[TxnId, ...], edges: set[tuple[TxnId, TxnId]]
) -> tuple[TxnId, ...] | None:
    node_set = set(nodes)
    indeg = {n: 0 for n in nodes}
    succs: dict[TxnId, list[TxnId]] = {n: [] for n in nodes}
    for a, b in edges:
        if a in node_set and b in node_set and a != b:
            succs[a].append(b)
            indeg[b] += 1
    ready = sorted(n for n in nodes if indeg[n] == 0)
    out: list[TxnId] = []
    while ready:
        n = ready.pop(0)
        out.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
        ready.sort()
    return tuple(out) if len(out) == len(nodes) else None


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
