"""Hand-built histories, programs and capture helpers shared by the tests.

Every builder returns fresh objects and its expected verdicts were worked
out by hand, so the suite can use them as frozen ground truth.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import weakref
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import txndpor
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import explore_ce
from txndpor.isolation import find_commit_order
from txndpor.model import (
    COMMITTED,
    INIT_TXN,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    begin_event,
    canonical_encode,
    commit_event,
    read_event,
    write_event,
)
from txndpor.oracles import canonical_sort, prev
from txndpor.program import ExplorationState, Program, parse


def init_log(*variables: str) -> TransactionLog:
    """The distinguished first transaction writing 0 to every variable."""
    events = [begin_event(INIT_TXN)]
    for i, var in enumerate(variables, start=1):
        events.append(write_event(INIT_TXN, i, var, 0))
    events.append(commit_event(INIT_TXN, len(events)))
    return TransactionLog(INIT_TXN, tuple(events))


# ---------------------------------------------------------------------------
# A committed four-transaction history whose write-read edges close a causal
# cycle: the x-overwriter is causally before a transaction that still reads
# the overwritten value.  Consistent only under read committed (and the
# trivial level).
# ---------------------------------------------------------------------------

CYCLE_T1 = TxnId(0, 0)  # writes x := 1
CYCLE_T4 = TxnId(0, 1)  # reads x from the overwriter, writes y := 1
CYCLE_T2 = TxnId(1, 0)  # reads x from t1, overwrites x := 2
CYCLE_T3 = TxnId(1, 1)  # reads x from t1 and y from t4

CYCLE_VERDICTS = {
    IsolationLevel.RC: True,
    IsolationLevel.RA: False,
    IsolationLevel.CC: False,
    IsolationLevel.SI: False,
    IsolationLevel.SER: False,
    IsolationLevel.TRUE: True,
}

CYCLE_WR_LIFT = {
    (CYCLE_T1, CYCLE_T2),
    (CYCLE_T1, CYCLE_T3),
    (CYCLE_T2, CYCLE_T4),
    (CYCLE_T4, CYCLE_T3),
}


def causal_cycle_history() -> History:
    t1 = TransactionLog(
        CYCLE_T1,
        (begin_event(CYCLE_T1), write_event(CYCLE_T1, 1, "x", 1), commit_event(CYCLE_T1, 2)),
    )
    t4 = TransactionLog(
        CYCLE_T4,
        (
            begin_event(CYCLE_T4),
            read_event(CYCLE_T4, 1, "x"),
            write_event(CYCLE_T4, 2, "y", 1),
            commit_event(CYCLE_T4, 3),
        ),
    )
    t2 = TransactionLog(
        CYCLE_T2,
        (
            begin_event(CYCLE_T2),
            read_event(CYCLE_T2, 1, "x"),
            write_event(CYCLE_T2, 2, "x", 2),
            commit_event(CYCLE_T2, 3),
        ),
    )
    t3 = TransactionLog(
        CYCLE_T3,
        (
            begin_event(CYCLE_T3),
            read_event(CYCLE_T3, 1, "x"),
            read_event(CYCLE_T3, 2, "y"),
            commit_event(CYCLE_T3, 3),
        ),
    )
    wr = sorted(
        [
            (EventId(CYCLE_T2, 1), CYCLE_T1),
            (EventId(CYCLE_T3, 1), CYCLE_T1),
            (EventId(CYCLE_T4, 1), CYCLE_T2),
            (EventId(CYCLE_T3, 2), CYCLE_T4),
        ]
    )
    return History(logs=(init_log("x", "y"), t1, t4, t2, t3), wr=tuple(wr))


# ---------------------------------------------------------------------------
# A three-session history and two candidate sub-histories: dropping a leaf
# reader keeps downward closure; dropping the writer that two surviving
# reads observe breaks it.
# ---------------------------------------------------------------------------

TRIO_READER_XY = TxnId(0, 0)  # reads x from the writer, y from init
TRIO_WRITER = TxnId(1, 0)  # writes x := 2
TRIO_READER_X = TxnId(2, 0)  # reads x from the writer


def containment_trio() -> tuple[History, History, History]:
    """(full history, contained sub-history, closure-breaking sub-history)."""
    reader_xy = TransactionLog(
        TRIO_READER_XY,
        (
            begin_event(TRIO_READER_XY),
            read_event(TRIO_READER_XY, 1, "x"),
            read_event(TRIO_READER_XY, 2, "y"),
            commit_event(TRIO_READER_XY, 3),
        ),
    )
    writer = TransactionLog(
        TRIO_WRITER,
        (begin_event(TRIO_WRITER), write_event(TRIO_WRITER, 1, "x", 2), commit_event(TRIO_WRITER, 2)),
    )
    reader_x = TransactionLog(
        TRIO_READER_X,
        (begin_event(TRIO_READER_X), read_event(TRIO_READER_X, 1, "x"), commit_event(TRIO_READER_X, 2)),
    )
    ini = init_log("x", "y")
    full = History(
        logs=(ini, reader_xy, writer, reader_x),
        wr=tuple(
            sorted(
                [
                    (EventId(TRIO_READER_XY, 1), TRIO_WRITER),
                    (EventId(TRIO_READER_XY, 2), INIT_TXN),
                    (EventId(TRIO_READER_X, 1), TRIO_WRITER),
                ]
            )
        ),
    )
    without_leaf_reader = History(
        logs=(ini, reader_xy, writer),
        wr=tuple(
            sorted(
                [
                    (EventId(TRIO_READER_XY, 1), TRIO_WRITER),
                    (EventId(TRIO_READER_XY, 2), INIT_TXN),
                ]
            )
        ),
    )
    without_writer = History(
        logs=(ini, reader_xy, reader_x),
        wr=((EventId(TRIO_READER_XY, 2), INIT_TXN),),
    )
    return full, without_leaf_reader, without_writer


# ---------------------------------------------------------------------------
# Extension pair for read-atomic: a pending reader can always pick up one
# more read from its causal past, but a pending writer may be unable to add
# a write without invalidating someone else's completed reads.
# ---------------------------------------------------------------------------

EXT_READER = TxnId(0, 0)
EXT_WRITER = TxnId(1, 0)


def pending_reader_extension() -> tuple[History, object]:
    """A pending reader mid-transaction and the read event extending it."""
    reader = TransactionLog(
        EXT_READER, (begin_event(EXT_READER), read_event(EXT_READER, 1, "x"))
    )
    writer = TransactionLog(
        EXT_WRITER,
        (begin_event(EXT_WRITER), write_event(EXT_WRITER, 1, "x", 2), commit_event(EXT_WRITER, 2)),
    )
    h = History(
        logs=(init_log("x", "y"), reader, writer), wr=((EventId(EXT_READER, 1), EXT_WRITER),)
    )
    return h, read_event(EXT_READER, 2, "y")


def pending_writer_extension() -> tuple[History, object]:
    """A pending writer whose next write would invalidate a committed read."""
    reader = TransactionLog(
        EXT_READER,
        (
            begin_event(EXT_READER),
            read_event(EXT_READER, 1, "x"),
            read_event(EXT_READER, 2, "y"),
            commit_event(EXT_READER, 3),
        ),
    )
    writer = TransactionLog(
        EXT_WRITER, (begin_event(EXT_WRITER), write_event(EXT_WRITER, 1, "x", 2))
    )
    h = History(
        logs=(init_log("x", "y"), reader, writer),
        wr=tuple(
            sorted([(EventId(EXT_READER, 1), EXT_WRITER), (EventId(EXT_READER, 2), INIT_TXN)])
        ),
    )
    return h, write_event(EXT_WRITER, 2, "y", 2)


# ---------------------------------------------------------------------------
# Two concurrent writers of a common variable, one pending: consistent under
# snapshot isolation and serializability as it stands, yet no x-write can
# extend the pending side under either level, while causal consistency
# still accepts one.
# ---------------------------------------------------------------------------

SNAP_LEFT = TxnId(0, 0)
SNAP_RIGHT = TxnId(1, 0)


def snapshot_blocker() -> tuple[History, object]:
    left = TransactionLog(
        SNAP_LEFT,
        (
            begin_event(SNAP_LEFT),
            write_event(SNAP_LEFT, 1, "z", 1),
            read_event(SNAP_LEFT, 2, "x"),
            write_event(SNAP_LEFT, 3, "y", 1),
            commit_event(SNAP_LEFT, 4),
        ),
    )
    right = TransactionLog(
        SNAP_RIGHT,
        (begin_event(SNAP_RIGHT), write_event(SNAP_RIGHT, 1, "z", 2), read_event(SNAP_RIGHT, 2, "y")),
    )
    h = History(
        logs=(init_log("x", "y", "z"), left, right),
        wr=tuple(
            sorted([(EventId(SNAP_LEFT, 2), INIT_TXN), (EventId(SNAP_RIGHT, 2), INIT_TXN)])
        ),
    )
    return h, write_event(SNAP_RIGHT, 3, "x", 2)


# ---------------------------------------------------------------------------
# Causal pasts, for the tests of edits, traces and cuts.
# ---------------------------------------------------------------------------


def reachable_by_search(adjacency: dict) -> dict:
    """Each node of ``adjacency`` (node -> direct successors) with every
    node strictly reachable from it, by a plain search from each node."""
    out = {}
    for start in adjacency:
        seen: set = set()
        stack = list(adjacency[start])
        while stack:
            node = stack.pop()
            if node not in seen:
                seen.add(node)
                stack.extend(adjacency[node])
        out[start] = frozenset(seen)
    return out


def assert_causal_past_matches_full_construction(h: History) -> None:
    """``h``'s causal past, however it was derived, equals the one full
    construction gives, and is the exact inverse of the successors a search
    over so/wr finds."""
    full = History(h.logs, h.wr)
    assert h.causal_past == full.causal_past, h
    after = reachable_by_search(full.causal_adjacency)
    assert h.causal_past == {t: frozenset(u for u in after if t in after[u]) for t in after}, h


# ---------------------------------------------------------------------------
# Prefixes and predecessor chains, for the containment and oracle tests.
# ---------------------------------------------------------------------------


def committed_writers_by_scan(tr, var: str) -> list[TxnId]:
    """The reference for ``_Trace.committed_writers``: a scan of every log
    of the trace ``tr`` in entry order for the committed writers of
    ``var``."""
    return [t for t in tr.starts if tr.by_id[t].status == COMMITTED and tr.by_id[t].writes_var(var)]


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
    p_events = {ev.id for ev in p.events()}
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


def random_prefix(rng: random.Random, h: History) -> History:
    """A random downward-closed prefix of ``h`` (possibly all or init-only)."""
    block_order = find_commit_order(h, IsolationLevel.TRUE)
    assert block_order is not None
    sequence = [ev.id for t in block_order.order for ev in h.txn(t).events]
    floor = len(h.txn(INIT_TXN).events)
    k = rng.randint(floor, len(sequence))
    kept = set(sequence[:k])
    logs = []
    for log in h.logs:
        events = []
        for ev in log.events:
            if ev.id not in kept:
                break
            events.append(ev)
        if events:
            logs.append(TransactionLog(log.id, tuple(events)))
    wr = tuple(sorted(p for p in h.wr if p[0] in kept))
    return History(tuple(sorted(logs, key=lambda log: log.id)), wr)


def iterate_prev(
    program: Program,
    h: History | OrderedHistory,
    level: IsolationLevel,
    limit: int = 10_000,
) -> Iterator[History]:
    """Walk predecessors back toward the starting history (inclusive stop)."""
    cur = h if isinstance(h, OrderedHistory) else canonical_sort(h)
    for _ in range(limit):
        hist = prev(program, cur, level)
        yield hist
        if all(log.id == INIT_TXN for log in hist.logs):
            return
        cur = canonical_sort(hist)
    raise RuntimeError("predecessor chain did not reach the starting history")


# ---------------------------------------------------------------------------
# Assertion-bearing programs with known verdict splits between levels.
# ---------------------------------------------------------------------------

COUNTER_SOURCE = """\
session a {
  txn { u = read(x); write(x, u + 1); }
  txn { w = read(x); assert(1 <= w); }
}
session b { txn { v = read(x); write(x, v + 1); } }
"""

OWN_WRITE_SOURCE = """\
session s {
  txn { write(x, 2); }
  txn { a = read(x); assert(a == 2); }
}
"""

SINGLE_WRITE_SOURCE = "session s { txn { write(x, 1); } }\n"


# ---------------------------------------------------------------------------
# Capture helpers: drive the enumerator and keep chosen intermediate states.
# ---------------------------------------------------------------------------


def example(name: str) -> Program:
    return parse(EXAMPLE_PROGRAMS[name])


def order_positions(h: OrderedHistory) -> dict[EventId, int]:
    """Event -> its position in ``h``'s order, for the reference scans."""
    return {eid: i for i, eid in enumerate(h.order)}


def entered_states(
    prog: Program, level: IsolationLevel
) -> list[tuple[ExplorationState | None, ExplorationState]]:
    pairs: list[tuple[ExplorationState | None, ExplorationState]] = []
    explore_ce(prog, level, entry_hook=lambda parent, st: pairs.append((parent, st)))
    return pairs


FLIP_ABORTING = TxnId(0, 0)  # aborts iff its read of x sees the initial 0
FLIP_SECOND_READER = TxnId(0, 1)
FLIP_Y_WRITER = TxnId(1, 0)
FLIP_X_WRITER = TxnId(1, 1)
FLIP_FIRST_READ = EventId(FLIP_ABORTING, 1)
FLIP_SECOND_READ = EventId(FLIP_SECOND_READER, 1)


def abort_flip_baseline_state() -> ExplorationState:
    """The complete run of ``abort_flip`` where both reads saw the initial 0.

    The first transaction's guard fires and it aborts; everything else
    commits.  This state is the launch point for the swap tests.
    """
    from txndpor.model import ABORTED

    captured: list[ExplorationState] = []

    def hook(parent: ExplorationState | None, st: ExplorationState) -> None:
        h = st.history.history
        if (
            len(h.logs) == 5
            and not h.pending_txns()
            and h.by_id[FLIP_ABORTING].status == ABORTED
            and h.wr_map.get(FLIP_FIRST_READ) == INIT_TXN
            and h.wr_map.get(FLIP_SECOND_READ) == INIT_TXN
        ):
            captured.append(st)

    explore_ce(example("abort_flip"), IsolationLevel.CC, entry_hook=hook)
    assert captured, "baseline state of abort_flip was never explored"
    return captured[0]


# ---------------------------------------------------------------------------
# A fresh interpreter, for checks that the test process's state (imports
# already made, a recursion limit some other code raised) would defeat.
# ---------------------------------------------------------------------------

SRC = Path(txndpor.__file__).resolve().parents[1]


def run_fresh(code: str, *paths: Path) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with the package and ``paths``
    importable."""
    path = os.pathsep.join(
        filter(None, [str(SRC), *map(str, paths), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


# ---------------------------------------------------------------------------
# Live-history accounting for the space-behavior tests, installed from
# outside the model.
# ---------------------------------------------------------------------------


class HistoryMemoryTracker:
    """Counts History values currently alive, and their bytes.

    Each history is weighed by its canonical encoding length; the weight is
    released when the value is garbage collected.  Only histories created
    while the tracker is installed are counted.
    """

    def __init__(self) -> None:
        self.live = 0
        self.live_bytes = 0
        self.peak_bytes = 0
        self.max_history_bytes = 0
        self.registered = 0

    def _register(self, h: History) -> None:
        size = len(canonical_encode(h))
        self.registered += 1
        self.live += 1
        self.live_bytes += size
        self.peak_bytes = max(self.peak_bytes, self.live_bytes)
        self.max_history_bytes = max(self.max_history_bytes, size)
        weakref.finalize(h, self._release, size)

    def _release(self, size: int) -> None:
        self.live -= 1
        self.live_bytes -= size


# The two ways a history comes to exist: full validation, which the
# generated __init__ reaches through the class attribute, and
# History._derived, which serves the trace's snapshots (_Trace.state()) and
# oracles.prev's removal of a last event.
_POST_INIT = History.__dict__["__post_init__"]
_DERIVED = History.__dict__["_derived"]


@contextmanager
def track_history_memory() -> Iterator[HistoryMemoryTracker]:
    """Install a :class:`HistoryMemoryTracker` for the duration of the block,
    by wrapping ``History.__post_init__`` and ``History._derived``."""
    if History.__dict__["__post_init__"] is not _POST_INIT:
        raise RuntimeError("history memory tracking is already active")
    tracker = HistoryMemoryTracker()

    def post_init(h: History) -> None:
        _POST_INIT(h)
        tracker._register(h)

    def derived(cls, logs, wr, **relations) -> History:
        h = _DERIVED.__func__(cls, logs, wr, **relations)
        tracker._register(h)
        return h

    History.__post_init__ = post_init  # type: ignore[method-assign]
    History._derived = classmethod(derived)  # type: ignore[method-assign,assignment]
    try:
        yield tracker
    finally:
        History.__post_init__ = _POST_INIT  # type: ignore[method-assign]
        History._derived = _DERIVED  # type: ignore[method-assign]
