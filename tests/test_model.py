"""Histories, transaction logs, ordering and the canonical encoding."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CYCLE_T2,
    CYCLE_T3,
    CYCLE_WR_LIFT,
    TRIO_WRITER,
    causal_cycle_history,
    containment_trio,
    init_log,
    run_fresh,
    track_history_memory,
)
from txndpor import explorer
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import dfs, explore_ce
from txndpor.generate import random_history, random_prefix, random_program
from txndpor.isolation import check_consistency
from txndpor.model import (
    ABORTED,
    BEGIN,
    COMMITTED,
    INIT_TXN,
    PENDING,
    Event,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    abort_event,
    begin_event,
    canonical_decode,
    canonical_encode,
    causal_reachable,
    commit_event,
    drop_events,
    is_prefix,
    read_event,
    write_event,
)
from txndpor.oracles import canonical_sort
from txndpor.program import advance, parse

T0 = TxnId(0, 0)
T1 = TxnId(1, 0)


def histories(seed: int) -> History:
    return random_history(random.Random(seed))


# ---------------------------------------------------------------------------
# Transaction logs
# ---------------------------------------------------------------------------


def test_log_requires_leading_begin():
    with pytest.raises(ValueError):
        TransactionLog(T0, (write_event(T0, 0, "x", 1),))


def test_log_rejects_events_after_commit():
    with pytest.raises(ValueError):
        TransactionLog(
            T0, (begin_event(T0), commit_event(T0, 1), write_event(T0, 2, "x", 1))
        )


def test_log_rejects_misnumbered_events():
    with pytest.raises(ValueError):
        TransactionLog(T0, (begin_event(T0), write_event(T0, 5, "x", 1)))


def test_log_status_tracks_last_event():
    base = (begin_event(T0), write_event(T0, 1, "x", 1))
    assert TransactionLog(T0, base).status == PENDING
    assert TransactionLog(T0, base + (commit_event(T0, 2),)).status == COMMITTED
    assert TransactionLog(T0, base + (abort_event(T0, 2),)).status == ABORTED


def test_read_set_excludes_reads_after_own_write():
    """A read preceded by the transaction's own write of the same variable
    is satisfied internally and never takes a write-read edge."""
    log = TransactionLog(
        T0,
        (
            begin_event(T0),
            read_event(T0, 1, "x"),
            write_event(T0, 2, "x", 5),
            read_event(T0, 3, "x"),
            read_event(T0, 4, "y"),
            commit_event(T0, 5),
        ),
    )
    assert [e.id.index for e in log.read_set] == [1, 4]


def test_write_set_is_last_write_per_variable_and_empty_when_aborted():
    events = (
        begin_event(T0),
        write_event(T0, 1, "x", 1),
        write_event(T0, 2, "x", 2),
        write_event(T0, 3, "y", 3),
    )
    committed = TransactionLog(T0, events + (commit_event(T0, 4),))
    assert {v: e.value for v, e in committed.write_set.items()} == {"x": 2, "y": 3}
    aborted = TransactionLog(T0, events + (abort_event(T0, 4),))
    assert aborted.write_set == {}
    assert not aborted.writes_var("x")


# ---------------------------------------------------------------------------
# History construction invariants
# ---------------------------------------------------------------------------


def _reader(wr_target: TxnId | None = None) -> TransactionLog:
    return TransactionLog(
        T0, (begin_event(T0), read_event(T0, 1, "x"), commit_event(T0, 2))
    )


def test_history_requires_init():
    with pytest.raises(ValueError, match="init"):
        History(logs=(_reader(),), wr=())


def test_history_requires_sorted_unique_logs():
    ini = init_log("x")
    other = TransactionLog(T1, (begin_event(T1), commit_event(T1, 1)))
    with pytest.raises(ValueError):
        History(logs=(other, ini), wr=())
    with pytest.raises(ValueError):
        History(logs=(ini, ini), wr=())


def test_history_rejects_wr_to_nonwriter_and_to_aborted():
    ini = init_log("x")
    nonwriter = TransactionLog(T1, (begin_event(T1), commit_event(T1, 1)))
    with pytest.raises(ValueError, match="does not write"):
        History(logs=(ini, _reader(), nonwriter), wr=((EventId(T0, 1), T1),))
    aborted_writer = TransactionLog(
        T1, (begin_event(T1), write_event(T1, 1, "x", 9), abort_event(T1, 2))
    )
    with pytest.raises(ValueError, match="aborted"):
        History(logs=(ini, _reader(), aborted_writer), wr=((EventId(T0, 1), T1),))


def test_history_rejects_self_read_and_internal_read_edges():
    ini = init_log("x")
    selfish = TransactionLog(
        T0,
        (
            begin_event(T0),
            write_event(T0, 1, "x", 1),
            read_event(T0, 2, "x"),
            commit_event(T0, 3),
        ),
    )
    with pytest.raises(ValueError):
        History(logs=(ini, selfish), wr=((EventId(T0, 2), T0),))
    with pytest.raises(ValueError, match="internal"):
        History(logs=(ini, selfish), wr=((EventId(T0, 2), INIT_TXN),))


def test_history_rejects_causal_cycles():
    """Cross reads between two committed writers would make each observe the
    other, which no interleaved execution can produce."""
    ini = init_log("x", "y")
    a = TransactionLog(
        T0,
        (
            begin_event(T0),
            read_event(T0, 1, "y"),
            write_event(T0, 2, "x", 1),
            commit_event(T0, 3),
        ),
    )
    b = TransactionLog(
        T1,
        (
            begin_event(T1),
            read_event(T1, 1, "x"),
            write_event(T1, 2, "y", 1),
            commit_event(T1, 3),
        ),
    )
    with pytest.raises(ValueError, match="cyclic"):
        History(
            logs=(ini, a, b),
            wr=tuple(sorted([(EventId(T0, 1), T1), (EventId(T1, 1), T0)])),
        )


def test_long_session_history_is_checked_without_deep_recursion():
    """A history of one 1,500-transaction session is built, encoded and
    decoded at the default recursion limit, in a fresh interpreter so that
    nothing else in the process can have raised it."""
    code = (
        "import sys\n"
        "from txndpor.model import (INIT_TXN, History, TransactionLog, TxnId,\n"
        "    begin_event, canonical_decode, canonical_encode, commit_event, write_event)\n"
        "assert sys.getrecursionlimit() < 1500\n"
        "def log(t, value):\n"
        "    events = (begin_event(t), write_event(t, 1, 'x', value), commit_event(t, 2))\n"
        "    return TransactionLog(t, events)\n"
        "logs = (log(INIT_TXN, 0),) + tuple(log(TxnId(0, i), i) for i in range(1500))\n"
        "data = canonical_encode(History(logs, ()))\n"
        "assert canonical_encode(canonical_decode(data)) == data\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_init_precedes_all_sessions_in_session_order():
    h = causal_cycle_history()
    so = set(h.so_pairs)
    for t in h.txn_ids:
        if t != INIT_TXN:
            assert (INIT_TXN, t) in so
    assert (TxnId(0, 0), TxnId(0, 1)) in so
    assert (TxnId(0, 0), TxnId(1, 1)) not in so


# ---------------------------------------------------------------------------
# Relations over the cycle fixture
# ---------------------------------------------------------------------------


def test_wr_lifts_to_expected_transaction_pairs():
    assert set(causal_cycle_history().wr_txn_pairs) == CYCLE_WR_LIFT


def test_wr_lift_of_init_only_history_is_empty():
    assert set(History(logs=(init_log("x"),), wr=()).wr_txn_pairs) == set()


def test_causal_reachability_through_intermediate_transaction():
    h = causal_cycle_history()
    assert causal_reachable(h, CYCLE_T2, CYCLE_T3)
    assert not causal_reachable(h, CYCLE_T3, CYCLE_T2)
    assert not causal_reachable(h, CYCLE_T2, CYCLE_T2)


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 10_000))
def test_causal_reachability_matches_closure_matrix(seed):
    """Reachability agrees with an independently computed transitive closure."""
    h = histories(seed)
    ids = list(h.txn_ids)
    edge = {(a, b) for (a, b) in h.so_pairs} | set(h.wr_txn_pairs)
    reach = {pair: pair in edge for pair in [(a, b) for a in ids for b in ids]}
    for k in ids:
        for a in ids:
            for b in ids:
                if reach[(a, k)] and reach[(k, b)]:
                    reach[(a, b)] = True
    for a in ids:
        for b in ids:
            assert causal_reachable(h, a, b) == reach[(a, b)]


# ---------------------------------------------------------------------------
# Sub-history containment
# ---------------------------------------------------------------------------


def test_containment_accepts_leaf_removal_and_itself():
    full, within, _ = containment_trio()
    assert is_prefix(within, full)
    assert is_prefix(full, full)


def test_containment_rejects_removing_an_observed_writer():
    full, _, broken = containment_trio()
    assert not is_prefix(broken, full)


def test_containment_accepts_truncated_transaction_log():
    full, _, _ = containment_trio()
    truncated_writer = TransactionLog(
        TRIO_WRITER, (begin_event(TRIO_WRITER),)
    )
    ini = init_log("x", "y")
    p = History(logs=(ini, truncated_writer), wr=())
    assert is_prefix(p, full)


def test_containment_requires_downward_closed_truncation():
    """Keeping a log's later event while dropping an earlier one is not a
    program-order prefix."""
    full, _, _ = containment_trio()
    with pytest.raises(ValueError):
        TransactionLog(TRIO_WRITER, (begin_event(TRIO_WRITER), commit_event(TRIO_WRITER, 2)))


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 10_000))
def test_random_downward_closed_subsets_are_contained(seed):
    rng = random.Random(seed)
    h = random_history(rng)
    p = random_prefix(rng, h)
    assert is_prefix(p, h)


# ---------------------------------------------------------------------------
# Ordered histories
# ---------------------------------------------------------------------------


def test_canonical_sort_lists_every_event_once_in_causal_order():
    h = causal_cycle_history()
    oh = canonical_sort(h)
    assert sorted(oh.order) == sorted(h.event_ids)
    pos = oh.position
    for a, b in set(h.so_pairs) | set(h.wr_txn_pairs):
        assert pos[EventId(a, 0)] < pos[EventId(b, 0)]
    for eid in oh.order:
        if eid.index > 0:
            assert pos[EventId(eid.txn, eid.index - 1)] < pos[eid]


def test_drop_events_with_empty_set_is_identity():
    oh = canonical_sort(containment_trio()[0])
    out = drop_events(oh, set())
    assert out.history == oh.history and out.order == oh.order


def test_drop_events_removes_whole_logs_and_their_edges():
    full, within, _ = containment_trio()
    oh = canonical_sort(full)
    victim = TxnId(2, 0)
    dropped = drop_events(oh, {e.id for e in full.txn(victim).events})
    assert dropped.history == within
    assert all(e.txn != victim for e in dropped.order)


def test_drop_events_rejects_orphaning_a_surviving_read():
    full, _, _ = containment_trio()
    oh = canonical_sort(full)
    with pytest.raises(ValueError):
        drop_events(oh, {e.id for e in full.txn(TRIO_WRITER).events})


# ---------------------------------------------------------------------------
# Derived edits
# ---------------------------------------------------------------------------

# Derived edits carry the first five; the three views are computed on first
# use.  All eight must equal full construction's.
HISTORY_VIEWS = ("so_pairs", "causal_adjacency", "wr_txn_pairs")
HISTORY_RELATIONS = (
    "by_id", "txn_ids", "sessions", "causal_closure", "wr_map", *HISTORY_VIEWS,
)
ORDER_RELATIONS = ("position", "txn_spans")


def _next_edits(h: History) -> list[tuple[Event, TxnId | None]]:
    """Every one-event edit of ``h``: each next event of each pending
    transaction (a read with no writer and with every transaction as
    writer), and a begin of each unstarted id up to two past the last one
    of every session and of one new session (so gaps are both opened and
    filled), plus one in session -1."""
    edits: list[tuple[Event, TxnId | None]] = []
    for p in h.pending_txns():
        i = len(h.txn(p).events)
        edits += [(commit_event(p, i), None), (abort_event(p, i), None)]
        for var in h.variables:
            edits += [(write_event(p, i, var, 7), None), (read_event(p, i, var), None)]
            edits += [(read_event(p, i, var), w) for w in h.txn_ids]
    top = max(t.session for t in h.txn_ids)
    for s in range(top + 2):
        used = {t.index for t in h.sessions.get(s, ())}
        for k in range(max(used, default=-1) + 3):
            if k not in used:
                edits.append((begin_event(TxnId(s, k)), None))
    if TxnId(-1, 1) not in h.by_id:
        edits.append((begin_event(TxnId(-1, 1)), None))
    return edits


def _full_edit(h: History, event: Event, writer: TxnId | None) -> History:
    """The edited history built from scratch by the validating constructor."""
    tid = event.id.txn
    if event.kind == BEGIN:
        logs = h.logs + (TransactionLog(tid, (event,)),)
    else:
        extended = TransactionLog(tid, h.txn(tid).events + (event,))
        logs = tuple(extended if log.id == tid else log for log in h.logs)
    wr = h.wr + (((event.id, writer),) if writer is not None else ())
    return History(tuple(sorted(logs, key=lambda log: log.id)), tuple(sorted(wr)))


def _outcome(build):
    try:
        return build(), None
    except ValueError as exc:
        return None, str(exc)


def _assert_same_value(derived, full, relations, carried: bool) -> None:
    assert derived == full
    for name in relations:
        assert not carried or name in HISTORY_VIEWS or name in vars(derived), name
    for name in relations:
        assert getattr(derived, name) == getattr(full, name), name


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_derived_edits_match_full_construction(seed):
    """Every edit derived from a valid parent equals the same history built
    by full validation, with equal derived relations, and raises exactly
    when full construction raises (with the same message for the history).
    Walks a few random edits deep so that parents are themselves derived."""
    rng = random.Random(seed)
    h = random_history(rng)
    for start in (h, random_prefix(rng, h)):
        current = canonical_sort(start)
        for _ in range(3):
            hist = current.history
            accepted = []
            for event, writer in _next_edits(hist):
                tid = event.id.txn
                # Only a begin that is not last in a non-init session is
                # built by full validation instead of derived.
                carried = event.kind != BEGIN or (
                    tid.session >= 0
                    and all(t < tid for t in hist.sessions.get(tid.session, ()))
                )
                full, full_err = _outcome(lambda: _full_edit(hist, event, writer))
                if event.kind == BEGIN:
                    derived, err = _outcome(lambda: hist.with_begin(event.id.txn))
                else:
                    derived, err = _outcome(lambda: hist.with_event(event, writer))
                assert err == full_err, (event, writer)
                if full is not None:
                    _assert_same_value(derived, full, HISTORY_RELATIONS, carried)
                order = current.order + (event.id,)
                full_oh = (
                    None if full is None else _outcome(lambda: OrderedHistory(full, order))[0]
                )
                oh, _ = _outcome(lambda: current.append(event, writer))
                assert (oh is None) == (full_oh is None), (event, writer)
                if oh is not None:
                    _assert_same_value(oh, full_oh, ORDER_RELATIONS, True)
                    _assert_same_value(oh.history, full, HISTORY_RELATIONS, carried)
                    accepted.append(oh)
            if not accepted:
                break
            current = rng.choice(accepted)


T2 = TxnId(2, 0)


def _three_outcomes() -> History:
    """Init on x, then T0 committed, T1 aborted and T2 pending after a read."""
    h = OrderedHistory.initial(("x",))
    for event, writer in [
        (begin_event(T0), None), (write_event(T0, 1, "x", 1), None), (commit_event(T0, 2), None),
        (begin_event(T1), None), (abort_event(T1, 1), None),
        (begin_event(T2), None), (read_event(T2, 1, "x"), T0),
    ]:
        h = h.append(event, writer)
    return h.history


WITH_EVENT_REJECTIONS = {
    "after a commit": (
        write_event(T0, 3, "x", 2), None,
        "transaction TxnId(session=0, index=0) continues past commit",
    ),
    "after an abort": (
        commit_event(T1, 2), None,
        "transaction TxnId(session=1, index=0) continues past abort",
    ),
    "a begin at index 2": (
        Event(EventId(T2, 2), BEGIN), None,
        "transaction TxnId(session=2, index=0) has a non-initial begin",
    ),
    "a wrong index": (
        write_event(T2, 3, "x", 2), None,
        "event EventId(txn=TxnId(session=2, index=0), index=3) is not the next of "
        "TxnId(session=2, index=0)",
    ),
    "a writer on a write": (write_event(T2, 2, "x", 2), T0, "only reads take a writer"),
}


@pytest.mark.parametrize("case", sorted(WITH_EVENT_REJECTIONS))
def test_with_event_rejects_what_no_log_continues_with(case):
    """``History.with_event`` refuses each input with the message the
    validating constructor gives for it."""
    event, writer, message = WITH_EVENT_REJECTIONS[case]
    with pytest.raises(ValueError) as caught:
        _three_outcomes().with_event(event, writer)
    assert str(caught.value) == message


def test_with_event_tells_an_internal_read_by_the_open_logs_writes():
    """A read of a variable its open transaction already wrote takes no
    writer in ``History.with_event``, with the validating constructor's
    message; a read of another variable still takes one."""
    h = History((init_log("x", "y"), TransactionLog(T0, (begin_event(T0),))), ())
    h = h.with_event(write_event(T0, 1, "y", 1))
    h = h.with_event(read_event(T0, 2, "x"), INIT_TXN)
    assert h.wr_map == {EventId(T0, 2): INIT_TXN}
    read_y = read_event(T0, 3, "y")
    with pytest.raises(ValueError) as caught:
        h.with_event(read_y, INIT_TXN)
    with pytest.raises(ValueError) as built:
        History((h.logs[0], TransactionLog(T0, h.by_id[T0].events + (read_y,))),
                h.wr + ((read_y.id, INIT_TXN),))
    assert str(caught.value) == str(built.value) == (
        f"read {read_y.id} is internal, cannot have a writer"
    )
    assert h.with_event(read_y).derivation[1:] == (read_y, None, False)


def _assert_derived_state_is_fresh(h: History) -> None:
    """Each log of ``h`` equals its events rebuilt through validation, with
    equal ``status``, ``write_set`` and ``read_set``, and ``h.writers``
    equals a full scan of the rebuilt logs, order included."""
    scan: dict[str, list[TxnId]] = {}
    for log in h.logs:
        fresh = TransactionLog(log.id, log.events)
        assert log == fresh
        assert (log.status, log.write_set, log.read_set) == (
            fresh.status, fresh.write_set, fresh.read_set
        ), log.id
        for var in fresh.write_set:
            scan.setdefault(var, []).append(log.id)
    assert h.writers == {var: tuple(ts) for var, ts in scan.items()}


DERIVED_WALKS = [("explore_ce", lv) for lv in ("rc", "ra", "cc")] + [("dfs", "ser"), ("dfs", "si")]


@pytest.mark.parametrize("walk, level", DERIVED_WALKS, ids=[f"{w}-{lv}" for w, lv in DERIVED_WALKS])
def test_entered_states_carry_the_logs_and_writers_full_construction_gives(
    walk, level, monkeypatch
):
    """Every state the walk enters, on the examples and 40 random programs,
    carries logs and a writer index equal to those built from scratch."""
    level = IsolationLevel.from_name(level)
    rng = random.Random(14)
    sources = [EXAMPLE_PROGRAMS[name] for name in sorted(EXAMPLE_PROGRAMS)]
    sources += [random_program(rng) for _ in range(40)]
    entered = 0

    def check(st) -> None:
        nonlocal entered
        _assert_derived_state_is_fresh(st.history.history)
        entered += 1

    if walk == "dfs":
        def checked_advance(*args):
            child = advance(*args)
            check(child)
            return child

        monkeypatch.setattr(explorer, "advance", checked_advance)
        for source in sources:
            dfs(parse(source), level)
    else:
        for source in sources:
            explore_ce(parse(source), level, entry_hook=lambda _, st: check(st))
    assert entered > 1000


def _full_drop(h: OrderedHistory, dropped: set[EventId]) -> OrderedHistory:
    """``drop_events`` built by full validation: every surviving log rebuilt,
    the same orphaned-read check, then the validating constructors."""
    logs = []
    for log in h.history.logs:
        events = tuple(ev for ev in log.events if ev.id not in dropped)
        if events:
            logs.append(TransactionLog(log.id, events))
    survivors = {log.id: log for log in logs}
    wr = []
    for read_id, writer in h.history.wr:
        if read_id in dropped:
            continue
        wlog = survivors.get(writer)
        if wlog is None or not wlog.writes_var(h.history.event(read_id).var):
            raise ValueError(
                f"dropping writer events of {writer} while read {read_id} survives"
            )
        wr.append((read_id, writer))
    order = tuple(eid for eid in h.order if eid not in dropped)
    return OrderedHistory(History(tuple(logs), tuple(sorted(wr))), order)


def _drop_sets(rng: random.Random, oh: OrderedHistory) -> list[tuple[str, set[EventId]]]:
    """Named drop sets for ``oh``: each kind the history admits, plus random
    sets and random suffixes of the order."""
    h = oh.history
    out = [("empty", set()), ("init event", {rng.choice(h.txn(INIT_TXN).events).id})]
    for log in h.logs:
        if len(log.events) >= 3:
            out.append(("middle event", {log.events[rng.randrange(1, len(log.events) - 1)].id}))
        if log.status == PENDING and log.id != INIT_TXN:
            k = rng.randrange(len(log.events))
            out.append(("pending suffix", {ev.id for ev in log.events[k:]}))
    for _, writer in h.wr:
        out.append(("writer of a surviving read", {ev.id for ev in h.txn(writer).events}))
    events = list(oh.order)
    for _ in range(3):
        out.append(("random", set(rng.sample(events, rng.randrange(len(events) + 1)))))
        out.append(("order suffix", set(events[rng.randrange(len(events) + 1):])))
    return out


def test_derived_drop_matches_full_construction():
    """``drop_events`` derived from its valid parent equals the same cut built
    by full validation, with equal derived relations and the same
    consistency verdict, and raises exactly when full construction raises,
    with the same message.  Parents are random histories, their prefixes,
    and the states explore_ce enters on the example programs."""
    rng = random.Random(0)
    parents = []
    for seed in range(120):
        h = histories(seed)
        parents += [canonical_sort(h), canonical_sort(random_prefix(rng, h))]
    for name in sorted(EXAMPLE_PROGRAMS):
        prog = parse(EXAMPLE_PROGRAMS[name])
        explore_ce(prog, IsolationLevel.CC, entry_hook=lambda _, st: parents.append(st.history))
    outcomes: dict[str, set[bool]] = {}
    for oh in parents:
        for kind, dropped in _drop_sets(rng, oh):
            full, full_err = _outcome(lambda: _full_drop(oh, dropped))
            derived, err = _outcome(lambda: drop_events(oh, dropped))
            assert err == full_err, (kind, dropped)
            outcomes.setdefault(kind, set()).add(err is None)
            if full is not None:
                _assert_same_value(derived, full, ORDER_RELATIONS, False)
                _assert_same_value(derived.history, full.history, HISTORY_RELATIONS, False)
                for level in (IsolationLevel.RC, IsolationLevel.CC):
                    assert check_consistency(derived.history, level) == check_consistency(
                        full.history, level
                    )
    # An empty drop always passes; losing an init event, a middle event or
    # the writer of a surviving read always raises; the rest do both.
    assert outcomes == {
        "empty": {True},
        "init event": {False},
        "middle event": {False},
        "writer of a surviving read": {False},
        "pending suffix": {True, False},
        "random": {True, False},
        "order suffix": {True, False},
    }


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------


def test_encoding_is_json_with_stable_top_level_shape():
    doc = json.loads(canonical_encode(causal_cycle_history()))
    assert sorted(doc) == ["so", "txns", "wr"]
    assert [t["id"] for t in doc["txns"]] == [[-1, 0], [0, 0], [0, 1], [1, 0], [1, 1]]


def test_encoding_distinguishes_single_edge_changes():
    full, _, _ = containment_trio()
    rewired = History(
        logs=full.logs,
        wr=tuple(
            sorted(
                [
                    (EventId(TxnId(0, 0), 1), TRIO_WRITER),
                    (EventId(TxnId(0, 0), 2), INIT_TXN),
                    (EventId(TxnId(2, 0), 1), INIT_TXN),
                ]
            )
        ),
    )
    assert canonical_encode(full) != canonical_encode(rewired)


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 10_000))
def test_encoding_round_trips(seed):
    h = histories(seed)
    assert canonical_decode(canonical_encode(h)) == h


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 10_000))
def test_encoding_collides_only_on_equal_histories(seed):
    rng = random.Random(seed)
    a, b = random_history(rng), random_history(rng)
    assert (canonical_encode(a) == canonical_encode(b)) == (a == b)


def _reference_encode(h: History) -> bytes:
    """The canonical encoding as one ``json.dumps`` of the whole history, the
    way it was computed before logs cached their fragments."""

    def event_obj(ev: Event) -> dict:
        obj: dict = {"index": ev.id.index, "kind": ev.kind}
        if ev.var is not None:
            obj["var"] = ev.var
        if ev.value is not None:
            obj["value"] = ev.value
        return obj

    obj = {
        "txns": [
            {"id": list(log.id), "events": [event_obj(ev) for ev in log.events],
             "status": log.status}
            for log in h.logs
        ],
        "so": {
            str(session): [list(t) for t in txns]
            for session, txns in sorted(h.sessions.items())
        },
        "wr": [
            [[rid.txn.session, rid.txn.index, rid.index], list(writer)]
            for rid, writer in h.wr
        ],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


ODD_VAR = 'q"\\\u00fc'  # a quote, a backslash and a non-ASCII letter


def _twelve_sessions() -> History:
    """One transaction per session 0..11, aborted and pending logs, a
    negative value, a value beyond 2**63 and an odd variable name."""
    logs = [init_log("x", ODD_VAR)]
    wr = []
    for k in range(12):
        t = TxnId(k, 0)
        logs.append(TransactionLog(t, (begin_event(t), write_event(t, 1, "x", -k),
                                       write_event(t, 2, ODD_VAR, 2**64 + k),
                                       commit_event(t, 3))))
        if k in (3, 11):
            t2 = TxnId(k, 1)
            tail = abort_event(t2, 2) if k == 3 else read_event(t2, 2, ODD_VAR)
            logs.append(TransactionLog(t2, (begin_event(t2), read_event(t2, 1, "x"), tail)))
            wr.append((EventId(t2, 1), TxnId(10, 0)))
            if k == 11:
                wr.append((EventId(t2, 2), INIT_TXN))
    return History(tuple(logs), tuple(sorted(wr)))


# Sessions s0..s10 each write their own variable; s0 then reads s10's and
# s10 reads s1's, so the program has a few histories.
ELEVEN_SESSIONS = "\n".join(
    f"session s{k} {{ txn {{ write(v{k}, {k - 5}); }}"
    + {0: " txn { a = read(v10); }", 10: " txn { b = read(v1); }"}.get(k, "")
    + " }"
    for k in range(11)
)


def test_encoding_matches_the_json_dumps_reference():
    """The encoding assembled from cached log fragments is byte-identical to
    one ``json.dumps(sort_keys=True)`` of the whole history."""
    rng = random.Random(1)
    cases = []
    for seed in range(150):
        h = histories(seed)
        cases += [h, random_prefix(rng, h)]
    for name in sorted(EXAMPLE_PROGRAMS):
        for level in (IsolationLevel.CC, IsolationLevel.RC):
            explore_ce(parse(EXAMPLE_PROGRAMS[name]), level,
                       entry_hook=lambda _, st: cases.append(st.history.history))
    many = _twelve_sessions()
    cases.append(many)
    assert {log.status for log in many.logs} == {COMMITTED, ABORTED, PENDING}
    for h in cases:
        assert canonical_encode(h) == _reference_encode(h)
    encoded = canonical_encode(many)
    assert encoded.index(b'"10":') < encoded.index(b'"2":')
    assert b'"var":"q\\"\\\\\\u00fc"' in encoded
    assert b"18446744073709551617" in encoded and b'"value":-11' in encoded
    assert canonical_encode(canonical_decode(encoded)) == encoded


def test_encoding_of_an_eleven_session_program_matches_the_reference():
    emitted = []
    stats = explore_ce(parse(ELEVEN_SESSIONS), IsolationLevel.CC,
                       emit=lambda st: emitted.append(st.history.history))
    assert stats.outputs == len(emitted) > 1
    for h in emitted:
        encoded = canonical_encode(h)
        assert encoded == _reference_encode(h)
        assert encoded.index(b'"10":') < encoded.index(b'"2":')


def test_log_fragment_is_computed_on_first_encoding_only():
    h = causal_cycle_history()
    assert not any("fragment" in vars(log) for log in h.logs)
    canonical_encode(h)
    assert all("fragment" in vars(log) for log in h.logs)


@settings(max_examples=100, derandomize=True)
@given(st.integers(0, 10_000))
def test_encoded_bytes_round_trip(seed):
    rng = random.Random(seed)
    h = random_history(rng)
    for data in (canonical_encode(h), canonical_encode(random_prefix(rng, h))):
        assert canonical_encode(canonical_decode(data)) == data


def _one_read_document() -> dict:
    """A decoded encoding: init writes x, T0 reads it and writes 1."""
    t = TxnId(0, 0)
    log = TransactionLog(t, (begin_event(t), read_event(t, 1, "x"),
                             write_event(t, 2, "x", 1), commit_event(t, 3)))
    return json.loads(canonical_encode(History((init_log("x"), log),
                                               ((EventId(t, 1), INIT_TXN),))))


def _set(path: tuple, value):
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return doc

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: {}, "must have the keys"),
        (lambda doc: [], "must be an object"),
        (lambda doc: dict(doc, extra=1), "must have the keys"),
        (_set(("txns",), {}), "txns must be a list"),
        (_set(("txns", 1, "id"), [-1]), "transaction id must be a list of 2"),
        (_set(("txns", 1, "id"), [0, True]), "transaction id must be an integer"),
        (_set(("txns", 1, "events", 2, "value"), "zero"), "value must be an integer"),
        (_set(("txns", 1, "events", 2, "value"), True), "value must be an integer"),
        (_set(("txns", 1, "events", 2, "index"), 2.0), "event index must be an integer"),
        (_set(("txns", 1, "events", 2, "kind"), 7), "event kind must be a string"),
        (_set(("txns", 1, "events", 2, "var"), None), "variable must be a string"),
        (_set(("txns", 1, "events", 2, "size"), 1), "must have the keys"),
        (_set(("txns", 1, "status"), 1), "status must be a string"),
        (_set(("txns", 1, "status"), "pending"), "status mismatch"),
        (_set(("wr", 0), [[0, 0, 1]]), "wr edge must be a list of a read and a writer"),
        (_set(("wr", 0, 1), [-1, False]), "wr writer must be an integer"),
        (_set(("so",), {"0": [[5, 5]]}), "so disagrees"),
        (_set(("so",), {}), "so disagrees"),
        (_set(("so",), {"0": [[0, False]]}), "so entry must be an integer"),
    ],
)
def test_decode_rejects_what_no_history_encodes_to(edit, message):
    valid = _one_read_document()
    assert canonical_decode(json.dumps(valid))
    with pytest.raises(ValueError, match=message):
        canonical_decode(json.dumps(edit(valid)))


@pytest.mark.parametrize("text", ["", "{", "[" * 100_000], ids=["empty", "cut", "deep"])
def test_decode_rejects_malformed_json(text):
    with pytest.raises(ValueError):
        canonical_decode(text)


# ---------------------------------------------------------------------------
# Allocation tracking
# ---------------------------------------------------------------------------


def test_memory_tracker_counts_live_and_peak_bytes():
    with track_history_memory() as tracker:
        h = causal_cycle_history()
        first = tracker.live_bytes
        assert first > 0
        causal_cycle_history()
        assert tracker.peak_bytes >= first
        assert tracker.max_history_bytes > 0
        assert tracker.registered == 2
    del h
