"""Consistency checking: saturation, order search and the brute-force oracle."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CYCLE_T1,
    CYCLE_T2,
    CYCLE_VERDICTS,
    SNAP_RIGHT,
    causal_cycle_history,
    init_log,
    pending_reader_extension,
    pending_writer_extension,
    run_fresh,
    snapshot_blocker,
)
from txndpor import isolation
from txndpor.explorer import causal_extension_exists
from txndpor.generate import random_history, random_prefix, random_program
from txndpor.isolation import (
    _commit_order,
    axiom_instances,
    brute_force_consistency,
    brute_force_consistency_cached,
    check_consistency,
    find_commit_order,
    forced_edges,
    total_order_satisfies,
)
from txndpor.model import (
    ABORT,
    COMMITTED,
    INIT_TXN,
    EventId,
    History,
    IsolationLevel,
    TransactionLog,
    TxnId,
    abort_event,
    begin_event,
    commit_event,
    read_event,
    write_event,
)
from txndpor.program import ExplorationState, apply_event, parse, step_local

ALL_LEVELS = (
    IsolationLevel.RC,
    IsolationLevel.RA,
    IsolationLevel.CC,
    IsolationLevel.SI,
    IsolationLevel.SER,
)


# ---------------------------------------------------------------------------
# Frozen verdicts on the causal-cycle history
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("level", list(CYCLE_VERDICTS))
def test_cycle_history_verdicts(level):
    """The x-overwriter sits causally before a reader of the old x, which
    only read committed tolerates."""
    h = causal_cycle_history()
    assert check_consistency(h, level) == CYCLE_VERDICTS[level]


@pytest.mark.parametrize("level", ALL_LEVELS)
def test_brute_force_agrees_on_cycle_history(level):
    h = causal_cycle_history()
    assert brute_force_consistency(h, level) == CYCLE_VERDICTS[level]


def test_saturation_forces_overwriter_before_observed_writer():
    h = causal_cycle_history()
    forced = forced_edges(h, IsolationLevel.CC)
    assert (CYCLE_T2, CYCLE_T1) in forced


def test_commit_order_witness_exists_only_when_consistent():
    h = causal_cycle_history()
    witness = find_commit_order(h, IsolationLevel.RC)
    assert witness is not None
    pos = {t: i for i, t in enumerate(witness.order)}
    assert total_order_satisfies(h, IsolationLevel.RC, pos)
    assert find_commit_order(h, IsolationLevel.CC) is None
    assert find_commit_order(h, IsolationLevel.SER) is None


def test_axiom_instances_cover_every_external_read_writer_pair():
    """One instance per (read, competing committed writer of its variable)."""
    h = causal_cycle_history()
    insts = axiom_instances(h)
    for inst in insts:
        assert inst.writer != inst.overwriter
        assert h.txn(inst.overwriter).writes_var(inst.var)
    keyed = {(i.var, i.read, i.writer, i.overwriter) for i in insts}
    assert len(keyed) == len(insts)


# ---------------------------------------------------------------------------
# The snapshot blocker
# ---------------------------------------------------------------------------


def test_concurrent_writers_history_passes_strong_levels():
    h, _ = snapshot_blocker()
    assert check_consistency(h, IsolationLevel.SI)
    assert check_consistency(h, IsolationLevel.SER)


def test_pending_side_cannot_take_conflicting_write_under_strong_levels():
    h, ext = snapshot_blocker()
    assert not causal_extension_exists(h, ext, IsolationLevel.SI)
    assert not causal_extension_exists(h, ext, IsolationLevel.SER)
    assert causal_extension_exists(h, ext, IsolationLevel.CC)


def test_extended_blocker_matches_direct_checks():
    h, ext = snapshot_blocker()
    right = h.txn(SNAP_RIGHT)
    grown = History(
        logs=(h.logs[0], h.logs[1], TransactionLog(SNAP_RIGHT, right.events + (ext,))),
        wr=h.wr,
    )
    assert not check_consistency(grown, IsolationLevel.SI)
    assert not check_consistency(grown, IsolationLevel.SER)
    assert check_consistency(grown, IsolationLevel.CC)


# ---------------------------------------------------------------------------
# Extensions under read atomic
# ---------------------------------------------------------------------------


def test_pending_reader_can_pick_up_a_causal_read():
    h, ext = pending_reader_extension()
    assert causal_extension_exists(h, ext, IsolationLevel.RA)


def test_pending_writer_can_be_blocked_from_writing():
    h, ext = pending_writer_extension()
    assert not causal_extension_exists(h, ext, IsolationLevel.RA)


# ---------------------------------------------------------------------------
# Properties against the brute-force oracle
# ---------------------------------------------------------------------------


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_saturation_and_search_agree_with_brute_force(seed):
    h = random_history(random.Random(seed))
    for level in ALL_LEVELS:
        assert check_consistency(h, level) == brute_force_consistency(h, level)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_levels_form_a_strength_chain(seed):
    """Anything serializable is snapshot-consistent, and so on downward."""
    h = random_history(random.Random(seed))
    chain = (
        IsolationLevel.SER,
        IsolationLevel.SI,
        IsolationLevel.CC,
        IsolationLevel.RA,
        IsolationLevel.RC,
    )
    verdicts = [check_consistency(h, level) for level in chain]
    for stronger, weaker in zip(verdicts, verdicts[1:]):
        assert not stronger or weaker


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_consistency_is_closed_under_containment(seed):
    rng = random.Random(seed)
    h = random_history(rng)
    p = random_prefix(rng, h)
    for level in ALL_LEVELS:
        if check_consistency(h, level):
            assert check_consistency(p, level)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_forced_edges_are_those_the_literal_premise_grants(seed):
    """The forced edges at RC, RA and CC are (overwriter, writer) of exactly
    the axiom instances whose premise ``_premise_static`` grants, and those
    of a set of readers are the instances those readers read: a random
    subset, and a transaction with what it reaches, as a read's edit asks."""
    rng = random.Random(seed)
    h = random_history(rng)
    for x in (h, random_prefix(rng, h)):
        t = rng.choice(x.txn_ids)
        subsets = (rng.sample(x.txn_ids, rng.randint(0, len(x.txn_ids))),
                   x.causal_closure[t] | {t})
        for level in (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC):
            granted = [i for i in axiom_instances(x) if isolation._premise_static(x, level, i)]
            assert forced_edges(x, level) == {(i.overwriter, i.writer) for i in granted}
            for readers in subsets:
                edges = set(isolation._forced_edges_of(x, level, readers, x.writers))
                assert edges == {(i.overwriter, i.writer) for i in granted if i.reader in readers}


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_commit_order_witnesses_validate(seed):
    h = random_history(random.Random(seed))
    for level in ALL_LEVELS:
        witness = find_commit_order(h, level)
        assert (witness is not None) == check_consistency(h, level)
        if witness is not None:
            pos = {t: i for i, t in enumerate(witness.order)}
            assert total_order_satisfies(h, level, pos)
            assert sorted(witness.order) == sorted(h.txn_ids)


def test_trivial_level_accepts_everything():
    assert check_consistency(causal_cycle_history(), IsolationLevel.TRUE)
    assert brute_force_consistency(causal_cycle_history(), IsolationLevel.TRUE)


def test_cached_brute_force_matches_uncached():
    h = causal_cycle_history()
    for level in ALL_LEVELS:
        assert brute_force_consistency_cached(h, level) == brute_force_consistency(
            h, level
        )
        assert brute_force_consistency_cached(h, level) == brute_force_consistency(
            h, level
        )


def test_init_only_history_is_consistent_everywhere():
    h = History(logs=(init_log("x"),), wr=())
    for level in ALL_LEVELS + (IsolationLevel.TRUE,):
        assert check_consistency(h, level)


def test_fractured_observation_is_rejected_even_by_read_committed():
    """Reading a writer's x and then the initial y, when that writer also
    wrote y, time-travels behind an already observed transaction."""
    reader = TxnId(0, 0)
    writer = TxnId(1, 0)
    r = TransactionLog(
        reader,
        (
            begin_event(reader),
            read_event(reader, 1, "x"),
            read_event(reader, 2, "y"),
            commit_event(reader, 3),
        ),
    )
    w = TransactionLog(
        writer,
        (
            begin_event(writer),
            write_event(writer, 1, "x", 2),
            write_event(writer, 2, "y", 2),
            commit_event(writer, 3),
        ),
    )
    h = History(
        logs=(init_log("x", "y"), r, w),
        wr=tuple(sorted([(EventId(reader, 1), writer), (EventId(reader, 2), INIT_TXN)])),
    )
    assert not check_consistency(h, IsolationLevel.RC)
    assert not brute_force_consistency(h, IsolationLevel.RC)


# ---------------------------------------------------------------------------
# The commit-order searches (SER, SI)
# ---------------------------------------------------------------------------


def _write_skew_history(m: int) -> History:
    """A reads y from init and writes x, B reads x from init and writes y,
    and m one-transaction sessions each write a variable of their own."""
    a, b = TxnId(0, 0), TxnId(1, 0)
    own = [f"z{i}" for i in range(m)]
    logs = [
        init_log("x", "y", *own),
        TransactionLog(a, (begin_event(a), read_event(a, 1, "y"),
                           write_event(a, 2, "x", 1), commit_event(a, 3))),
        TransactionLog(b, (begin_event(b), read_event(b, 1, "x"),
                           write_event(b, 2, "y", 1), commit_event(b, 3))),
    ]
    for i, var in enumerate(own):
        t = TxnId(i + 2, 0)
        logs.append(TransactionLog(t, (begin_event(t), write_event(t, 1, var, 1),
                                       commit_event(t, 2))))
    return History(tuple(logs), ((EventId(a, 1), INIT_TXN), (EventId(b, 1), INIT_TXN)))


def test_ser_fails_fast_on_write_skew_with_many_independent_sessions():
    """Neither of A and B can be ordered first at SER, whatever the order of
    the m bystanders; a search over orders instead of placed sets tries all
    m! of them (about 1 s at m = 8, and 7x more per added transaction)."""
    h = _write_skew_history(12)
    assert not check_consistency(h, IsolationLevel.SER)
    assert check_consistency(h, IsolationLevel.SI)


def _lost_update_history(m: int) -> History:
    """A and B both read x from init and write x, and m one-transaction
    sessions each write a variable of their own."""
    a, b = TxnId(0, 0), TxnId(1, 0)
    own = [f"z{i}" for i in range(m)]
    logs = [init_log("x", *own)]
    for t in (a, b):
        logs.append(TransactionLog(t, (begin_event(t), read_event(t, 1, "x"),
                                       write_event(t, 2, "x", 1), commit_event(t, 3))))
    for i, var in enumerate(own):
        t = TxnId(i + 2, 0)
        logs.append(TransactionLog(t, (begin_event(t), write_event(t, 1, var, 1),
                                       commit_event(t, 2))))
    return History(tuple(logs), ((EventId(a, 1), INIT_TXN), (EventId(b, 1), INIT_TXN)))


def test_si_fails_fast_on_lost_update_with_many_independent_sessions():
    """Whichever of A and B commits second overwrote the other while its
    snapshot still showed init; a search over orders instead of (placed,
    open) sets tries every order of the m bystanders first (15 s at m = 9)."""
    h = _lost_update_history(12)
    assert not check_consistency(h, IsolationLevel.SI)
    assert not check_consistency(h, IsolationLevel.SER)


def test_long_session_history_is_decided_without_deep_recursion():
    """Both searches keep their own stack: one session of 1,100 transactions
    is decided at SER and SI at the default recursion limit of a fresh
    interpreter."""
    code = (
        "import sys\n"
        "from txndpor.isolation import check_consistency\n"
        "from txndpor.model import (INIT_TXN, History, IsolationLevel, TransactionLog,\n"
        "    TxnId, begin_event, commit_event, write_event)\n"
        "assert sys.getrecursionlimit() < 1100\n"
        "def log(t, value):\n"
        "    events = (begin_event(t), write_event(t, 1, 'x', value), commit_event(t, 2))\n"
        "    return TransactionLog(t, events)\n"
        "logs = (log(INIT_TXN, 0),) + tuple(log(TxnId(0, i), i) for i in range(1100))\n"
        "h = History(logs, ())\n"
        "assert check_consistency(h, IsolationLevel.SER)\n"
        "assert check_consistency(h, IsolationLevel.SI)\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def _first_valid_extension(h: History, level: IsolationLevel) -> tuple[TxnId, ...] | None:
    """The first so/wr linear extension, in ``txn_ids`` order, that the
    literal axioms accept."""
    base = h.so_pairs | h.wr_txn_pairs
    for order in itertools.permutations(h.txn_ids):  # lexicographic in txn_ids
        pos = {t: i for i, t in enumerate(order)}
        if all(pos[a] < pos[b] for a, b in base) and total_order_satisfies(h, level, pos):
            return order
    return None


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_order_search_witness_is_the_first_valid_extension(seed):
    rng = random.Random(seed)
    h = random_history(rng)
    for x in (h, random_prefix(rng, h)):
        assert len(x.txn_ids) <= 8
        for level in (IsolationLevel.SER, IsolationLevel.SI):
            witness = find_commit_order(x, level)
            expected = _first_valid_extension(x, level)
            assert (witness.order if witness else None) == expected, (x, level)


# ---------------------------------------------------------------------------
# Closures derived from the parent's (RC, RA, CC)
# ---------------------------------------------------------------------------

CLOSURE_LEVELS = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)


def _random_walk(rng: random.Random, program):
    """States of one random run: any session may begin next, and an
    external read observes any committed writer, consistent or not."""
    st = ExplorationState.initial(program)
    yield st
    while True:
        hist = st.history.history
        pending = hist.pending_txns()
        if pending:
            action = step_local(st, pending[0].session)
            writer = None
            if action.is_external_read:
                writer = rng.choice([
                    t for t in hist.txn_ids
                    if hist.txn(t).status == COMMITTED
                    and hist.txn(t).writes_var(action.event.var)
                ])
            st = apply_event(st, action.event, writer=writer)
        else:
            starts = [
                tid for s in range(len(program.sessions))
                if (tid := st.next_unstarted_txn(s)) is not None
            ]
            if not starts:
                return
            st = apply_event(st, begin_event(rng.choice(starts)))
        yield st


def _assert_derived_matches_full(h: History, level: IsolationLevel) -> bool:
    full = check_consistency(History(h.logs, h.wr), level)
    assert check_consistency(h, level) == full, (h, level)
    if len(h.txn_ids) <= 8:
        assert brute_force_consistency(h, level) == full, (h, level)
    return full


def test_derived_closures_agree_with_full_construction_and_brute_force():
    """Every step of random runs is checked at RC, RA and CC from its
    parent's cached closure; the verdict must equal full construction's
    (no cache) and the brute-force oracle's."""
    checks = inconsistent = 0
    for seed in range(400):
        rng = random.Random(seed)
        program = parse(random_program(rng))
        for _ in range(2):
            for step, st in enumerate(_random_walk(rng, program)):
                h = st.history.history
                for level in CLOSURE_LEVELS:
                    # The parent was checked one step earlier, so every
                    # check after the initial one takes the derived path.
                    assert step == 0 or level in h.derivation[0]
                    checks += 1
                    inconsistent += not _assert_derived_matches_full(h, level)
    assert checks > 20_000
    assert inconsistent > 500


def _checked(h: History) -> History:
    for level in CLOSURE_LEVELS:
        check_consistency(h, level)
    return h


def _log(tid: TxnId, *events) -> TransactionLog:
    return TransactionLog(tid, (begin_event(tid),) + events)


def test_derived_closure_when_the_extended_transaction_has_causal_successors():
    """t0 is still pending while its session successor t1 already read x
    from init.  t0 reading z from w puts w causally before t1, so w's x
    must precede init at CC (a cycle); t0 writing x puts t0 before t1's
    observed init at RA and CC."""
    t0, t1, w = TxnId(0, 0), TxnId(0, 1), TxnId(1, 0)
    h = _checked(History(
        (
            init_log("x", "z"),
            _log(t0),
            _log(t1, read_event(t1, 1, "x"), commit_event(t1, 2)),
            _log(w, write_event(w, 1, "x", 1), write_event(w, 2, "z", 1),
                 commit_event(w, 3)),
        ),
        ((EventId(t1, 1), INIT_TXN),),
    ))
    read = h.with_event(read_event(t0, 1, "z"), writer=w)
    write = h.with_event(write_event(t0, 1, "x", 2))
    verdicts = {IsolationLevel.RC: True, IsolationLevel.RA: True, IsolationLevel.CC: False}
    for level, expected in verdicts.items():
        assert _assert_derived_matches_full(read, level) == expected
        assert _assert_derived_matches_full(write, level) == (level is IsolationLevel.RC)


def test_derived_closure_of_an_inconsistent_parent():
    """Edits of an inconsistent history stay inconsistent, and an abort
    that removes the offending write makes it consistent again."""
    t0, t1, w = TxnId(0, 0), TxnId(0, 1), TxnId(1, 0)
    h = _checked(History(
        (
            init_log("x", "y"),
            _log(t0, write_event(t0, 1, "x", 2)),
            _log(t1, read_event(t1, 1, "x"), commit_event(t1, 2)),
            _log(w, write_event(w, 1, "y", 1), commit_event(w, 2)),
        ),
        ((EventId(t1, 1), INIT_TXN),),
    ))
    assert not check_consistency(h, IsolationLevel.RA)
    for child in (
        h.with_event(read_event(t0, 2, "y"), writer=w),
        h.with_event(write_event(t0, 2, "y", 3)),
        h.with_event(commit_event(t0, 2)),
    ):
        for level in CLOSURE_LEVELS:
            assert _assert_derived_matches_full(child, level) == (
                level is IsolationLevel.RC
            )
    aborted = h.with_event(abort_event(t0, 2))
    for level in CLOSURE_LEVELS:
        assert _assert_derived_matches_full(aborted, level)


def test_derived_closure_of_a_begin():
    h = _checked(causal_cycle_history())
    child = h.with_begin(TxnId(2, 0))
    for level in CLOSURE_LEVELS:
        assert _assert_derived_matches_full(child, level) == CYCLE_VERDICTS[level]


# ---------------------------------------------------------------------------
# Witness orders derived from the parent's (SER, SI)
# ---------------------------------------------------------------------------

WITNESS_LEVELS = (IsolationLevel.SER, IsolationLevel.SI)


def _count_searches(monkeypatch) -> list[int]:
    """Count the full searches :func:`check_consistency` runs from now on."""
    calls = [0]

    def counted(h, level):
        calls[0] += 1
        return _commit_order(h, level)

    monkeypatch.setattr(isolation, "_commit_order", counted)
    return calls


def _assert_witness_matches_search(h: History, level: IsolationLevel) -> bool:
    verdict = check_consistency(h, level)
    assert verdict == (_commit_order(h, level) is not None), (h, level)
    if len(h.txn_ids) <= 8:
        assert brute_force_consistency(h, level) == verdict, (h, level)
    return verdict


def test_derived_ser_si_verdicts_agree_with_full_search_and_brute_force(monkeypatch):
    """Every step of random runs, aborts included, is checked at SER and SI
    from its parent's cached witness; the verdict must equal the full
    search's and the brute-force oracle's, and most checks must be
    answered without a search."""
    searches = _count_searches(monkeypatch)
    checks = inconsistent = aborts = 0
    for seed in range(400):
        rng = random.Random(seed)
        program = parse(random_program(rng))
        for _ in range(2):
            for step, st in enumerate(_random_walk(rng, program)):
                h = st.history.history
                aborts += step > 0 and h.derivation[1].kind == ABORT
                for level in WITNESS_LEVELS:
                    # The parent was checked one step earlier, so every
                    # check after the initial one consults its witness.
                    assert step == 0 or level in h.derivation[0]
                    checks += 1
                    inconsistent += not _assert_witness_matches_search(h, level)
    assert checks > 20_000
    assert inconsistent > 1_000
    assert aborts > 200
    assert searches[0] < checks / 2


def _x_writer(tid: TxnId) -> TransactionLog:
    return _log(tid, write_event(tid, 1, "x", 1), commit_event(tid, 2))


T00, T01, T10 = TxnId(0, 0), TxnId(0, 1), TxnId(1, 0)


def _witness_edits():
    """(rule, parent, child, {level: (verdict, searched)}) for each rule of
    the isolation module docstring, with hand-worked verdicts."""
    init = init_log("x", "y")
    both_derived = {level: (True, False) for level in WITNESS_LEVELS}

    opened = History((init, _x_writer(T10)), ())
    yield "begin", opened, opened.with_begin(T00), both_derived

    writing = History((init, _log(T00, write_event(T00, 1, "x", 1))), ())
    for rule, event in (
        ("commit", commit_event(T00, 2)),
        ("abort", abort_event(T00, 2)),
        ("repeated write", write_event(T00, 2, "x", 2)),
        ("internal read", read_event(T00, 2, "x")),
    ):
        yield rule, writing, writing.with_event(event), both_derived

    # t0 wrote x while its session successor t1 read x from init: init <
    # t0 < t1 breaks both levels, and only aborting t0 mends it.
    broken = History(
        (init, _log(T00, write_event(T00, 1, "x", 2)),
         _log(T01, read_event(T01, 1, "x"), commit_event(T01, 2))),
        ((EventId(T01, 1), INIT_TXN),),
    )
    yield "abort of an inconsistent parent", broken, broken.with_event(
        abort_event(T00, 2)
    ), {level: (True, True) for level in WITNESS_LEVELS}

    reader_last = History((init, _x_writer(T00), _log(T10)), ())
    yield "read, writer before the reader", reader_last, reader_last.with_event(
        read_event(T10, 1, "x"), writer=T00
    ), {IsolationLevel.SER: (True, False), IsolationLevel.SI: (True, True)}

    # The parent's witness is (init, t0, t10): the fast path must fall
    # back, not answer False.
    reader_first = History((init, _log(T00), _x_writer(T10)), ())
    yield "read, writer after the reader", reader_first, reader_first.with_event(
        read_event(T00, 1, "x"), writer=T10
    ), {level: (True, True) for level in WITNESS_LEVELS}

    # t10 already read y from t01, so t01's x lies between t00 and t10.
    between = History(
        (init, _x_writer(T00),
         _log(T01, write_event(T01, 1, "x", 2), write_event(T01, 2, "y", 2),
              commit_event(T01, 3)),
         _log(T10, read_event(T10, 1, "y"))),
        ((EventId(T10, 1), T01),),
    )
    yield "read, a writer between", between, between.with_event(
        read_event(T10, 2, "x"), writer=T00
    ), {level: (False, True) for level in WITNESS_LEVELS}

    read_before = History(
        (init, _log(T00, read_event(T00, 1, "x"), commit_event(T00, 2)), _log(T10)),
        ((EventId(T00, 1), INIT_TXN),),
    )
    yield "first write after the reader", read_before, read_before.with_event(
        write_event(T10, 1, "x", 1)
    ), {IsolationLevel.SER: (True, False), IsolationLevel.SI: (True, True)}

    # The parent's witness is (init, t00, t10), where t00's new x would lie
    # between init and t10's read; t10 can still go first.
    read_after = History(
        (init, _log(T00), _log(T10, read_event(T10, 1, "x"), commit_event(T10, 2))),
        ((EventId(T10, 1), INIT_TXN),),
    )
    yield "first write before a reader", read_after, read_after.with_event(
        write_event(T00, 1, "x", 1)
    ), {level: (True, True) for level in WITNESS_LEVELS}

    successor_read = History(
        (init, _log(T00), _log(T01, read_event(T01, 1, "x"), commit_event(T01, 2))),
        ((EventId(T01, 1), INIT_TXN),),
    )
    yield "first write before a session successor's read", successor_read, (
        successor_read.with_event(write_event(T00, 1, "x", 2))
    ), {level: (False, True) for level in WITNESS_LEVELS}


@pytest.mark.parametrize("level", WITNESS_LEVELS)
def test_witness_rules_on_hand_built_edits(level, monkeypatch):
    searches = _count_searches(monkeypatch)
    for rule, parent, child, expected in _witness_edits():
        check_consistency(parent, level)
        before = searches[0]
        verdict = _assert_witness_matches_search(child, level)
        assert (verdict, searches[0] > before) == expected[level], (rule, level)


@pytest.mark.parametrize("level", WITNESS_LEVELS)
def test_find_commit_order_ignores_a_derived_witness(level):
    """A begin appends its transaction to the parent's witness, which is
    not the first valid extension; find_commit_order still finds that."""
    parent = History((init_log("x"), _x_writer(T10)), ())
    assert check_consistency(parent, level)
    child = parent.with_begin(T00)
    assert check_consistency(child, level)
    assert child.consistency_cache[level] == (INIT_TXN, T10, T00)
    assert find_commit_order(child, level).order == (INIT_TXN, T00, T10)
    assert _first_valid_extension(child, level) == (INIT_TXN, T00, T10)


def test_find_commit_order_is_the_full_search_after_derived_checks():
    """On random runs, find_commit_order returns the first valid extension
    whatever witness check_consistency has cached."""
    differing = 0
    for seed in range(60):
        rng = random.Random(seed)
        program = parse(random_program(rng))
        for st in _random_walk(rng, program):
            h = st.history.history
            for level in WITNESS_LEVELS:
                if not check_consistency(h, level):
                    continue
                found = find_commit_order(h, level).order
                assert found == _commit_order(History(h.logs, h.wr), level)
                if h.consistency_cache[level] != found:
                    differing += 1
                    if len(h.txn_ids) <= 6:
                        assert found == _first_valid_extension(h, level)
    assert differing > 100
