"""Consistency checking: saturation, order search and the brute-force oracle."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    CYCLE_T1,
    CYCLE_T2,
    CYCLE_VERDICTS,
    SNAP_RIGHT,
    assert_causal_past_matches_full_construction,
    causal_cycle_history,
    committed_writers_by_scan,
    init_log,
    pending_reader_extension,
    pending_writer_extension,
    random_prefix,
    run_fresh,
    snapshot_blocker,
)
from txndpor import isolation
from txndpor.explorer import (
    _reorderings,
    _schedule,
    _Trace,
    causal_extension_exists,
)
from txndpor.generate import random_history, random_program
from txndpor.isolation import (
    _commit_order,
    _forced_after,
    _verdict as _forced_closure,
    _witness_after,
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
    BEGIN,
    COMMIT,
    INIT_TXN,
    WRITE,
    Event,
    EventId,
    History,
    IsolationLevel,
    TransactionLog,
    TxnId,
    abort_event,
    begin_event,
    closure_with_edges,
    commit_event,
    read_event,
    write_event,
)
from txndpor.program import ExplorationState, NextAction, parse

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
                   {u for u, past in x.causal_past.items() if t in past} | {t})
        for level in (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC):
            granted = [i for i in axiom_instances(x) if isolation._premise_static(x, level, i)]
            assert forced_edges(x, level) == {(i.overwriter, i.writer) for i in granted}
            for readers in subsets:
                edges = set(isolation._forced_edges_of(x, level, readers))
                assert edges == {(i.overwriter, i.writer) for i in granted if i.reader in readers}


@pytest.mark.parametrize("level", [IsolationLevel.TRUE, IsolationLevel.SI, IsolationLevel.SER])
def test_forced_edges_name_a_level_without_an_order_free_premise(level):
    with pytest.raises(ValueError, match=f"^no order-free premise for {level.value}$"):
        forced_edges(causal_cycle_history(), level)


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
    base = [(a, b) for a, succ in h.causal_adjacency.items() for b in succ]
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


def _smallest_first(past: dict[TxnId, frozenset[TxnId]]) -> tuple[TxnId, ...]:
    """The reference witness below SI: repeatedly take the smallest
    transaction whose predecessors in ``past`` are all taken."""
    order: list[TxnId] = []
    left = sorted(past)
    while left:
        first = next(t for t in left if past[t].isdisjoint(left))
        order.append(first)
        left.remove(first)
    return tuple(order)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_weak_witness_is_the_smallest_first_order_of_the_closure(seed):
    """At RC, RA, CC and TRUE the frontier search returns the smallest-first
    topological order of the forced closure (the causal past at TRUE),
    built here from scratch, and None exactly when that closure is None."""
    rng = random.Random(seed)
    h = random_history(rng, max_txns=7)
    for x in (h, random_prefix(rng, h)):
        for level in (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC, IsolationLevel.TRUE):
            past = x.causal_past
            if level is not IsolationLevel.TRUE:
                past = closure_with_edges(past, forced_edges(x, level))
            witness = find_commit_order(x, level)
            assert (witness is None) == (past is None), (x, level)
            if past is not None:
                assert witness.order == _smallest_first(past), (x, level)


# ---------------------------------------------------------------------------
# Closures derived from the parent's (RC, RA, CC)
# ---------------------------------------------------------------------------

CLOSURE_LEVELS = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)


def _random_walk(rng: random.Random, program, levels):
    """One random run, on one trace per level: any session may begin next,
    and an external read observes any committed writer, consistent or not.
    Yields the last event (None at the start) and the traces, each
    standing just after it with its verdict derived from its parent's."""
    traces = [_Trace(ExplorationState.initial(program), level) for level in levels]
    yield None, traces
    lead = traces[0]
    while actions := list(_schedule(lead)):
        action = rng.choice(actions) if actions[0].event.kind == BEGIN else actions[0]
        writer = None
        if action.is_external_read:
            writers = lead.committed_writers(action.event.var)
            assert writers == committed_writers_by_scan(lead, action.event.var)
            writer = rng.choice(sorted(writers))
        for tr in traces:
            tr.push(action, writer)
            tr.enter(action, writer)
        yield action.event, traces


def _verdict(h: History, level: IsolationLevel):
    """``h``'s cached verdict at ``level``, checked first."""
    check_consistency(h, level)
    return h.consistency_cache[level]


def _edit(parent: History, event: Event, writer: TxnId | None, rule, level: IsolationLevel):
    """``parent`` extended by ``event`` (observing ``writer``), and the
    verdict ``rule`` (``_forced_after`` or ``_witness_after``) derives for
    it from ``parent``'s, with the arguments the trace gives it."""
    t = event.id.txn
    if event.kind == BEGIN:
        child = parent.with_begin(t, event)
    else:
        child = parent.with_event(event, writer)
    first_write = event.kind == WRITE and event.var not in parent.by_id[t].write_set
    return child, rule(child, level, _verdict(parent, level), event, writer, first_write)


def _assert_closure_matches_full(h: History, reach, level: IsolationLevel) -> bool:
    """``reach``, a forced closure derived for ``h``, is the one full
    construction computes, and its verdict the brute-force oracle's."""
    full = _forced_closure(History(h.logs, h.wr), level)
    assert reach == full, (h, level)
    if len(h.txn_ids) <= 8:
        assert brute_force_consistency(h, level) == (full is not None), (h, level)
    return full is not None


def _assert_pasts_of_pop_and_swaps(tr: _Trace, event: Event) -> int:
    """The trace popped back to just before ``event``, and, when ``event``
    commits, the trace of each swap its reorder candidates offer carry the
    causal past full construction gives.  Leaves the trace as it stood;
    returns the number of swap traces checked."""
    t = event.id.txn
    writer, entered = tr.undo[-1][1], tr.sessions[t.session]
    tr.pop()
    assert_causal_past_matches_full_construction(tr.state().history.history)
    tr.push(NextAction(event), writer)  # the push reads only the event
    tr.sessions[t.session] = entered
    if event.kind != COMMIT:
        return 0
    swaps = 0
    for cand in _reorderings(t, tr.starts, tr.by_id, tr.causal_past):
        new = tr.swap(cand.read, t)
        if new is not None:
            assert_causal_past_matches_full_construction(new.state().history.history)
            swaps += 1
    return swaps


def test_derived_closures_agree_with_full_construction_and_brute_force():
    """Every step of random runs is checked at RC, RA and CC on a trace,
    whose closure is derived from its parent's; it must equal full
    construction's (no cache), and the verdict the brute-force oracle's.
    After every push, pop, swap and swap cut on the RC trace the causal
    past is full construction's and the inverse of a search's successors."""
    checks = inconsistent = swaps = 0
    for seed in range(400):
        rng = random.Random(seed)
        program = parse(random_program(rng))
        for _ in range(2):
            for event, traces in _random_walk(rng, program, CLOSURE_LEVELS):
                for tr in traces:
                    # Derived by the push: the check is a cache hit.
                    assert tr.level in tr.consistency_cache
                    h = tr.state().history.history
                    checks += 1
                    verdict = _assert_closure_matches_full(h, tr.consistency_cache[tr.level], tr.level)
                    assert check_consistency(tr, tr.level) == verdict
                    inconsistent += not verdict
                # Pasts are the same at every level.
                assert_causal_past_matches_full_construction(traces[0].state().history.history)
                if event is not None:
                    swaps += _assert_pasts_of_pop_and_swaps(traces[0], event)
    assert checks > 20_000
    assert inconsistent > 500
    assert swaps > 400


def _checked(h: History) -> History:
    for level in CLOSURE_LEVELS:
        check_consistency(h, level)
    return h


def _log(tid: TxnId, *events) -> TransactionLog:
    return TransactionLog(tid, (begin_event(tid),) + events)


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
    for event, writer in (
        (read_event(t0, 2, "y"), w),
        (write_event(t0, 2, "y", 3), None),
        (commit_event(t0, 2), None),
    ):
        for level in CLOSURE_LEVELS:
            child, reach = _edit(h, event, writer, _forced_after, level)
            assert _assert_closure_matches_full(child, reach, level) == (
                level is IsolationLevel.RC
            )
    for level in CLOSURE_LEVELS:
        aborted, reach = _edit(h, abort_event(t0, 2), None, _forced_after, level)
        assert _assert_closure_matches_full(aborted, reach, level)


def test_derived_closure_of_a_begin():
    """A begin into a new session and one into an existing session."""
    h = _checked(causal_cycle_history())
    for level, txn in itertools.product(CLOSURE_LEVELS, (TxnId(2, 0), TxnId(0, 2))):
        child, reach = _edit(h, begin_event(txn), None, _forced_after, level)
        assert _assert_closure_matches_full(child, reach, level) == CYCLE_VERDICTS[level]


# ---------------------------------------------------------------------------
# Witness orders derived from the parent's (SER, SI)
# ---------------------------------------------------------------------------

WITNESS_LEVELS = (IsolationLevel.SER, IsolationLevel.SI)


def _count_searches(monkeypatch) -> Counter:
    """Count, per level, the full searches the checker and the trace run
    from now on."""
    calls: Counter = Counter()

    def counted(h, level, past):
        calls[level] += 1
        return _commit_order(h, level, past)

    monkeypatch.setattr(isolation, "_commit_order", counted)
    return calls


def _assert_witness_matches_search(h: History, order, level: IsolationLevel) -> bool:
    """``order``, a witness derived for ``h`` or None, is found exactly when
    full construction's search and the brute-force oracle find one, and
    is a linear extension of so/wr that satisfies the level."""
    full = History(h.logs, h.wr)
    verdict = order is not None
    assert verdict == (_commit_order(full, level, full.causal_past) is not None), (h, level)
    if len(h.txn_ids) <= 8:
        assert brute_force_consistency(h, level) == verdict, (h, level)
    if verdict:
        pos = {t: i for i, t in enumerate(order)}
        assert sorted(order) == list(full.txn_ids), (h, level)
        assert all(pos[a] < pos[b] for b, past in full.causal_past.items() for a in past)
        assert total_order_satisfies(full, level, pos), (h, level)
    return verdict


def test_derived_ser_si_verdicts_agree_with_full_search_and_brute_force(monkeypatch):
    """Every step of random runs, aborts included, is checked at SER and SI
    on a trace, whose witness is derived from its parent's; the verdict
    must equal the full search's and the brute-force oracle's, and most
    checks must be answered without a search.  Both levels refute some
    reads that are not causally latest without one."""
    searches = _count_searches(monkeypatch)
    refuted: Counter = Counter()
    checks = inconsistent = aborts = 0
    for seed in range(400):
        rng = random.Random(seed)
        program = parse(random_program(rng))
        for _ in range(2):
            before = searches.copy()  # the searches of the walk's next pushes
            for event, traces in _random_walk(rng, program, WITNESS_LEVELS):
                aborts += event is not None and event.kind == ABORT
                for tr in traces:
                    # Derived by the push: the check is a cache hit.
                    assert tr.level in tr.consistency_cache
                    h = tr.state().history.history
                    checks += 1
                    verdict = _assert_witness_matches_search(
                        h, tr.consistency_cache[tr.level], tr.level
                    )
                    assert check_consistency(tr, tr.level) == verdict
                    inconsistent += not verdict
                    refuted[tr.level] += (not verdict and event is not None
                                          and event.id in tr.wr_map
                                          and searches[tr.level] == before[tr.level])
                before = searches.copy()
    assert checks > 20_000
    assert inconsistent > 1_000
    assert aborts > 200
    assert sum(searches.values()) < checks / 2
    assert all(refuted[level] > 50 for level in WITNESS_LEVELS)


def _x_writer(tid: TxnId) -> TransactionLog:
    return _log(tid, write_event(tid, 1, "x", 1), commit_event(tid, 2))


T00, T01, T10 = TxnId(0, 0), TxnId(0, 1), TxnId(1, 0)


def _witness_edits():
    """(rule, parent, event, writer, {level: (verdict, searched)}) for each
    rule of the isolation module docstring, with hand-worked verdicts."""
    init = init_log("x", "y")
    both_derived = {level: (True, False) for level in WITNESS_LEVELS}

    opened = History((init, _x_writer(T10)), ())
    yield "begin", opened, begin_event(T00), None, both_derived

    writing = History((init, _log(T00, write_event(T00, 1, "x", 1))), ())
    for rule, event in (
        ("commit", commit_event(T00, 2)),
        ("abort", abort_event(T00, 2)),
        ("repeated write", write_event(T00, 2, "x", 2)),
        ("internal read", read_event(T00, 2, "x")),
    ):
        yield rule, writing, event, None, both_derived

    # t0 wrote x while its session successor t1 read x from init: init <
    # t0 < t1 breaks both levels, and only aborting t0 mends it.
    broken = History(
        (init, _log(T00, write_event(T00, 1, "x", 2)),
         _log(T01, read_event(T01, 1, "x"), commit_event(T01, 2))),
        ((EventId(T01, 1), INIT_TXN),),
    )
    yield "abort of an inconsistent parent", broken, abort_event(T00, 2), None, {
        level: (True, True) for level in WITNESS_LEVELS
    }

    reader_last = History((init, _x_writer(T00), _log(T10)), ())
    yield "read, writer before the reader", reader_last, read_event(T10, 1, "x"), T00, {
        IsolationLevel.SER: (True, False), IsolationLevel.SI: (True, True)
    }

    # The parent's witness is (init, t0, t10): the fast path must fall
    # back, not answer False.
    reader_first = History((init, _log(T00), _x_writer(T10)), ())
    yield "read, writer after the reader", reader_first, read_event(T00, 1, "x"), T10, {
        level: (True, True) for level in WITNESS_LEVELS
    }

    # t10 already read y from t01, so t01's x lies between t00 and t10.
    between = History(
        (init, _x_writer(T00),
         _log(T01, write_event(T01, 1, "x", 2), write_event(T01, 2, "y", 2),
              commit_event(T01, 3)),
         _log(T10, read_event(T10, 1, "y"))),
        ((EventId(T10, 1), T01),),
    )
    # t01 is causally before t10 and t00 before t01: refuted unsearched.
    yield "read, a writer between", between, read_event(T10, 2, "x"), T00, {
        level: (False, False) for level in WITNESS_LEVELS
    }

    # The parent's witness is (init, t00, t01, t10), with t01's x between
    # t00 and t10, but t01 is not causally before t10: t10 can go first.
    latest = History((init, _x_writer(T00), _x_writer(T01), _log(T10)), ())
    yield "read, causally latest, a writer between", latest, read_event(T10, 1, "x"), T00, {
        level: (True, True) for level in WITNESS_LEVELS
    }

    # Write skew: t00 read x from init and wrote y, t10 wrote x and reads y
    # from init.  The read is causally latest, so SER searches to refute it.
    skew = History(
        (init, _log(T00, read_event(T00, 1, "x"), write_event(T00, 2, "y", 1),
                    commit_event(T00, 3)),
         _log(T10, write_event(T10, 1, "x", 1))),
        ((EventId(T00, 1), INIT_TXN),),
    )
    yield "read, causally latest, write skew", skew, read_event(T10, 2, "y"), INIT_TXN, {
        IsolationLevel.SER: (False, True), IsolationLevel.SI: (True, True)
    }

    read_before = History(
        (init, _log(T00, read_event(T00, 1, "x"), commit_event(T00, 2)), _log(T10)),
        ((EventId(T00, 1), INIT_TXN),),
    )
    yield "first write after the reader", read_before, write_event(T10, 1, "x", 1), None, {
        IsolationLevel.SER: (True, False), IsolationLevel.SI: (True, True)
    }

    # The parent's witness is (init, t00, t10), where t00's new x would lie
    # between init and t10's read; t10 can still go first.
    read_after = History(
        (init, _log(T00), _log(T10, read_event(T10, 1, "x"), commit_event(T10, 2))),
        ((EventId(T10, 1), INIT_TXN),),
    )
    yield "first write before a reader", read_after, write_event(T00, 1, "x", 1), None, {
        level: (True, True) for level in WITNESS_LEVELS
    }

    successor_read = History(
        (init, _log(T00), _log(T01, read_event(T01, 1, "x"), commit_event(T01, 2))),
        ((EventId(T01, 1), INIT_TXN),),
    )
    yield "first write before a session successor's read", successor_read, (
        write_event(T00, 1, "x", 2)
    ), None, {level: (False, True) for level in WITNESS_LEVELS}


@pytest.mark.parametrize("level", WITNESS_LEVELS)
def test_witness_rules_on_hand_built_edits(level, monkeypatch):
    """Each rule of ``_witness_after``, applied to a hand-built edit from
    its parent's witness, gives the worked verdict, searching exactly when
    no rule keeps the parent's witness, and a valid witness."""
    searches = _count_searches(monkeypatch)
    for rule, parent, event, writer, expected in _witness_edits():
        _verdict(parent, level)
        before = searches[level]
        child, order = _edit(parent, event, writer, _witness_after, level)
        searched = searches[level] > before
        verdict = _assert_witness_matches_search(child, order, level)
        assert (verdict, searched) == expected[level], (rule, level)


@pytest.mark.parametrize("level", WITNESS_LEVELS)
def test_find_commit_order_ignores_a_derived_witness(level):
    """A begin appends its transaction to the parent's witness, which is
    not the first valid extension; find_commit_order still finds that."""
    parent = History((init_log("x"), _x_writer(T10)), ())
    assert check_consistency(parent, level)
    child, order = _edit(parent, begin_event(T00), None, _witness_after, level)
    assert order == (INIT_TXN, T10, T00)
    child.consistency_cache[level] = order
    assert check_consistency(child, level)
    assert find_commit_order(child, level).order == (INIT_TXN, T00, T10)
    assert _first_valid_extension(child, level) == (INIT_TXN, T00, T10)


def test_find_commit_order_is_the_full_search_after_derived_checks():
    """On random runs, find_commit_order returns the first valid extension
    whatever witness the trace has derived and its snapshot carries."""
    differing = 0
    for seed in range(60):
        rng = random.Random(seed)
        program = parse(random_program(rng))
        for _, traces in _random_walk(rng, program, WITNESS_LEVELS):
            for tr in traces:
                level = tr.level
                if not check_consistency(tr, level):
                    continue
                h = tr.state().history.history
                found = find_commit_order(h, level).order
                full = History(h.logs, h.wr)
                assert found == _commit_order(full, level, full.causal_past)
                if h.consistency_cache[level] != found:
                    differing += 1
                    if len(h.txn_ids) <= 6:
                        assert found == _first_valid_extension(h, level)
    assert differing > 100
