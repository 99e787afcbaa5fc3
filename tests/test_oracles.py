"""Independent uniqueness checkers, validated against real runs."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    FLIP_FIRST_READ,
    FLIP_SECOND_READ,
    FLIP_X_WRITER,
    TRIO_READER_X,
    TRIO_READER_XY,
    TRIO_WRITER,
    abort_flip_baseline_state,
    containment_trio,
    entered_states,
    example,
    init_log,
    iterate_prev,
    order_positions,
)
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import explore_ce, swap, swapped
from txndpor.generate import random_history, random_program
from txndpor.model import (
    INIT_TXN,
    READ,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    begin_event,
    causally_before_or_equal,
    commit_event,
    write_event,
)
from txndpor.oracles import (
    canonical_order,
    canonical_sort,
    is_or_respectful,
    max_completion,
    minimal_dependency,
    prev,
)
from txndpor.program import ExplorationState, parse

# ---------------------------------------------------------------------------
# Canonical transaction order
# ---------------------------------------------------------------------------


def test_minimal_dependency_separates_unrelated_readers_in_one_step():
    full, _, _ = containment_trio()
    first, trace = minimal_dependency(full, TRIO_READER_XY, TRIO_READER_X)
    assert first is True
    assert len(trace.steps) == 1
    pivot, a, a2 = trace.steps[0]
    assert pivot is None
    assert (a.txn, a2.txn) == (TRIO_READER_XY, TRIO_READER_X)
    assert minimal_dependency(full, TRIO_READER_X, TRIO_READER_XY)[0] is False


def test_canonical_order_puts_causal_predecessors_first():
    full, _, _ = containment_trio()
    assert canonical_order(full, TRIO_WRITER, TRIO_READER_XY)
    assert not canonical_order(full, TRIO_READER_XY, TRIO_WRITER)
    assert canonical_order(full, TRIO_WRITER, TRIO_WRITER)


def test_canonical_sort_of_the_trio():
    full, _, _ = containment_trio()
    ordered = canonical_sort(full)
    first_seen = []
    for eid in ordered.order:
        if eid.txn not in first_seen:
            first_seen.append(eid.txn)
    assert first_seen == [INIT_TXN, TRIO_WRITER, TRIO_READER_XY, TRIO_READER_X]
    assert is_or_respectful(ordered)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_canonical_order_is_a_total_extension_of_causality(seed):
    h = random_history(random.Random(seed))
    txns = h.txn_ids
    for a in txns:
        for b in txns:
            before = canonical_order(h, a, b)
            after = canonical_order(h, b, a)
            assert before or after
            if a != b:
                assert not (before and after)
            if causally_before_or_equal(h, a, b):
                assert before


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_canonical_sort_is_contiguous_and_respectful_when_complete(seed):
    h = random_history(random.Random(seed))
    ordered = canonical_sort(h)
    # each transaction's events stay contiguous and in log order
    runs: list[TxnId] = []
    for eid in ordered.order:
        if not runs or runs[-1] != eid.txn:
            runs.append(eid.txn)
    assert len(runs) == len(set(runs))
    if not h.pending_txns():
        assert is_or_respectful(ordered)


def test_every_entered_node_follows_the_canonical_order():
    """The arrangement the enumerator maintains is the one the comparator
    computes from the bare history."""
    for name in ("abort_flip", "racing_reads", "cross_writes"):
        for _, node in entered_states(example(name), IsolationLevel.CC):
            h = node.history
            appearance: list[TxnId] = []
            for eid in h.order:
                if eid.txn not in appearance:
                    appearance.append(eid.txn)
            for i, a in enumerate(appearance):
                for b in appearance[i + 1 :]:
                    assert canonical_order(h.history, a, b)
                    assert not canonical_order(h.history, b, a) or a == b


# ---------------------------------------------------------------------------
# Order-respect
# ---------------------------------------------------------------------------


def _two_writers(complete: bool) -> History:
    a, b = TxnId(0, 0), TxnId(1, 0)
    wa = (begin_event(a), write_event(a, 1, "x", 1))
    wb = (begin_event(b), write_event(b, 1, "y", 1))
    if complete:
        wa += (commit_event(a, 2),)
        wb += (commit_event(b, 2),)
    return History(
        logs=(init_log("x", "y"), TransactionLog(a, wa), TransactionLog(b, wb)),
        wr=(),
    )


def _ordered(h: History, txns) -> OrderedHistory:
    return OrderedHistory(h, tuple(txns))


def test_priority_inversions_need_a_swapped_witness():
    h = _two_writers(complete=True)
    a, b = TxnId(0, 0), TxnId(1, 0)
    assert is_or_respectful(_ordered(h, (INIT_TXN, a, b)))
    assert not is_or_respectful(_ordered(h, (INIT_TXN, b, a)))


def test_two_pending_transactions_are_never_respectful():
    h = _two_writers(complete=False)
    assert not is_or_respectful(_ordered(h, (INIT_TXN, TxnId(0, 0), TxnId(1, 0))))


def test_unstarted_low_priority_transactions_count_when_declared():
    a, b = TxnId(0, 0), TxnId(1, 0)
    wb = TransactionLog(
        b, (begin_event(b), write_event(b, 1, "x", 1), commit_event(b, 2))
    )
    h = History(logs=(init_log("x"), wb), wr=())
    ordered = _ordered(h, (INIT_TXN, b))
    assert is_or_respectful(ordered)
    assert not is_or_respectful(ordered, static_txns=(a, b))


def test_swap_results_are_respectful():
    base = abort_flip_baseline_state()
    for r in (FLIP_FIRST_READ, FLIP_SECOND_READ):
        res = swap(base, r, FLIP_X_WRITER)
        assert is_or_respectful(res.history)


def test_every_entered_node_is_respectful():
    for name in ("abort_flip", "independent_pairs"):
        prog = example(name)
        static = tuple(
            TxnId(s, i)
            for s, sess in enumerate(prog.sessions)
            for i in range(len(sess.txns))
        )
        for _, node in entered_states(prog, IsolationLevel.CC):
            assert is_or_respectful(node.history, static_txns=static)


def _is_or_respectful_by_events(h: OrderedHistory, static_txns=None) -> bool:
    """The reference for ``is_or_respectful``: every pair of events, and
    every incomplete transaction against every event, compared by position."""
    hist = h.history
    if len(hist.pending_txns()) > 1:
        return False
    swapped_txns = {
        eid.txn
        for eid in h.order
        if hist.event(eid).kind == READ and eid in hist.wr_map and swapped(h, eid)
    }

    def witness(later_txn: TxnId, priority_bound: TxnId) -> bool:
        return any(
            w <= priority_bound and causally_before_or_equal(hist, later_txn, w)
            for w in swapped_txns
        )

    pos = order_positions(h)
    for e in h.order:
        for e2 in h.order:
            if e <= e2 and pos[e] > pos[e2]:
                if not witness(e2.txn, e.txn):
                    return False
    incomplete = list(hist.pending_txns())
    if static_txns is not None:
        incomplete.extend(t for t in static_txns if t != INIT_TXN and t not in hist.by_id)
    for u in incomplete:
        for e2 in h.order:
            if u < e2.txn and not witness(e2.txn, u):
                return False
    return True


def _linear_extension(rng: random.Random, h: History) -> list[TxnId]:
    """A random order of ``h``'s transactions that extends so union wr."""
    left, order = set(h.txn_ids), []
    while left:
        ready = sorted(t for t in left if h.causal_past[t].isdisjoint(left))
        order.append(rng.choice(ready))
        left.remove(order[-1])
    return order


def test_or_respect_matches_the_event_pairs_it_replaces():
    """The check by pairs of transactions gives the verdict of every pair of
    events compared by position: on the states explore_ce enters at cc and
    rc on the examples and 40 random programs, with and without the
    program's transactions, each also re-entered in a random order that
    extends so union wr, and on 200 random histories in such orders."""
    rng = random.Random(5)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(random_program(rng)) for _ in range(40)]
    cases = []
    for prog in programs:
        static = tuple(
            TxnId(s, i) for s, sess in enumerate(prog.sessions) for i in range(len(sess.txns))
        )
        for level in (IsolationLevel.CC, IsolationLevel.RC):
            for _, node in entered_states(prog, level):
                shuffled = _ordered(node.history.history, _linear_extension(rng, node.history.history))
                cases += [(node.history, static), (shuffled, static)]
    for _ in range(200):
        h = random_history(rng)
        cases.append((_ordered(h, _linear_extension(rng, h)), None))
    verdicts = []
    for h, static in cases:
        for txns in {None, static}:
            expected = _is_or_respectful_by_events(h, txns)
            assert is_or_respectful(h, txns) == expected, (h, txns)
            verdicts.append(expected)
    assert verdicts.count(True) > 1000 and verdicts.count(False) > 1000


# ---------------------------------------------------------------------------
# Unique predecessor
# ---------------------------------------------------------------------------


def test_the_starting_history_is_its_own_predecessor():
    prog = example("racing_reads")
    start = OrderedHistory.initial(prog.variables)
    assert prev(prog, start, IsolationLevel.CC) == start.history


def test_prev_reverses_forward_steps_and_swaps_alike():
    for name in ("abort_flip", "racing_reads", "pair_reader"):
        prog = example(name)
        pairs = entered_states(prog, IsolationLevel.CC)
        assert pairs[0][0] is None
        for parent, child in pairs[1:]:
            assert prev(prog, child.history, IsolationLevel.CC) == parent.history.history


def test_prev_rebuilds_the_completion_a_swap_tore_down():
    base = abort_flip_baseline_state()
    for r in (FLIP_FIRST_READ, FLIP_SECOND_READ):
        res = swap(base, r, FLIP_X_WRITER)
        assert prev(base.program, res.history, IsolationLevel.CC) == base.history.history


@pytest.mark.parametrize("level", ["rc", "ra", "cc"])
def test_prev_builds_what_full_validation_builds(level):
    """On every state explore_ce enters, on the examples and 40 random
    programs, ``prev``'s predecessor is the entered parent's history and
    equals the history the validating constructor builds from its logs and
    wr, which raises nothing: the removal of a last event that skips
    validation builds only valid histories."""
    level = IsolationLevel.from_name(level)
    rng = random.Random(9)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(random_program(rng)) for _ in range(40)]
    swaps = steps = 0
    for prog in programs:
        for parent, node in entered_states(prog, level)[1:]:
            p = prev(prog, node.history, level)
            assert p == History(p.logs, p.wr) == parent.history.history, node.history.order
            if swapped(node.history, node.history.order[-1]):
                swaps += 1
            else:
                steps += 1
    assert swaps > 20 and steps > 500


# frozen predecessor-chain lengths per emitted history, causal consistency
PREV_CHAINS = {
    "abort_flip": [12, 14, 18],
    "racing_reads": [12, 14, 17],
    "pair_reader": [8, 11],
}


@pytest.mark.parametrize("name", sorted(PREV_CHAINS))
def test_predecessor_chains_reach_the_start(name):
    prog = example(name)
    finals = []
    explore_ce(prog, IsolationLevel.CC, emit=finals.append)
    lengths = set()
    for terminal in finals:
        chain = list(iterate_prev(prog, terminal.history, IsolationLevel.CC))
        again = list(iterate_prev(prog, terminal.history, IsolationLevel.CC))
        assert chain == again
        assert all(log.id == INIT_TXN for log in chain[-1].logs)
        assert not any(
            all(log.id == INIT_TXN for log in h.logs) for h in chain[:-1]
        )
        lengths.add(len(chain))
    assert sorted(lengths) == PREV_CHAINS[name]


def test_iterate_prev_enforces_its_limit():
    prog = example("racing_reads")
    finals = []
    explore_ce(prog, IsolationLevel.CC, emit=finals.append)
    with pytest.raises(RuntimeError, match="did not reach"):
        list(iterate_prev(prog, finals[0].history, IsolationLevel.CC, limit=2))


# ---------------------------------------------------------------------------
# Deterministic completion
# ---------------------------------------------------------------------------


def test_completion_below_the_lowest_priority_does_nothing():
    prog = example("racing_reads")
    done = max_completion(ExplorationState.initial(prog), TxnId(0, 0), IsolationLevel.CC)
    assert done.history.history.txn_ids == (INIT_TXN,)


def test_completion_above_everything_runs_the_whole_program():
    prog = example("racing_reads")
    done = max_completion(ExplorationState.initial(prog), TxnId(99, 0), IsolationLevel.CC)
    h = done.history.history
    assert not h.pending_txns()
    assert len(h.txn_ids) == 5
    # no writer is causally ahead of either read, so both observe the start
    assert {writer for _, writer in h.wr} == {INIT_TXN}
