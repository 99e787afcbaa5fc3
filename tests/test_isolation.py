"""Consistency checking: saturation, order search and the brute-force oracle."""

from __future__ import annotations

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
    snapshot_blocker,
)
from txndpor.explorer import causal_extension_exists
from txndpor.generate import random_history, random_prefix
from txndpor.isolation import (
    axiom_instances,
    brute_force_consistency,
    brute_force_consistency_cached,
    check_consistency,
    find_commit_order,
    forced_edges,
    total_order_satisfies,
)
from txndpor.model import (
    INIT_TXN,
    EventId,
    History,
    IsolationLevel,
    TransactionLog,
    TxnId,
    begin_event,
    commit_event,
    read_event,
    write_event,
)

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
