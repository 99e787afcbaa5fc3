"""The enumerator: scheduling, read swapping, the duplicate-freedom gate."""

from __future__ import annotations

import gc
import hashlib
import random
import re
from pathlib import Path

import pytest

from fixtures import (
    FLIP_ABORTING,
    FLIP_FIRST_READ,
    FLIP_SECOND_READ,
    FLIP_SECOND_READER,
    FLIP_X_WRITER,
    abort_flip_baseline_state,
    entered_states,
    example,
    run_fresh,
    track_history_memory,
)
from txndpor import explorer
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import (
    RunInterrupted,
    TimeLimitExceeded,
    _swap_base,
    _swap_drop_set,
    causal_extension_exists,
    compute_reorderings,
    dfs,
    explore_ce,
    explore_ce_star,
    next_event,
    optimality,
    reads_causally_latest,
    swap,
    swapped,
    valid_writes,
)
from txndpor.generate import random_program
from txndpor.isolation import check_consistency
from txndpor.model import (
    ABORT,
    ABORTED,
    BEGIN,
    COMMIT,
    COMMITTED,
    INIT_TXN,
    READ,
    WRITE,
    Event,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    begin_event,
    canonical_encode,
    causal_reachable,
    causally_before_or_equal,
    commit_event,
    drop_events,
    is_prefix,
    read_event,
    write_event,
)
from txndpor.program import (
    ExplorationState,
    NextAction,
    advance,
    apply_event,
    parse,
    replay,
    step_local,
)

EXTENSIBLE = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)
# History relations only full construction and the reference checkers read.
HISTORY_VIEWS = {"so_pairs", "causal_adjacency", "wr_txn_pairs"}
WALKS = [(explore_ce, level) for level in EXTENSIBLE] + [(dfs, IsolationLevel.SER)]


def _drive(st: ExplorationState, steps) -> ExplorationState:
    for event, writer in steps:
        st = apply_event(st, event, writer=writer)
    return st


# ---------------------------------------------------------------------------
# Scheduling
# ---------------------------------------------------------------------------


def test_next_event_prefers_the_lowest_session():
    action = next_event(ExplorationState.initial(example("racing_reads")))
    assert action.event.kind == "begin"
    assert action.event.id.txn == TxnId(0, 0)


def test_next_event_rejects_two_pending_transactions():
    st = ExplorationState.initial(example("racing_reads"))
    st = apply_event(st, begin_event(TxnId(0, 0)))
    st = apply_event(st, begin_event(TxnId(1, 0)))
    with pytest.raises(ValueError, match="multiple pending transactions"):
        next_event(st)


def test_next_event_returns_none_when_complete():
    states = []
    explore_ce(example("pair_reader"), IsolationLevel.RC, emit=states.append)
    assert all(next_event(s) is None for s in states)


def _schedule_by_scan(st: ExplorationState) -> list[NextAction]:
    """The reference for ``explorer._schedule``: the rule as ``next_event``
    and ``dfs`` each stated it, ``dfs``'s completeness test first, the open
    transaction found by scanning every log's status."""
    if all(
        not ls.in_txn and ls.txn_index == len(st.program.sessions[s].txns)
        for s, ls in enumerate(st.sessions)
    ):
        return []
    pending = st.history.history.pending_txns()
    if len(pending) > 1:
        raise ValueError(f"multiple pending transactions: {pending}")
    if pending:
        return [step_local(st, pending[0].session)]
    return [
        NextAction(begin_event(tid))
        for session in range(len(st.program.sessions))
        if (tid := st.next_unstarted_txn(session)) is not None
    ]


@pytest.mark.parametrize(
    "walk, level", WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in WALKS]
)
def test_schedule_matches_the_scan_it_replaces(walk, level, monkeypatch):
    """On every state the walk enters, on the examples, the gate's corner
    programs and 150 random programs, the scheduling rule read from the
    session states gives the reference's actions in the same order."""
    schedule = explorer._schedule
    checked = []

    def checked_schedule(st):
        actions = list(schedule(st))
        assert actions == _schedule_by_scan(st), st
        checked.append(len(actions))
        return iter(actions)

    monkeypatch.setattr(explorer, "_schedule", checked_schedule)
    rng = random.Random(13)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    programs += [parse(random_program(rng)) for _ in range(150)]
    nodes = 0
    for prog in programs:
        nodes += walk(prog, level).recursive_calls
    assert len(checked) == nodes
    assert checked.count(0) and checked.count(1) and max(checked) > 1


def test_dfs_rejects_two_pending_transactions(monkeypatch):
    st = ExplorationState.initial(example("racing_reads"))
    st = apply_event(st, begin_event(TxnId(0, 0)))
    st = apply_event(st, begin_event(TxnId(1, 0)))
    with pytest.raises(ValueError) as expected:
        next_event(st)
    monkeypatch.setattr(ExplorationState, "initial", classmethod(lambda cls, program: st))
    with pytest.raises(ValueError) as raised:
        dfs(st.program, IsolationLevel.SER)
    assert str(raised.value) == str(expected.value) == (
        "multiple pending transactions: "
        "(TxnId(session=0, index=0), TxnId(session=1, index=0))"
    )


# ---------------------------------------------------------------------------
# Which writers a read may observe
# ---------------------------------------------------------------------------


def _split_reads_probe():
    """split_reads after the first reader transaction observed y from the
    writer; the second reader transaction is open on its read of x."""
    prog = example("split_reads")
    w, r0, r1 = TxnId(0, 0), TxnId(1, 0), TxnId(1, 1)
    st = _drive(
        ExplorationState.initial(prog),
        [
            (begin_event(w), None),
            (write_event(w, 1, "x", 1), None),
            (write_event(w, 2, "y", 1), None),
            (commit_event(w, 3), None),
            (begin_event(r0), None),
            (read_event(r0, 1, "y"), w),
            (commit_event(r0, 2), None),
            (begin_event(r1), None),
        ],
    )
    return st, step_local(st, 1)


def test_valid_writes_narrow_with_the_level():
    st, action = _split_reads_probe()
    assert action.event.kind == READ and action.event.var == "x"
    writer = TxnId(0, 0)
    assert list(valid_writes(st, action, IsolationLevel.CC)) == [writer]
    assert list(valid_writes(st, action, IsolationLevel.RA)) == [INIT_TXN, writer]
    assert list(valid_writes(st, action, IsolationLevel.RC)) == [INIT_TXN, writer]
    assert list(valid_writes(st, action, IsolationLevel.TRUE)) == [INIT_TXN, writer]


def test_valid_writes_exclude_the_torn_observation():
    """pair_reader's second read cannot fall back to the initial y once the
    first read took the writer's x, even under read committed."""
    prog = example("pair_reader")
    rd, wr = TxnId(0, 0), TxnId(1, 0)
    st = _drive(
        ExplorationState.initial(prog),
        [
            (begin_event(wr), None),
            (write_event(wr, 1, "x", 2), None),
            (write_event(wr, 2, "y", 2), None),
            (commit_event(wr, 3), None),
            (begin_event(rd), None),
            (read_event(rd, 1, "x"), wr),
        ],
    )
    action = step_local(st, 0)
    assert action.event.var == "y"
    assert list(valid_writes(st, action, IsolationLevel.RC)) == [wr]
    assert list(valid_writes(st, action, IsolationLevel.RA)) == [wr]


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_reachable_reads_extend_causally_within_their_valid_writes(level):
    """At every entered state whose next action is an external read, the
    read extends observing a causal predecessor, and every causal
    predecessor it may consistently observe is one of its valid writes.
    The states valid_writes returns are the read applied to the state,
    keyed by exactly the committed writers, in order of entry, whose
    extended history is consistent."""
    reads = 0
    for name in sorted(EXAMPLE_PROGRAMS):
        for _, st in entered_states(example(name), level):
            action = next_event(st)
            if action is None or not action.is_external_read:
                continue
            reads += 1
            hist, event = st.history.history, action.event
            assert causal_extension_exists(hist, event, level)
            causal = {
                t
                for t in hist.txn_ids
                if causal_reachable(hist, t, event.id.txn)
                and hist.txn(t).writes_var(event.var)
                and check_consistency(hist.with_event(event, writer=t), level)
            }
            children = valid_writes(st, action, level)
            assert causal <= set(children)
            entered = dict.fromkeys(eid.txn for eid in st.history.order)
            consistent = [
                t
                for t in entered
                if hist.txn(t).status == COMMITTED
                and hist.txn(t).writes_var(event.var)
                and check_consistency(hist.with_event(event, writer=t), level)
            ]
            assert list(children) == consistent
            for t, child in children.items():
                assert child == apply_event(st, event, writer=t)
    assert reads


@pytest.mark.parametrize(
    "walk, level", WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in WALKS]
)
def test_walks_enter_the_states_the_checked_path_builds(walk, level, monkeypatch):
    """The walks apply the action they stepped with ``advance``, unchecked.
    Every state they build that way, of every event kind, equals
    ``apply_event`` of the same event and writer after its checks.  Every
    state ``explore_ce`` enters is ``apply_event`` of its last event on its
    parent, or, for a swapped state, ``swap`` of its parent."""
    kinds: set[str] = set()

    def checked_advance(st, action, writer=None, history=None):
        child = advance(st, action, writer, history)
        assert child == apply_event(st, action.event, writer)
        kinds.add(action.event.kind)
        return child

    monkeypatch.setattr(explorer, "advance", checked_advance)
    swaps = 0
    for name in sorted(EXAMPLE_PROGRAMS):
        if walk is dfs:
            assert dfs(example(name), level).outputs
            continue
        for parent, st in entered_states(example(name), level):
            if parent is None:
                continue
            last = st.history.order[-1]
            writer = st.history.history.wr_map.get(last)
            if st.history.order[:-1] == parent.history.order:
                assert st == apply_event(parent, st.history.history.event(last), writer)
            else:
                assert st == swap(parent, last, writer)
                swaps += 1
    assert kinds == {BEGIN, READ, WRITE, COMMIT, ABORT}
    assert swaps or walk is dfs


VIEW_WALKS = [(explore_ce, level) for level in EXTENSIBLE] + [
    (dfs, IsolationLevel.SER), (dfs, IsolationLevel.SI)
]


@pytest.mark.parametrize(
    "walk, level", VIEW_WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in VIEW_WALKS]
)
def test_walks_leave_the_full_construction_views_uncomputed(walk, level):
    """No state the walks enter past the root holds the session-order pairs,
    the so/wr adjacency or the wr transaction pairs, even once the run is
    over: derived edits do not carry them and nothing on the walks' path
    computes them.  ``explore_ce``'s states come from its entry hook,
    ``dfs``'s from its emissions."""
    states: list[ExplorationState] = []
    for name in sorted(EXAMPLE_PROGRAMS):
        if walk is dfs:
            dfs(example(name), level, emit=states.append)
        else:
            explore_ce(example(name), level,
                       entry_hook=lambda parent, st: states.append(st) if parent else None)
    assert states
    for st in states:
        assert not HISTORY_VIEWS & vars(st.history.history).keys(), st.history.order


# ---------------------------------------------------------------------------
# Reorder candidates
# ---------------------------------------------------------------------------


def test_candidates_cover_prior_unrelated_reads_of_written_variables():
    base = abort_flip_baseline_state()
    cands = {(c.read, c.writer) for c in compute_reorderings(base.history)}
    assert cands == {
        (FLIP_FIRST_READ, FLIP_X_WRITER),
        (FLIP_SECOND_READ, FLIP_X_WRITER),
    }


def test_candidates_only_appear_behind_a_commit():
    base = abort_flip_baseline_state()
    skip = len(base.history.history.txn(INIT_TXN).events)
    for cut in range(skip, len(base.history.order)):
        prefix_order = base.history.order[:cut]
        last = base.history.history.event(prefix_order[-1])
        if last.kind == COMMIT:
            continue
        trimmed = drop_events(base.history, set(base.history.order[cut:]))
        assert compute_reorderings(trimmed) == []


def test_candidates_ignore_causally_tied_readers():
    """split_reads: the reader saw the writer's y before the writer's commit
    could race it, so nothing is reorderable."""
    states = []
    explore_ce(example("split_reads"), IsolationLevel.CC, emit=states.append)
    stats = explore_ce(example("split_reads"), IsolationLevel.CC)
    assert stats.swaps_taken == 0 and stats.swaps_rejected == 0


# ---------------------------------------------------------------------------
# The swap itself
# ---------------------------------------------------------------------------


def test_swap_rewires_a_leaf_read_and_keeps_the_rest():
    base = abort_flip_baseline_state()
    res = swap(base, FLIP_SECOND_READ, FLIP_X_WRITER)
    h = res.history
    assert h.history.wr_map[FLIP_SECOND_READ] == FLIP_X_WRITER
    assert h.history.pending_txns() == (FLIP_SECOND_READER,)
    # the aborted first transaction survives untouched
    assert h.history.txn(FLIP_ABORTING).status == ABORTED
    assert len(h.history.txn(FLIP_ABORTING).events) == 3
    # the reader moved to the back of the order
    assert h.order[-1] == FLIP_SECOND_READ
    assert dict(res.sessions[0].locals) == {"a": 0, "b": 4}
    follow = next_event(res)
    assert follow.event.kind == COMMIT
    assert follow.event.id.txn == FLIP_SECOND_READER


def test_swap_replays_control_flow_from_the_new_value():
    """Rewiring the guard read to the x-writer flips the abort into the
    guarded write: the branch vanishes and write(y, 1) becomes pending."""
    base = abort_flip_baseline_state()
    res = swap(base, FLIP_FIRST_READ, FLIP_X_WRITER)
    # the second reader transaction ran after the pivot and is unrelated to
    # the x-writer, so it was deleted outright
    assert FLIP_SECOND_READER not in res.history.history.txn_ids
    assert dict(res.sessions[0].locals) == {"a": 4}
    assert res.history.order[-1] == FLIP_FIRST_READ
    follow = next_event(res)
    assert follow.event.kind == WRITE
    assert (follow.event.var, follow.event.value) == ("y", 1)


def test_swap_rejects_a_causally_tied_reader():
    base = abort_flip_baseline_state()
    with pytest.raises(ValueError, match="causally before"):
        swap(base, FLIP_FIRST_READ, FLIP_ABORTING)


def test_swap_result_minus_its_pivot_is_a_prefix_of_the_parent():
    for name in ("racing_reads", "guarded_write", "independent_pairs"):
        checked = 0
        for _, st in entered_states(example(name), IsolationLevel.CC):
            if st.history.last_event.kind != COMMIT:
                continue
            for cand in compute_reorderings(st.history):
                if not optimality(st, cand.read, cand.writer, IsolationLevel.CC):
                    continue
                res = swap(st, cand.read, cand.writer)
                cut = drop_events(res.history, {cand.read})
                assert is_prefix(cut.history, st.history.history)
                checked += 1
        assert checked > 0


def _swap_base_from_root(st: ExplorationState, r, dropped) -> ExplorationState:
    """The swap base rebuilt from the root: every kept event of the other
    transactions, then the reader's events before ``r``, replayed in order."""
    h = st.history
    others = [eid for eid in h.order if eid.txn != r.txn and eid not in dropped]
    prefix = [eid for eid in h.order if eid.txn == r.txn and eid.index < r.index]
    return replay(st.program, h.history, others + prefix)


@pytest.mark.parametrize("level", (IsolationLevel.CC, IsolationLevel.RC))
def test_swaps_match_a_replay_from_the_root(level):
    """On every (state, candidate) explore_ce reaches, the swap base cut
    from the current state, and the swap itself, equal the states replayed
    from the root, per-session local state included."""
    rng = random.Random(9)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(random_program(rng)) for _ in range(150)]
    checked = 0
    for prog in programs:
        for _, st in entered_states(prog, level):
            for cand in compute_reorderings(st.history):
                r, t = cand.read, cand.writer
                dropped = _swap_drop_set(st.history, r, t)
                reference = _swap_base_from_root(st, r, dropped)
                assert _swap_base(st, r, dropped) == reference
                pivot = st.history.history.event(r)
                assert swap(st, r, t) == apply_event(reference, pivot, writer=t)
                checked += 1
    assert checked > 200


# ---------------------------------------------------------------------------
# Swap detection
# ---------------------------------------------------------------------------


def test_forward_reads_are_never_marked_swapped():
    base = abort_flip_baseline_state()
    assert not swapped(base.history, FLIP_FIRST_READ)
    assert not swapped(base.history, FLIP_SECOND_READ)


def test_swap_pivots_are_marked_swapped():
    base = abort_flip_baseline_state()
    for r in (FLIP_FIRST_READ, FLIP_SECOND_READ):
        res = swap(base, r, FLIP_X_WRITER)
        assert swapped(res.history, r)


def test_swapped_requires_membership():
    base = abort_flip_baseline_state()
    res = swap(base, FLIP_FIRST_READ, FLIP_X_WRITER)
    with pytest.raises(ValueError, match="not in history"):
        swapped(res.history, FLIP_SECOND_READ)


# ---------------------------------------------------------------------------
# The duplicate-freedom gate
# ---------------------------------------------------------------------------


def _classify_rejections(name: str, level: IsolationLevel):
    """Re-derive the gate's verdict for every candidate at every entered
    node, tagging each rejection with the first failing condition."""
    taken = 0
    reasons = []
    for _, st in entered_states(example(name), level):
        if st.history.last_event.kind != COMMIT:
            continue
        for cand in compute_reorderings(st.history):
            r, t = cand.read, cand.writer
            if optimality(st, r, t, level):
                taken += 1
                continue
            h = st.history
            pos_r = h.position[r]
            deleted = {
                eid
                for eid in h.order
                if h.position[eid] > pos_r
                and not causally_before_or_equal(h.history, eid.txn, t)
            }
            affected = sorted(
                (
                    e.id
                    for e in h.history.external_reads()
                    if e.id == r or e.id in deleted
                ),
                key=lambda eid: h.position[eid],
            )
            reason = None
            for rid in affected:
                which = "pivot" if rid == r else "deleted"
                if swapped(h, rid):
                    reason = f"swapped-{which}"
                    break
                if not reads_causally_latest(h, level, rid, t):
                    reason = f"stale-{which}"
                    break
            if reason is None:
                reason = "inconsistent-result"
            reasons.append(reason)
    return taken, sorted(reasons)


def test_gate_rejects_reads_not_observing_their_latest_writer():
    taken, reasons = _classify_rejections("racing_reads", IsolationLevel.CC)
    assert taken == 3
    assert reasons == [
        "stale-deleted",
        "stale-pivot",
        "stale-pivot",
        "stale-pivot",
        "stale-pivot",
    ]


def test_gate_rejects_deleting_an_already_swapped_read():
    taken, reasons = _classify_rejections("independent_pairs", IsolationLevel.CC)
    assert taken == 3
    assert reasons == ["swapped-deleted"]


def test_gate_rejects_an_inconsistent_swap_result():
    taken, reasons = _classify_rejections("pair_reader", IsolationLevel.CC)
    assert taken == 1
    assert reasons == ["inconsistent-result"]


def test_gate_accepts_everything_on_the_flip_example():
    taken, reasons = _classify_rejections("abort_flip", IsolationLevel.CC)
    assert taken == 2
    assert reasons == []


def _reads_causally_latest_by_cut(h, level, r, t) -> bool:
    """The reference for ``reads_causally_latest``: build the cut history a
    swap on ``r`` toward ``t`` leaves up to just before ``r``, then try the
    reader's causal predecessors in the cut, highest priority first, as
    ``r``'s writer, each checked for consistency from scratch.  True when
    the first that writes the variable and keeps the cut consistent is
    ``r``'s writer in ``h``."""
    if causally_before_or_equal(h.history, r.txn, t):
        raise ValueError(f"reader {r.txn} is causally before {t}")
    base = drop_events(h, _swap_drop_set(h, r, t) | {r}).history
    fresh = Event(r, READ, var=h.history.event(r).var)
    closure = base.causal_closure
    for w in reversed(base.txn_ids):
        if (
            r.txn in closure[w]
            and base.txn(w).writes_var(fresh.var)
            and check_consistency(base.with_event(fresh, writer=w), level)
        ):
            return w == h.history.wr_map.get(r)
    return False


def _gate_queries(prog, level):
    """Every (history, affected read, pivot's writer) the gate of
    ``explore_ce`` can ask about: for each candidate pivot at each entered
    state, the pivot and each external read its swap would delete."""
    for _, st in entered_states(prog, level):
        h = st.history
        for cand in compute_reorderings(h):
            dropped = _swap_drop_set(h, cand.read, cand.writer)
            for read in h.history.external_reads():
                if read.id == cand.read or read.id in dropped:
                    yield h, read.id, cand.writer


# Small programs on which a gate that gets one premise of the cut wrong
# disagrees with the reference, where the random draws below rarely do.
GATE_CORNER_PROGRAMS = [
    # ra: observing a writer from outside the reader's wr predecessors adds
    # that writer to the premise of the reader's earlier reads.
    "session s0 { txn { a = read(x); b = read(x); } txn { c = read(x); d = read(x); } }"
    " session s1 { txn { write(x, 1); } } session s2 { txn { write(x, 1); } }",
    # cc: the premise of the re-appended read is the reader's whole causal
    # past, not only its so and wr predecessors.
    "session s0 { txn { write(x, 4); } } session s1 { txn { b = read(x); } txn { c = read(x); d = read(x); } }"
    " session s2 { txn { write(x, 1); } txn { write(x, 4); } }",
    # ra: the premise of the re-appended read takes in the reader's session
    # predecessors, not only its wr predecessors.
    "session s0 { txn { a = read(x); } txn { write(x, 4); } txn { c = read(x); } }"
    " session s1 { txn { write(x, 2); } txn { write(x, 3); } }",
    # cc: the reader's reads before the re-appended one take the cut's
    # premise, not the current history's, which also counts what reaches the
    # reader only through its later reads.
    "session a { txn { write(y, 1); write(x, 1); } } session b { txn { v0 = read(v); write(y, 2); } txn { write(u, 2); } }"
    " session c { txn { write(x, 3); write(v, 3); } txn { p = read(y); o = read(x); n = read(u); } }"
    " session d { txn { write(x, 4); } }",
    # rc: a kept reader's forced edge closes the cycle that rejects a writer.
    "session s0 { txn { write(y, 1); write(x, 1); write(z, 1); } } session s1 { txn { a = read(q); b = read(z); } }"
    " session s2 { txn { write(x, 2); write(z, 2); write(q, 2); } txn { c = read(y); d = read(x); } }"
    " session s3 { txn { write(x, 4); } }",
    # rc: the same forced edge, from a reader the swap drops, closes none.
    "session s0 { txn { write(y, 1); write(x, 1); write(z, 1); } }"
    " session s1 { txn { write(x, 2); write(z, 2); write(q, 2); } txn { c = read(y); d = read(x); } }"
    " session s2 { txn { a = read(q); b = read(z); } } session s3 { txn { write(x, 4); } }",
    # rc: each of the reader's kept reads has only the writers of the reads
    # before it as premise, not all of them.
    "session s0 { txn { write(y, 1); write(x, 1); } } session s1 { txn { write(x, 2); write(q, 2); } }"
    " session s2 { txn { a = read(q); write(y, 3); write(z, 3); } }"
    " session s3 { txn { b = read(y); c = read(z); d = read(x); } } session s4 { txn { write(x, 4); } }",
]


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_gate_query_matches_the_cut_it_replaces(level):
    """On every query explore_ce's gate can make, on the examples, the corner
    programs and 150 random programs, the query on the current history gives
    the verdict of the cut history built and checked from scratch."""
    rng = random.Random(13)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    programs += [parse(random_program(rng)) for _ in range(150)]
    verdicts = []
    for prog in programs:
        for h, rid, t in _gate_queries(prog, level):
            expected = _reads_causally_latest_by_cut(h, level, rid, t)
            assert reads_causally_latest(h, level, rid, t) == expected, (h, rid, t)
            verdicts.append(expected)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def _swapped_by_scan(h, r) -> bool:
    """The reference for ``swapped``: every transaction checked against the
    writer, and every wr edge checked for an earlier read of the reader."""
    if r not in h.position:
        raise ValueError(f"event {r} not in history")
    t = h.history.wr_map.get(r)
    if t is None:
        return False
    reader = r.txn
    if not h.txn_before_event(t, r):
        return False
    if not reader < t:
        return False
    for other in h.history.txn_ids:
        if not other < reader:
            continue
        if h.event_before_txn(r, other):
            continue
        if causal_reachable(h.history, t, other):
            return False
    for read_id, writer in h.history.wr:
        if (
            read_id.txn == reader
            and read_id.index < r.index
            and causally_before_or_equal(h.history, t, writer)
        ):
            return False
    return True


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_swapped_query_matches_the_scan_it_replaces(level):
    """On every read explore_ce's gate can ask ``swapped`` about, on the
    examples, the corner programs and 150 random programs, the query gives
    the verdict of the full scan."""
    rng = random.Random(13)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    programs += [parse(random_program(rng)) for _ in range(150)]
    verdicts = []
    for prog in programs:
        for h, rid, _ in _gate_queries(prog, level):
            expected = _swapped_by_scan(h, rid)
            assert swapped(h, rid) == expected, (h, rid)
            verdicts.append(expected)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 400


def test_gate_query_builds_no_history(monkeypatch):
    """The query builds no transaction log, history or ordered history and
    cuts nothing, yet keeps the reference's verdicts."""
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    cases = [
        (h, level, rid, t, _reads_causally_latest_by_cut(h, level, rid, t))
        for level in EXTENSIBLE
        for prog in programs
        for h, rid, t in _gate_queries(prog, level)
    ]

    def refuse(*args, **kwargs):
        raise AssertionError("the gate's query built a history")

    monkeypatch.setattr(explorer, "drop_events", refuse)
    for cls, name in [
        (History, "with_event"), (History, "with_begin"), (History, "_derived"),
        (History, "__post_init__"), (OrderedHistory, "__post_init__"),
        (OrderedHistory, "append"), (TransactionLog, "__post_init__"),
    ]:
        monkeypatch.setattr(cls, name, refuse)
    for h, level, rid, t, expected in cases:
        assert reads_causally_latest(h, level, rid, t) == expected
    assert {expected for *_, expected in cases} == {True, False}


BAD_READS_SOURCE = """\
session a { txn { write(x, 1); b = read(x); c = read(y); } }
session w { txn { write(y, 2); } }
"""
BAD_READS_A, BAD_READS_W = TxnId(0, 0), TxnId(1, 0)


@pytest.mark.parametrize("call", ["swap", "reads_causally_latest"])
@pytest.mark.parametrize(
    "r",
    [
        EventId(BAD_READS_A, 99),
        EventId(TxnId(5, 0), 0),
        EventId(BAD_READS_A, 0),
        EventId(BAD_READS_A, 1),
        EventId(BAD_READS_A, 2),
    ],
    ids=["unknown-index", "unknown-transaction", "begin", "write", "internal-read"],
)
def test_swap_and_its_gate_query_reject_what_is_not_an_external_read(call, r):
    st = _drive(
        ExplorationState.initial(parse(BAD_READS_SOURCE)),
        [
            (begin_event(BAD_READS_W), None),
            (write_event(BAD_READS_W, 1, "y", 2), None),
            (commit_event(BAD_READS_W, 2), None),
            (begin_event(BAD_READS_A), None),
            (write_event(BAD_READS_A, 1, "x", 1), None),
            (read_event(BAD_READS_A, 2, "x"), None),
            (read_event(BAD_READS_A, 3, "y"), BAD_READS_W),
        ],
    )
    with pytest.raises(ValueError, match=re.escape(f"event {r} is not an external read")):
        if call == "swap":
            swap(st, r, BAD_READS_W)
        else:
            reads_causally_latest(st.history, IsolationLevel.CC, r, BAD_READS_W)


def test_valid_writes_reject_what_is_not_an_external_read():
    """A begin and an internal read take no writer: ``valid_writes`` raises
    with the event, also under ``python -O``."""
    st = ExplorationState.initial(parse(BAD_READS_SOURCE))
    begin = next_event(st)
    st = _drive(st, [(begin.event, None), (write_event(BAD_READS_A, 1, "x", 1), None)])
    internal = step_local(st, 0)
    assert begin.event.kind == BEGIN and internal.internal_value == 1
    for action in (begin, internal):
        with pytest.raises(ValueError) as caught:
            valid_writes(st, action, IsolationLevel.CC)
        assert str(caught.value) == f"{action.event} is not an external read"


# ---------------------------------------------------------------------------
# Whole-run counts, frozen per example
# ---------------------------------------------------------------------------

# name -> (distinct histories, naive emissions, entered nodes, swaps taken,
#          swaps rejected, max depth) at causal consistency
CC_RUNS = {
    "guarded_write": (3, 6, 22, 2, 0, 18),
    "abort_flip": (3, 10, 21, 2, 0, 18),
    "racing_reads": (9, 100, 44, 3, 5, 17),
    "independent_pairs": (4, 54, 28, 3, 1, 21),
    "cross_writes": (3, 4, 19, 1, 0, 14),
    "split_reads": (3, 6, 18, 0, 0, 11),
    "pair_reader": (2, 3, 12, 1, 1, 11),
    "fractured_read": (2, 3, 12, 0, 0, 9),
}


@pytest.mark.parametrize("name", sorted(CC_RUNS))
def test_run_counters_match_frozen_values(name):
    outputs, naive, calls, taken, rejected, depth = CC_RUNS[name]
    seen = []
    stats = explore_ce(
        example(name),
        IsolationLevel.CC,
        emit=lambda s: seen.append(canonical_encode(s.history.history)),
    )
    assert stats.outputs == outputs
    assert len(seen) == len(set(seen)) == outputs
    assert stats.recursive_calls == calls
    assert (stats.swaps_taken, stats.swaps_rejected) == (taken, rejected)
    assert stats.max_depth == depth
    assert stats.blocked_calls == 0
    assert stats.inconsistent_branch_entries == 0
    naive_stats = dfs(example(name), IsolationLevel.CC)
    assert naive_stats.outputs == naive


PROG3 = Path(__file__).resolve().parents[1] / "bench" / "programs" / "prog3.txn"

# level -> (outputs, nodes, swaps taken, swaps rejected, max depth, sha256 of
#           the canonical encodings in emission order, one per line)
PROG3_RUNS = {
    IsolationLevel.CC: (
        250, 1029, 40, 45, 47,
        "33cd4d51e552dce426e5f102e83596be4a40275724205ca945f27ce8ccc13a5a",
    ),
    IsolationLevel.RC: (
        2112, 5982, 109, 143, 47,
        "103ebdcaefa65a05e6863ea2cbfc3a0a8bc03277db864dc283d8ae3717d6aaaa",
    ),
}


@pytest.mark.parametrize("level", sorted(PROG3_RUNS, key=lambda lv: lv.value))
def test_prog3_fingerprint_matches_frozen_values(level):
    """Every counter and the emission sequence itself are frozen on the
    benchmark's ``prog3``.  The values were computed before the swap base and
    the gate's cut were derived by restricting the current state (they used
    to be rebuilt from the root), so they pin that both build the same
    states in the same order."""
    outputs, calls, taken, rejected, depth, sha = PROG3_RUNS[level]
    digest = hashlib.sha256()

    def emit(st: ExplorationState) -> None:
        digest.update(canonical_encode(st.history.history) + b"\n")

    stats = explore_ce(parse(PROG3.read_text()), level, emit=emit)
    assert (stats.outputs, stats.filtered_outputs, stats.recursive_calls) == (outputs, 0, calls)
    assert (stats.blocked_calls, stats.inconsistent_branch_entries) == (0, 0)
    assert (stats.swaps_taken, stats.swaps_rejected, stats.max_depth) == (taken, rejected, depth)
    assert digest.hexdigest() == sha


def _ring(sessions: int, txns: int) -> str:
    """S sessions of T transactions; transaction j of session s has
    k = s*T + j, reads V[k % 3] and writes V[(k+1) % 3] with that value + 1,
    for V = x, y, z."""
    v = "xyz"
    return "\n".join(
        f"session s{s} {{ " + " ".join(
            f"txn {{ l{k} = read({v[k % 3]}); write({v[(k + 1) % 3]}, l{k} + 1); }}"
            for k in range(s * txns, (s + 1) * txns)
        ) + " }"
        for s in range(sessions)
    )


GATE_HEAVY_SOURCES = {"ring3x2": _ring(3, 2), "ring3x3": _ring(3, 3), "prog3": PROG3.read_text()}

# (program, level) -> (outputs, nodes, swaps taken, swaps rejected, max depth,
#                      sha256 of the canonical encodings in emission order)
GATE_HEAVY_RUNS = {
    ("ring3x2", IsolationLevel.RC): (
        326, 1464, 102, 232, 41,
        "a93604f4d52a957e091f0a3682e8a91e54bd8d0bd261559a9e8ebb24b57d8be2",
    ),
    ("ring3x2", IsolationLevel.RA): (
        76, 398, 40, 27, 41,
        "25d79b99ee5811b96bae36ef6a552695a1ec754b60fef4edad5fe997f79cca48",
    ),
    ("ring3x2", IsolationLevel.CC): (
        76, 398, 40, 27, 41,
        "25d79b99ee5811b96bae36ef6a552695a1ec754b60fef4edad5fe997f79cca48",
    ),
    ("ring3x3", IsolationLevel.RA): (
        451, 3131, 140, 550, 79,
        "afc1b330a17d69daf9b6d3074a839a37e9e4518313d1c1d08942739870f0915b",
    ),
    ("ring3x3", IsolationLevel.CC): (
        451, 3131, 140, 550, 79,
        "afc1b330a17d69daf9b6d3074a839a37e9e4518313d1c1d08942739870f0915b",
    ),
    ("prog3", IsolationLevel.RA): (
        276, 1081, 40, 45, 47,
        "f4a1523f2db217bf33e9441c7948a808f8986875b1d180528296021e00391a27",
    ),
}


@pytest.mark.parametrize(
    "name, level", sorted(GATE_HEAVY_RUNS, key=lambda key: (key[0], key[1].value)),
    ids=lambda x: getattr(x, "value", x),
)
def test_gate_heavy_fingerprints_match_frozen_values(name, level):
    """Every counter and the emission sequence, frozen on the runs where the
    gate does the most work, from the gate that built a cut history per
    query: the query on the current history must take the same swaps."""
    outputs, calls, taken, rejected, depth, sha = GATE_HEAVY_RUNS[name, level]
    digest = hashlib.sha256()

    def emit(st: ExplorationState) -> None:
        digest.update(canonical_encode(st.history.history) + b"\n")

    stats = explore_ce(parse(GATE_HEAVY_SOURCES[name]), level, emit=emit)
    assert (stats.outputs, stats.filtered_outputs, stats.recursive_calls) == (outputs, 0, calls)
    assert (stats.blocked_calls, stats.inconsistent_branch_entries) == (0, 0)
    assert (stats.swaps_taken, stats.swaps_rejected, stats.max_depth) == (taken, rejected, depth)
    assert digest.hexdigest() == sha


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
@pytest.mark.parametrize("level", EXTENSIBLE)
def test_enumeration_equals_deduplicated_naive_search(name, level):
    direct: list[bytes] = []
    explore_ce(
        example(name), level, emit=lambda s: direct.append(canonical_encode(s.history.history))
    )
    naive: set[bytes] = set()
    dfs(example(name), level, emit=lambda s: naive.add(canonical_encode(s.history.history)))
    assert len(direct) == len(set(direct))
    assert set(direct) == naive


# Once the reader has read y from the second transaction of session a,
# reading x from the first is inconsistent at every level but TRUE, and
# only that writer's value makes ``b + a`` overflow.
OVERFLOW_IF_INCONSISTENT = """\
session a {
  txn { write(x, 9223372036854775807); }
  txn { write(x, 0); write(y, 1); }
}
session b {
  txn { a = read(y); b = read(x); c = b + a; }
}
"""


@pytest.mark.parametrize(
    "level, outputs", [(IsolationLevel.RC, 4), (IsolationLevel.CC, 3)]
)
def test_no_program_code_runs_on_a_rejected_read(level, outputs):
    stats = explore_ce(parse(OVERFLOW_IF_INCONSISTENT), level)
    assert (stats.outputs, stats.blocked_calls) == (outputs, 0)


def test_naive_search_runs_no_program_code_on_a_rejected_branch():
    seen: set[bytes] = set()
    stats = dfs(
        parse(OVERFLOW_IF_INCONSISTENT),
        IsolationLevel.SER,
        emit=lambda s: seen.add(canonical_encode(s.history.history)),
    )
    assert (stats.outputs, len(seen), stats.blocked_calls) == (6, 3, 0)


# A swap makes b's first read observe a's first transaction after b's second
# read observed a's second: inconsistent at cc, and only that combination
# makes ``q + p + 1`` overflow.
OVERFLOW_IF_SWAPPED = """\
session b {
  txn { p = read(x); q = read(y); c = q + p + 1; }
}
session a {
  txn { write(x, 0 - 1); }
  txn { write(y, 9223372036854775807); }
}
"""


def test_no_program_code_runs_on_a_rejected_swap():
    emitted: list[bytes] = []
    explore_ce(
        parse(OVERFLOW_IF_SWAPPED),
        IsolationLevel.CC,
        emit=lambda s: emitted.append(canonical_encode(s.history.history)),
    )
    naive: set[bytes] = set()
    dfs(
        parse(OVERFLOW_IF_SWAPPED),
        IsolationLevel.CC,
        emit=lambda s: naive.add(canonical_encode(s.history.history)),
    )
    assert len(naive) == 3
    assert sorted(emitted) == sorted(naive)


def test_deep_runs_keep_the_default_recursion_limit():
    """One transaction of 1,100 writes is explored deeper than the recursion
    limit, which no run changes.  A fresh interpreter starts at the default."""
    code = (
        "import sys\n"
        "from txndpor.explorer import dfs, explore_ce\n"
        "from txndpor.model import IsolationLevel\n"
        "from txndpor.program import parse\n"
        "body = ' '.join(f'write(x, {i});' for i in range(1100))\n"
        "program = parse('session s { txn { ' + body + ' } }')\n"
        "limit = sys.getrecursionlimit()\n"
        "for run in (explore_ce, dfs):\n"
        "    stats = run(program, IsolationLevel.CC)\n"
        "    assert stats.outputs == 1, stats\n"
        "    assert stats.max_depth > limit, (stats.max_depth, limit)\n"
        "    assert sys.getrecursionlimit() == limit\n"
    )
    proc = run_fresh(code)
    assert proc.returncode == 0, proc.stderr


def test_single_transaction_program_has_one_history():
    from fixtures import SINGLE_WRITE_SOURCE
    from txndpor.program import parse

    stats = explore_ce(parse(SINGLE_WRITE_SOURCE), IsolationLevel.CC)
    assert stats.outputs == 1
    assert stats.swaps_taken == 0


# ---------------------------------------------------------------------------
# Strong levels through a weak traversal
# ---------------------------------------------------------------------------


def test_star_filters_histories_failing_the_strong_level():
    for strong in (IsolationLevel.SER, IsolationLevel.SI):
        seen = []
        stats = explore_ce_star(
            example("cross_writes"),
            IsolationLevel.CC,
            strong,
            emit=lambda s: seen.append(canonical_encode(s.history.history)),
        )
        assert (stats.outputs, stats.filtered_outputs) == (2, 1)
        naive = set()
        dfs(example("cross_writes"), strong, emit=lambda s: naive.add(canonical_encode(s.history.history)))
        assert set(seen) == naive


def test_star_with_equal_levels_matches_plain_enumeration():
    plain = explore_ce(example("racing_reads"), IsolationLevel.CC)
    star = explore_ce_star(example("racing_reads"), IsolationLevel.CC, IsolationLevel.CC)
    assert star.outputs == plain.outputs
    assert star.filtered_outputs == 0
    assert star.recursive_calls == plain.recursive_calls


def test_non_extensible_levels_are_refused():
    with pytest.raises(ValueError, match="not causally extensible"):
        explore_ce(example("racing_reads"), IsolationLevel.SER)
    with pytest.raises(ValueError, match="not causally extensible"):
        explore_ce_star(example("racing_reads"), IsolationLevel.SI, IsolationLevel.SER)


def test_star_refuses_a_strong_level_weaker_than_the_walk():
    with pytest.raises(ValueError, match="weaker than the traversal level"):
        explore_ce_star(example("racing_reads"), IsolationLevel.CC, IsolationLevel.RC)


# ---------------------------------------------------------------------------
# Budget enforcement
# ---------------------------------------------------------------------------


def test_time_limit_raises_with_partial_counters():
    with pytest.raises(TimeLimitExceeded) as exc:
        explore_ce(example("racing_reads"), IsolationLevel.CC, time_limit=0.0)
    assert exc.value.stats.recursive_calls >= 1
    assert exc.value.stats.outputs == 0


def test_time_limit_applies_to_the_naive_search_too():
    with pytest.raises(TimeLimitExceeded):
        dfs(example("racing_reads"), IsolationLevel.CC, time_limit=0.0)


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_time_limit_must_be_a_number_of_seconds(limit):
    """A NaN budget would never expire: each entry point refuses it, and a
    negative one, before exploring anything."""
    program = example("racing_reads")
    for run in (
        lambda: explore_ce(program, IsolationLevel.CC, time_limit=limit),
        lambda: explore_ce_star(program, IsolationLevel.CC, IsolationLevel.SER, time_limit=limit),
        lambda: dfs(program, IsolationLevel.SER, time_limit=limit),
    ):
        with pytest.raises(ValueError, match="time_limit must be a number of seconds"):
            run()


def test_ctrl_c_raises_with_partial_counters():
    def emit(st):
        raise KeyboardInterrupt

    for run in (explore_ce, dfs):
        with pytest.raises(RunInterrupted) as exc:
            run(example("racing_reads"), IsolationLevel.CC, emit=emit)
        assert exc.value.stats.outputs == 1
        assert exc.value.stats.wall_time > 0


@pytest.mark.parametrize("name", ["racing_reads", "abort_flip"])
def test_retained_states_do_not_keep_their_ancestors_alive(name):
    """A derived history records its parent's consistency cache, never the
    parent itself: keeping the emitted states keeps only their own
    histories alive.  SER (dfs) and TRUE (explore_ce) fill no closure."""
    program = parse(EXAMPLE_PROGRAMS[name])
    kept: list[ExplorationState] = []
    with track_history_memory() as tracker:
        dfs(program, IsolationLevel.SER, emit=kept.append)
        explore_ce(program, IsolationLevel.TRUE, emit=kept.append)
        gc.collect()
        assert tracker.registered > 3 * len(kept)
        assert tracker.live <= len(kept) + 2
