"""The enumerator: scheduling, read swapping, the duplicate-freedom gate."""

from __future__ import annotations

import copy
import gc
import hashlib
import pickle
import random
import re
import time
import weakref
from pathlib import Path

import pytest

from fixtures import (
    FLIP_ABORTING,
    FLIP_FIRST_READ,
    FLIP_SECOND_READ,
    FLIP_SECOND_READER,
    FLIP_X_WRITER,
    abort_flip_baseline_state,
    committed_writers_by_scan,
    entered_states,
    example,
    is_prefix,
    order_positions,
    run_fresh,
    track_history_memory,
)
from txndpor import explorer, isolation
from txndpor import program as program_module
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import (
    ReorderCandidate,
    RunInterrupted,
    TimeLimitExceeded,
    _kept,
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
from txndpor.isolation import (
    EXTENSIBLE_LEVELS,
    _commit_order,
    _verdict as _forced_closure,
    check_consistency,
    total_order_satisfies,
)
from txndpor.model import (
    ABORT,
    ABORTED,
    BEGIN,
    COMMIT,
    COMMITTED,
    INIT_TXN,
    PENDING,
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
    read_event,
    write_event,
)
from txndpor.oracles import prev
from txndpor.program import (
    AssertInstr,
    AssignInstr,
    ExplorationState,
    IfInstr,
    LocalState,
    NextAction,
    apply_event,
    assertions,
    parse,
    replay,
    step_local,
)

EXTENSIBLE = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)
# History relations only full construction and the reference checkers read.
HISTORY_VIEWS = {"causal_adjacency", "wr_txn_pairs"}
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
        ls.txn_index == len(st.program.sessions[s].txns)
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
        for session, ls in enumerate(st.sessions)
        if (tid := TxnId(session, ls.txn_index)) not in st.by_id
        and tid.index < len(st.program.sessions[session].txns)
    ]


@pytest.mark.parametrize(
    "walk, level", WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in WALKS]
)
def test_schedule_matches_the_scan_it_replaces(walk, level, monkeypatch):
    """On every state the walk enters, on the examples, the gate's corner
    programs and 150 random programs, the scheduling rule read from the
    session states gives the reference's actions in the same order.
    ``explore_ce`` schedules on its trace, materialized for the reference."""
    schedule = explorer._schedule
    checked = []

    def checked_schedule(st):
        actions = list(schedule(st))
        if isinstance(st, explorer._Trace):
            st = st.state()
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


def _examples_corners_and_draws(seed: int, draws: int):
    """The example programs, the gate's corner programs and ``draws``
    random programs drawn from ``seed``."""
    rng = random.Random(seed)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    return programs + [parse(random_program(rng)) for _ in range(draws)]


def _next_reads(programs, level):
    """(state, action) for every state explore_ce enters whose next action
    is an external read."""
    for prog in programs:
        for _, st in entered_states(prog, level):
            action = next_event(st)
            if action is not None and action.is_external_read:
                yield st, action


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_writers_decided_on_the_parent_match_build_then_check(level):
    """On every state explore_ce enters whose next action is an external
    read, on the examples, the corner programs and 100 random programs,
    ``valid_writes`` gives the keys, in order, and the children of building
    each extension by ``apply_event`` and checking it.  Each child's cached
    closure is its forced closure recomputed from full construction,
    without a cache."""
    rejected = 0
    for st, action in _next_reads(_examples_corners_and_draws(21, 100), level):
        hist = st.history.history
        built = {
            t: apply_event(st, action.event, writer=t)
            for t in st.history.starts
            if hist.txn(t).status == COMMITTED and hist.txn(t).writes_var(action.event.var)
        }
        expected = {
            t: child for t, child in built.items()
            if check_consistency(child.history.history, level)
        }
        children = valid_writes(st, action, level)
        assert list(children) == list(expected)
        assert children == expected
        for child in children.values():
            h = child.history.history
            assert h.consistency_cache[level] == _forced_closure(History(h.logs, h.wr), level)
        rejected += len(built) - len(children)
    assert rejected > 100


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_valid_writes_build_nothing_for_a_rejected_writer(level, monkeypatch):
    """``valid_writes`` pushes the read on its trace once per writer it
    accepts and builds nothing by full construction, so a rejected writer
    costs no history and no ordered history."""
    cases = list(_next_reads(_examples_corners_and_draws(22, 100), level))
    appended: list[TxnId] = []
    push = explorer._Trace.push

    def counted(self, action, writer=None, reach=None):
        appended.append(writer)
        return push(self, action, writer, reach)

    def refuse(*args, **kwargs):
        raise AssertionError("valid_writes built a history by full construction")

    monkeypatch.setattr(explorer._Trace, "push", counted)
    monkeypatch.setattr(OrderedHistory, "__post_init__", refuse)
    monkeypatch.setattr(History, "__post_init__", refuse)
    rejected = 0
    for st, action in cases:
        appended.clear()
        children = valid_writes(st, action, level)
        assert appended == list(children)
        tr = explorer._Trace(st, level)
        writers = tr.committed_writers(action.event.var)
        assert writers == committed_writers_by_scan(tr, action.event.var)
        rejected += len(writers) - len(children)
    assert rejected > 100


@pytest.mark.parametrize(
    "walk, level", WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in WALKS]
)
def test_walks_enter_the_states_the_checked_path_builds(walk, level, monkeypatch):
    """Every state the walks enter, of every event kind, equals
    ``apply_event`` of its last event and writer on its parent, after its
    checks, or, for a swapped state, ``swap`` of its parent.  The states
    are the trace materialized: ``explore_ce``'s from its entry hook,
    ``dfs``'s just after each child is entered, its parent just before the
    push."""
    kinds: set[str] = set()
    swaps = 0
    parents: list[ExplorationState] = []
    push, enter, pop = explorer._Trace.push, explorer._Trace.enter, explorer._Trace.pop

    def checked_push(self, action, writer=None, reach=None):
        parents.append(self.state())
        push(self, action, writer, reach)

    def checked_enter(self, action, writer=None):
        enter(self, action, writer)
        assert self.state() == apply_event(parents[-1], action.event, writer)
        kinds.add(action.event.kind)

    def checked_pop(self):
        pop(self)
        parents.pop()

    if walk is dfs:
        monkeypatch.setattr(explorer._Trace, "push", checked_push)
        monkeypatch.setattr(explorer._Trace, "enter", checked_enter)
        monkeypatch.setattr(explorer._Trace, "pop", checked_pop)
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
                event = st.history.history.event(last)
                assert st == apply_event(parent, event, writer)
                kinds.add(event.kind)
            else:
                assert st == swap(parent, last, writer)
                swaps += 1
    assert kinds == {BEGIN, READ, WRITE, COMMIT, ABORT}
    assert swaps or walk is dfs
    assert not parents


STEP_KINDS = {"begin", "internal read", "external read", "write, silent next", "write, database next",
              "commit", "abort"}
STEP_MEMOS = ("_action", "_silent_run")


def _step_kind(prog, ls: LocalState, action: NextAction, writer: TxnId | None) -> str:
    """Which of ``STEP_KINDS`` the step from ``ls`` by ``action`` is."""
    kind = action.event.kind
    if kind == READ:
        return "internal read" if writer is None else "external read"
    if kind == WRITE:
        code = prog.txn_body(action.event.id.txn).code
        nxt = code[ls.pc + 1] if ls.pc + 1 < len(code) else None
        silent = isinstance(nxt, (AssignInstr, IfInstr, AssertInstr))
        return "write, silent next" if silent else "write, database next"
    return {BEGIN: "begin", COMMIT: "commit", ABORT: "abort"}[kind]


def _local_fields(ls: LocalState) -> list:
    """Every field of ``ls`` with the exact type of each value, so that an
    int and a bool of equal value differ."""
    return [ls.txn_index, (ls.pc, type(ls.pc)), ls.begun,
            [(name, value, type(value)) for name, value in ls.locals]]


@pytest.mark.parametrize(
    "walk, level", WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in WALKS]
)
def test_memoized_steps_equal_the_uncached_rule(walk, level, monkeypatch):
    """On every step the walks take over the examples, the corner programs
    and 50 random programs, of every kind in ``STEP_KINDS``, ``_step`` and
    ``_local_after`` return, field by field, what the same rule returns
    with its memos bypassed by their ``__wrapped__`` functions, which run
    the body on a fresh env: each memo's key holds every input of
    what it returns.  The walks' swaps re-step the reader by the same two
    rules."""
    step, local_after = program_module._step, program_module._local_after
    memos = {name: getattr(program_module, name) for name in STEP_MEMOS}
    kinds: set[str] = set()

    def uncached(rule, *args):
        with monkeypatch.context() as m:
            for name, memo in memos.items():
                m.setattr(program_module, name, memo.__wrapped__)
            return rule(*args)

    def checked_step(prog, ls, tid, log):
        action = step(prog, ls, tid, log)
        assert _action_fields(action) == _action_fields(uncached(step, prog, ls, tid, log))
        return action

    def checked_local_after(prog, ls, action, by_id, writer):
        new = local_after(prog, ls, action, by_id, writer)
        cold = uncached(local_after, prog, ls, action, by_id, writer)
        assert _local_fields(new) == _local_fields(cold)
        kinds.add(_step_kind(prog, ls, action, writer))
        return new

    for namespace in (program_module, explorer):
        monkeypatch.setattr(namespace, "_step", checked_step)
        monkeypatch.setattr(namespace, "_local_after", checked_local_after)
    for prog in _examples_corners_and_draws(24, 50):
        walk(prog, level)
    assert kinds == STEP_KINDS


VIEW_WALKS = [(explore_ce, level) for level in EXTENSIBLE] + [
    (dfs, IsolationLevel.SER), (dfs, IsolationLevel.SI)
]


@pytest.mark.parametrize(
    "walk, level", VIEW_WALKS, ids=[f"{w.__name__}-{lvl.value}" for w, lvl in VIEW_WALKS]
)
def test_walks_leave_the_full_construction_views_uncomputed(walk, level):
    """No state the walks enter past the root holds the so/wr adjacency or
    the wr transaction pairs, even once the run is over:
    the trace's snapshots do not carry them and nothing on the walks' path
    computes them.  Each state's ``starts`` equals its definition from the
    order.  ``explore_ce``'s states come from its entry hook, ``dfs``'s from
    its emissions."""
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
    for st in states:
        h = st.history
        first: dict[TxnId, int] = {}
        for i, eid in enumerate(h.order):
            first.setdefault(eid.txn, i)
        assert list(h.starts.items()) == list(first.items())


TRACE_LEVELS = EXTENSIBLE + (IsolationLevel.TRUE,)
TRACE_WALKS = [(explore_ce, level) for level in TRACE_LEVELS] + [
    (dfs, IsolationLevel.SER), (dfs, IsolationLevel.SI)
]
# The relations a materialized state carries or computes on first use.
CARRIED_RELATIONS = ("by_id", "txn_ids", "sessions", "causal_past", "wr_map", "writers")


def _assert_matches_full_construction(st: ExplorationState, level: IsolationLevel) -> None:
    """``st``'s history carries the relations and the verdict at ``level``
    of the same logs and wr built by full validation, and ``starts`` is its
    definition from the order.  At TRUE the verdict is the causal past,
    the closure of no forced edge.  At SER and SI the verdict is a witness: a
    linear extension of so/wr that satisfies the level, found exactly when
    the search finds one."""
    h = st.history
    full = History(h.history.logs, h.history.wr)
    for name in CARRIED_RELATIONS:
        assert getattr(h.history, name) == getattr(full, name), name
    first: dict[TxnId, int] = {}
    for i, eid in enumerate(h.order):
        first.setdefault(eid.txn, i)
    assert list(h.starts.items()) == list(first.items())
    verdict = h.history.consistency_cache.get(level)
    if level is IsolationLevel.TRUE:
        assert verdict == full.causal_past
    elif level in EXTENSIBLE:
        assert verdict == _forced_closure(full, level)
    else:
        assert (verdict is None) == (_commit_order(full, level, full.causal_past) is None)
        if verdict is not None:
            pos = {t: i for i, t in enumerate(verdict)}
            assert sorted(verdict) == list(full.txn_ids)
            assert all(pos[a] < pos[b] for b, past in full.causal_past.items() for a in past)
            assert total_order_satisfies(full, level, pos)


def _same_materialized(a: ExplorationState, b: ExplorationState) -> bool:
    return a == b and a.history.starts == b.history.starts and all(
        getattr(a.history.history, name) == getattr(b.history.history, name)
        for name in CARRIED_RELATIONS + ("consistency_cache",)
    )


@pytest.mark.parametrize(
    "walk, level", TRACE_WALKS,
    ids=[lvl.value if w is explore_ce else f"dfs-{lvl.value}" for w, lvl in TRACE_WALKS],
)
def test_trace_snapshots_and_undo_are_exact(walk, level, monkeypatch):
    """Both walks run on one trace.  Every state ``explore_ce`` passes to
    ``emit`` and to ``entry_hook`` (node and parent), and every state
    ``dfs`` emits, kept until the run is over, matches full construction,
    its cached verdict included, so none shares what the trace changes
    later, and an emitted state without the hook has a replay's locals;
    and the trace materialized just before each push equals it
    materialized just after the matching pop, its pending transaction
    restored too.  On every state materialized there, the trace's
    ``pending`` is the state's scan and the history's one pending
    transaction.  Before each push no causal past on the trace holds the
    pushed event's transaction: nothing follows it, the precondition of
    the derived closures (``isolation._forced_after``).  Over the examples, the gate's corner programs and 100
    random programs (50 for ``dfs``)."""
    programs = _examples_corners_and_draws(25, 100 if walk is explore_ce else 50)
    push, pop = explorer._Trace.push, explorer._Trace.pop
    before: list[tuple[ExplorationState, TxnId | None]] = []
    pops = 0

    def materialized(tr: explorer._Trace) -> ExplorationState:
        st = tr.state()
        assert tr.pending == st.pending
        assert st.history.history.pending_txns() == (() if tr.pending is None else (tr.pending,))
        return st

    def checked_push(self, action, *args):
        t = action.event.id.txn
        assert all(t not in past for past in self.causal_past.values())
        before.append((materialized(self), self.pending))
        push(self, action, *args)

    def checked_pop(self):
        nonlocal pops
        pop(self)
        st, pending = before.pop()
        assert self.pending == pending
        assert _same_materialized(materialized(self), st)
        pops += 1

    with monkeypatch.context() as patched:  # first: a lost pending derails the walk
        patched.setattr(explorer._Trace, "push", checked_push)
        patched.setattr(explorer._Trace, "pop", checked_pop)
        for prog in programs:
            walk(prog, level)
    assert pops > 1000 and not before

    hooked: dict[int, ExplorationState] = {}
    emitted: list[ExplorationState] = []

    def keep(*states) -> None:
        hooked.update((id(st), st) for st in states if st is not None)

    for prog in programs:
        if walk is explore_ce:
            explore_ce(prog, level, emit=keep, entry_hook=keep)
        walk(prog, level, emit=emitted.append)
    for st in list(hooked.values()) + emitted:
        _assert_matches_full_construction(st, level)
    replayed: dict[tuple, tuple] = {}  # dfs emits a history many times
    for st in emitted:
        key = (id(st.program), canonical_encode(st.history.history))
        if key not in replayed:
            replayed[key] = replay(st.program, st.history.history, st.history.order).sessions
        assert st.sessions == replayed[key]


ORDER_WALKS = [(explore_ce, level) for level in EXTENSIBLE] + [
    (dfs, IsolationLevel.SER), (dfs, IsolationLevel.SI)
]


@pytest.mark.parametrize(
    "walk, level", ORDER_WALKS,
    ids=[lvl.value if w is explore_ce else f"dfs-{lvl.value}" for w, lvl in ORDER_WALKS],
)
def test_snapshot_order_is_a_view_of_starts_and_the_logs(walk, level):
    """Every state a walk emits leaves its per-event order unbuilt.  Read,
    it lists each transaction's events in the order ``starts`` gives, and
    the state equals and hashes as the validated ``OrderedHistory`` of its
    logs, wr and entry order.  The first state of each history (``dfs``
    emits one many times) also prints as it, and a deep copy and a pickle
    of it, made unbuilt, round-trip.  Over the examples, the gate's corner
    programs and 40 random programs (10 for ``dfs``)."""
    emitted: list[ExplorationState] = []
    for prog in _examples_corners_and_draws(31, 40 if walk is explore_ce else 10):
        walk(prog, level, emit=emitted.append)
    assert len(emitted) > 100
    copied: set[tuple] = set()
    for st in emitted:
        h = st.history
        key = (id(st.program), canonical_encode(h.history))
        first = key not in copied
        copied.add(key)
        copies = [copy.deepcopy(st), pickle.loads(pickle.dumps(st))] if first else []
        assert not any("order" in vars(c.history) for c in [st, *copies])
        entry = tuple(sorted((ev.id for log in h.history.logs for ev in log.events),
                             key=lambda e: h.starts[e.txn] + e.index))
        assert h.order == entry
        full = OrderedHistory(History(h.history.logs, h.history.wr), h.entered)
        assert h == full and hash(h) == hash(full)
        assert not first or repr(h) == repr(full)
        assert all(c == st and c.history.order == entry for c in copies)


def test_unhooked_explore_ce_builds_no_order_for_emit():
    """An unhooked ``explore_ce`` whose emit encodes each history and
    evaluates the program's assertions, as ``txndpor run`` does, builds no
    emitted state's per-event order.  Nor do the queries that read only the
    entry order, on every state a hooked ``explore_ce`` enters at CC on the
    examples: :func:`compute_reorderings`, ``last_event``,
    :func:`valid_writes` of the last transaction to enter's external read,
    and :func:`oracles.prev` of a state whose last event is no swapped read."""
    emitted: list[ExplorationState] = []

    def emit(st: ExplorationState) -> None:
        canonical_encode(st.history.history)
        assertions(st)
        emitted.append(st)

    for level in EXTENSIBLE:
        for prog in _examples_corners_and_draws(37, 30):
            explore_ce(prog, level, emit=emit)
    assert len(emitted) > 100
    assert not any("order" in vars(st.history) for st in emitted)
    cc = IsolationLevel.CC
    entered = [st for name in sorted(EXAMPLE_PROGRAMS)
               for _, st in entered_states(example(name), cc)]
    reads = prevs = 0
    for st in entered:
        h = st.history
        compute_reorderings(h)
        last = h.last_event.id
        action = next_event(st)
        if action is not None and action.is_external_read and action.event.id.txn == h.entered[-1]:
            reads += bool(valid_writes(st, action, cc))
        if not swapped(h, last):
            prevs += 1
            prev(st.program, h, cc)
        assert "order" not in vars(h), h.entered
    assert reads and 0 < prevs < len(entered)


@pytest.mark.parametrize("level", [IsolationLevel.CC, IsolationLevel.SER], ids=["cc", "ser"])
def test_dfs_builds_one_history_per_emission(level):
    """``dfs`` walks one trace: the only histories it builds are its root's
    and one per state it materializes for ``emit``; none per node."""
    for name in sorted(EXAMPLE_PROGRAMS):
        with track_history_memory() as tracker:
            stats = dfs(example(name), level, emit=lambda st: None)
            assert tracker.registered == stats.outputs + 1
            assert stats.recursive_calls > 2 * stats.outputs
        with track_history_memory() as tracker:
            dfs(example(name), level)
            assert tracker.registered == 1


@pytest.mark.parametrize(
    "weak,strong",
    [(level, None) for level in (IsolationLevel.TRUE, *EXTENSIBLE)]
    + [(IsolationLevel.CC, IsolationLevel.SER)],
    ids=["true", "rc", "ra", "cc", "cc-ser"],
)
def test_unhooked_explore_ce_builds_one_history_per_leaf(weak, strong):
    """With no entry hook, ``explore_ce`` and ``explore_ce_star`` build the
    root's ``History`` and one per emitted history, and no other: the
    strong check reads the walk's trace, the gate asks its queries on it,
    and a taken swap builds its trace from the walk's."""
    filtered = 0
    for name in sorted(EXAMPLE_PROGRAMS):
        with track_history_memory() as tracker:
            if strong is None:
                stats = explore_ce(example(name), weak, emit=lambda st: None)
            else:
                stats = explore_ce_star(example(name), weak, strong, emit=lambda st: None)
            assert tracker.registered == stats.outputs + 1, name
        filtered += stats.filtered_outputs
    assert (filtered > 0) == (strong is not None)


@pytest.mark.parametrize("level", EXTENSIBLE, ids=[lvl.value for lvl in EXTENSIBLE])
def test_hooked_explore_ce_builds_one_history_per_node(level):
    """With an entry hook, ``explore_ce`` builds one ``History`` per node,
    the state its hook gets, and no other: the gate reads the walk's trace,
    and a taken swap builds its trace from the walk's."""
    for name in sorted(EXAMPLE_PROGRAMS):
        with track_history_memory() as tracker:
            stats = explore_ce(example(name), level, emit=lambda st: None,
                               entry_hook=lambda parent, st: None)
            assert tracker.registered == stats.recursive_calls


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


def _reorderings_by_scan(h: OrderedHistory) -> list[ReorderCandidate]:
    """The reference for ``compute_reorderings``: every reader tested by the
    validating ``causally_before_or_equal`` and every read by the committed
    log's ``writes_var``, whether or not it writes anything."""
    if h.last_event.kind != COMMIT:
        return []
    t = h.order[-1].txn
    hist = h.history
    tlog = hist.txn(t)
    return [
        ReorderCandidate(read.id, t)
        for reader in h.starts
        if reader != t and not causally_before_or_equal(hist, reader, t)
        for read in hist.by_id[reader].read_set
        if tlog.writes_var(read.var)
    ]


def _drop_set_by_scan(h: OrderedHistory, r: EventId, t: TxnId) -> set[EventId]:
    """The events a swap of ``r`` toward ``t`` deletes after ``r``: each
    later event's transaction tested by the validating
    ``causally_before_or_equal``."""
    after = h.order[h.starts[r.txn] + r.index + 1 :]
    return {eid for eid in after if not causally_before_or_equal(h.history, eid.txn, t)}


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_reorderings_match_the_scans_they_replace(level):
    """On every commit state explore_ce enters, on the examples, the gate's
    corner programs and 150 random programs, ``compute_reorderings`` gives
    the reference's candidates in the same order, and for every candidate
    the transactions ``_kept`` leaves out are the reader and those of the
    reference's drop set."""
    commits = writeless = candidates = 0
    for prog in _examples_corners_and_draws(23, 150):
        for _, st in entered_states(prog, level):
            h = st.history
            if h.last_event.kind != COMMIT:
                continue
            cands = compute_reorderings(h)
            assert cands == _reorderings_by_scan(h), h.order
            for c in cands:
                kept = _kept(h.starts, h.history.causal_past, c.read, c.writer)
                scan = _drop_set_by_scan(h, c.read, c.writer)
                assert set(h.starts) - kept == {c.read.txn} | {eid.txn for eid in scan}, (
                    h.order, c
                )
            commits += 1
            writeless += not h.history.txn(h.order[-1].txn).write_set
            candidates += len(cands)
    assert writeless and candidates > 100 and commits > candidates


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
    """``swap`` and its gate ``optimality`` refuse a reader causally before
    the writer, by the same check."""
    base = abort_flip_baseline_state()
    with pytest.raises(ValueError, match="causally before"):
        swap(base, FLIP_FIRST_READ, FLIP_ABORTING)
    with pytest.raises(ValueError, match="causally before"):
        optimality(base, FLIP_FIRST_READ, FLIP_ABORTING, IsolationLevel.CC)


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


@pytest.mark.parametrize("level", (IsolationLevel.CC, IsolationLevel.RC))
def test_swaps_match_a_replay_from_the_root(level):
    """On every (state, candidate) explore_ce reaches, the walk's swap on a
    trace made from the state is the public ``swap``, which replays from
    the root, per-session local state included, when that swap's history
    is consistent, and None exactly when it is not; at cc some are not.
    The swapped trace carries the reader as its pending transaction.  The
    gate, which swaps on a trace, returns None or that same swap, whose
    cached verdict is full construction's."""
    rng = random.Random(9)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(random_program(rng)) for _ in range(150)]
    checked = rejected = 0
    for prog in programs:
        for _, st in entered_states(prog, level):
            for cand in compute_reorderings(st.history):
                r, t = cand.read, cand.writer
                reference = swap(st, r, t)
                traced = explorer._Trace(st, level).swap(r, t)
                if check_consistency(reference.history.history, level):
                    assert traced is not None and traced.state() == reference
                    assert traced.pending == r.txn
                else:
                    assert traced is None
                    rejected += 1
                accepted = optimality(st, r, t, level)
                assert accepted is None or accepted == reference
                if accepted is not None:
                    _assert_matches_full_construction(accepted, level)
                checked += 1
    assert checked > 200
    assert rejected or level is IsolationLevel.RC


# One reader of 60 reads of x and one writer of x.
LONG_READER = (
    "session s { txn { " + " ".join(f"b{i} = read(x);" for i in range(60)) + " } }\n"
    "session w { txn { write(x, 1); } }\n"
)


def test_swaps_re_step_their_reader_without_a_verdict_per_read(monkeypatch):
    """A swap re-steps the reader's events before its pivot and checks the
    rebuilt history once, deriving no verdict per re-stepped read: at cc
    the run computes forced edges at most once per node and gate call, not
    once per re-stepped read.  Every read is a pivot; the rebuilt check
    rejects all but the first, after re-stepping up to 59 reads."""
    calls = 0
    forced_edges_of = isolation._forced_edges_of

    def counted(*args):
        nonlocal calls
        calls += 1
        return forced_edges_of(*args)

    monkeypatch.setattr(isolation, "_forced_edges_of", counted)
    monkeypatch.setattr(explorer, "_forced_edges_of", counted)
    stats = explore_ce(parse(LONG_READER), IsolationLevel.CC)
    assert (stats.swaps_taken, stats.swaps_rejected) == (1, 59)
    assert calls <= stats.recursive_calls + stats.swaps_taken + stats.swaps_rejected


# The relations a swap's trace carries, restricted from the walk's trace
# and edited by the reader's re-stepped events, under their History names.
CUT_RELATIONS = ("txn_ids", "causal_past", "writers", "wr_map")


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_swap_cuts_carry_the_relations_of_full_construction(level):
    """On every swap explore_ce takes, on the examples, the corner programs
    and 100 random programs, the trace ``_Trace.swap`` builds carries ids,
    causal past, writer index and wr map, each equal to those of its
    history by full construction."""
    swaps = 0
    for prog in _examples_corners_and_draws(23, 100):
        for _, st in entered_states(prog, level):
            for cand in compute_reorderings(st.history):
                new = explorer._Trace(st, level).swap(cand.read, cand.writer)
                if new is None or optimality(st, cand.read, cand.writer, level) is None:
                    continue
                h = new.state().history.history
                full = History(h.logs, h.wr)
                for name in CUT_RELATIONS:
                    assert getattr(new, name) == getattr(full, name), name
                swaps += 1
    assert swaps > 100


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
            pos = order_positions(h)
            deleted = {
                eid
                for eid in h.order
                if pos[eid] > pos[r]
                and not causally_before_or_equal(h.history, eid.txn, t)
            }
            affected = sorted(
                (
                    e.id
                    for log in h.history.logs
                    for e in log.read_set
                    if e.id == r or e.id in deleted
                ),
                key=lambda eid: pos[eid],
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
    base = drop_events(h, _drop_set_by_scan(h, r, t) | {r}).history
    fresh = Event(r, READ, var=h.history.event(r).var)
    past = base.causal_past[r.txn]
    for w in reversed(base.txn_ids):
        if (
            w in past
            and base.txn(w).writes_var(fresh.var)
            and check_consistency(base.with_event(fresh, writer=w), level)
        ):
            return w == h.history.wr_map.get(r)
    return False


def _gate_queries(prog, level):
    """Every (entered state, its history, affected read, pivot's writer) the
    gate of ``explore_ce`` can ask about: for each candidate pivot at each
    entered state, the pivot and each external read its swap would
    delete."""
    for _, st in entered_states(prog, level):
        h = st.history
        for cand in compute_reorderings(h):
            dropped = _drop_set_by_scan(h, cand.read, cand.writer)
            for log in h.history.logs:
                for read in log.read_set:
                    if read.id == cand.read or read.id in dropped:
                        yield st, h, read.id, cand.writer


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
    programs and 150 random programs, the query on the current history, and
    on the walk's trace standing at it, gives the verdict of the cut history
    built and checked from scratch."""
    rng = random.Random(13)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    programs += [parse(random_program(rng)) for _ in range(150)]
    verdicts = []
    for prog in programs:
        for st, h, rid, t in _gate_queries(prog, level):
            expected = _reads_causally_latest_by_cut(h, level, rid, t)
            assert reads_causally_latest(h, level, rid, t) == expected, (h, rid, t)
            tr = explorer._Trace(st, level)
            assert reads_causally_latest(tr, level, rid, t) == expected, (h, rid, t)
            verdicts.append(expected)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def _swapped_by_scan(h, r) -> bool:
    """The reference for ``swapped``: every transaction checked against the
    writer, and every wr edge checked for an earlier read of the reader."""
    if r not in order_positions(h):
        raise ValueError(f"event {r} not in history")
    t = h.history.wr_map.get(r)
    if t is None:
        return False
    reader = r.txn
    if not h.starts[t] < h.starts[reader]:
        return False
    if not reader < t:
        return False
    for other in h.history.txn_ids:
        if not other < reader:
            continue
        if h.starts[reader] < h.starts[other]:
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
    examples, the corner programs and 150 random programs, the query on the
    history, and on the walk's trace standing at it, gives the verdict of
    the full scan."""
    rng = random.Random(13)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    programs += [parse(random_program(rng)) for _ in range(150)]
    verdicts = []
    for prog in programs:
        for st, h, rid, _ in _gate_queries(prog, level):
            expected = _swapped_by_scan(h, rid)
            assert swapped(h, rid) == expected, (h, rid)
            assert swapped(explorer._Trace(st, level), rid) == expected, (h, rid)
            verdicts.append(expected)
    assert verdicts.count(True) > 50 and verdicts.count(False) > 400


# a's read of y can observe a transaction t of b while a's earlier read of x
# observes c, which read y from t: an earlier read whose writer causally
# follows t, which only the causal-past test in ``swapped``'s last clause
# tells from a pivot.
LATER_EARLIER_READ = (
    "session a { txn { p = read(x); q = read(y); } } session b { txn { write(y, 1); } txn { write(y, 2); } }"
    " session c { txn { r = read(y); write(x, r); } }"
)
# level -> (outputs, nodes, swaps taken, swaps rejected, max depth)
LATER_EARLIER_READ_RUNS = {
    IsolationLevel.RC: (18, 84, 8, 14, 24),
    IsolationLevel.RA: (18, 84, 8, 14, 24),
    IsolationLevel.CC: (15, 75, 8, 12, 24),
}


@pytest.mark.parametrize("level", EXTENSIBLE)
def test_swapped_rejects_a_read_behind_an_earlier_read_of_a_later_writer(level):
    """On a program where an earlier read of the reader observes a
    transaction causally after the pivot's writer, ``swapped`` agrees with
    the scan on every gate query, the counters are frozen, and the run
    emits ``dfs``'s distinct histories.  Without the causal-past test in
    its last clause the run emits one history twice and loses another."""
    prog = parse(LATER_EARLIER_READ)
    for _, h, rid, _ in _gate_queries(prog, level):
        assert swapped(h, rid) == _swapped_by_scan(h, rid), (h, rid)
    emitted: list[bytes] = []
    stats = explore_ce(prog, level, emit=lambda s: emitted.append(canonical_encode(s.history.history)))
    naive: set[bytes] = set()
    dfs(prog, level, emit=lambda s: naive.add(canonical_encode(s.history.history)))
    assert (stats.outputs, stats.recursive_calls, stats.swaps_taken, stats.swaps_rejected,
            stats.max_depth) == LATER_EARLIER_READ_RUNS[level]
    assert (stats.blocked_calls, stats.inconsistent_branch_entries) == (0, 0)
    assert len(emitted) == len(set(emitted)) and set(emitted) == naive


@pytest.mark.parametrize("level", EXTENSIBLE_LEVELS)
def test_gate_refuses_by_its_second_clause_every_read_its_first_refuses(level, monkeypatch):
    """On every gate call explore_ce makes, on the examples and 50 random
    programs, each read the swap would delete that ``swapped`` accepts is
    one ``reads_causally_latest`` refuses (the argument in its docstring),
    so the first clause decides nothing the second would not.  Such reads
    occur, so the check is not vacuous."""
    real = explorer.optimality
    refused = 0

    def checked(tr, r, t, lvl):
        nonlocal refused
        kept = _kept(tr.starts, tr.causal_past, r, t)
        for u in tr.starts:
            if u in kept:
                continue
            for read in tr.by_id[u].read_set:
                if (u != r.txn or read.id >= r) and swapped(tr, read.id):
                    assert not reads_causally_latest(tr, lvl, read.id, t), (r, t, read.id)
                    refused += 1
        return real(tr, r, t, lvl)

    monkeypatch.setattr(explorer, "optimality", checked)
    rng = random.Random(0)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(random_program(rng)) for _ in range(50)]
    for prog in programs:
        explore_ce(prog, level)
    assert refused > 0


def test_gate_query_builds_no_history(monkeypatch):
    """The query, on a history or on the walk's trace, builds no
    transaction log, history or ordered history and cuts nothing, yet keeps
    the reference's verdicts."""
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(source) for source in GATE_CORNER_PROGRAMS]
    cases = [
        (h, explorer._Trace(st, level), level, rid, t,
         _reads_causally_latest_by_cut(h, level, rid, t))
        for level in EXTENSIBLE
        for prog in programs
        for st, h, rid, t in _gate_queries(prog, level)
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
    for h, tr, level, rid, t, expected in cases:
        assert reads_causally_latest(h, level, rid, t) == expected
        assert reads_causally_latest(tr, level, rid, t) == expected
    assert {expected for *_, expected in cases} == {True, False}


BAD_READS_SOURCE = """\
session a { txn { write(x, 1); b = read(x); c = read(y); } }
session w { txn { write(y, 2); } }
"""
BAD_READS_A, BAD_READS_W = TxnId(0, 0), TxnId(1, 0)


@pytest.mark.parametrize("call", ["swap", "optimality", "reads_causally_latest"])
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
        elif call == "optimality":
            optimality(st, r, BAD_READS_W, IsolationLevel.CC)
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


def test_valid_writes_refuse_a_reader_that_did_not_enter_last():
    """Two transactions may be pending, but only the last to enter is
    extended: the read of the first raises the order's message, and the
    same read is decided once it is the last to enter."""
    prog = parse("session a { txn { r = read(x); } } session b { txn { write(x, 1); } }")
    a, b = TxnId(0, 0), TxnId(1, 0)
    st = _drive(ExplorationState.initial(prog), [(begin_event(a), None), (begin_event(b), None)])
    action = step_local(st, 0)
    assert action.is_external_read and st.history.history.pending_txns() == (a, b)
    with pytest.raises(ValueError) as caught:
        valid_writes(st, action, IsolationLevel.CC)
    assert str(caught.value) == f"order interleaves {a} with {b}"
    st = _drive(ExplorationState.initial(prog), [(begin_event(a), None)])
    assert list(valid_writes(st, step_local(st, 0), IsolationLevel.CC)) == [INIT_TXN]


@pytest.mark.parametrize("call", ["optimality", "reads_causally_latest", "valid_writes"])
@pytest.mark.parametrize("level", [IsolationLevel.SER, IsolationLevel.SI], ids=["ser", "si"])
def test_decisions_on_the_parent_refuse_the_levels_explore_ce_cannot_walk(call, level):
    """The gate, its query and the read decision answer at CC on
    racing_reads, but at SER and SI no decision on the parent is exact:
    each raises the message ``explore_ce`` gives for that level."""
    states = [st for _, st in entered_states(example("racing_reads"), IsolationLevel.CC)]
    st, cand = next((st, c) for st in states for c in compute_reorderings(st.history)
                    if optimality(st, c.read, c.writer, IsolationLevel.CC) is not None)
    reader, action = next((st, a) for st in states
                          if (a := next_event(st)) is not None and a.is_external_read)
    assert valid_writes(reader, action, IsolationLevel.CC)
    message = f"{level.value} is not causally extensible; use dfs instead"
    with pytest.raises(ValueError, match=re.escape(message)):
        if call == "optimality":
            optimality(st, cand.read, cand.writer, level)
        elif call == "reads_causally_latest":
            reads_causally_latest(st.history, level, cand.read, cand.writer)
        else:
            valid_writes(reader, action, level)


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
def test_gate_heavy_fingerprints_match_frozen_values(name, level, monkeypatch):
    """Every counter and the emission sequence, frozen on the runs where the
    gate does the most work, from the gate that built a cut history per
    query: the query on the current history must take the same swaps.  The
    run cuts, replays and appends to no history, so the values also pin
    that each taken swap is built on the walk's trace."""
    outputs, calls, taken, rejected, depth, sha = GATE_HEAVY_RUNS[name, level]
    digest = hashlib.sha256()

    def refuse(*args, **kwargs):
        raise AssertionError("the walk cut or replayed a history")

    for obj, attr in [(explorer, "replay"), (explorer, "drop_events"),
                      (explorer, "apply_event"), (OrderedHistory, "append")]:
        monkeypatch.setattr(obj, attr, refuse)

    def emit(st: ExplorationState) -> None:
        digest.update(canonical_encode(st.history.history) + b"\n")

    stats = explore_ce(parse(GATE_HEAVY_SOURCES[name]), level, emit=emit)
    assert (stats.outputs, stats.filtered_outputs, stats.recursive_calls) == (outputs, 0, calls)
    assert (stats.blocked_calls, stats.inconsistent_branch_entries) == (0, 0)
    assert (stats.swaps_taken, stats.swaps_rejected, stats.max_depth) == (taken, rejected, depth)
    assert digest.hexdigest() == sha


def _action_fields(action: NextAction) -> list:
    """Every field of ``action`` with its exact type, so that an int and a
    bool of equal value, or a tuple and a ``TxnId``, differ."""
    ev = action.event
    values = (ev.id.txn, ev.id.index, ev.kind, ev.var, ev.value, action.target, action.internal_value)
    return [type(action), type(ev), type(ev.id)] + [(v, type(v)) for v in values]


MEMO_WALKS = [(explore_ce, level) for level in EXTENSIBLE] + [
    (dfs, IsolationLevel.SER), (dfs, IsolationLevel.SI)
]


@pytest.mark.parametrize(
    "walk, level", MEMO_WALKS,
    ids=[lvl.value if w is explore_ce else f"dfs-{lvl.value}" for w, lvl in MEMO_WALKS],
)
def test_step_memo_gives_what_an_uncached_step_builds(walk, level, monkeypatch):
    """At every state the walk enters, on the examples and 50 random
    programs, each action of the scheduling rule, taken from the step memo,
    equals field by field the action built with the memo bypassed by its
    ``__wrapped__`` function, and most of them are hits: the memo's key
    holds every field of the action it returns."""
    memo = program_module._action
    schedule, checked = explorer._schedule, []

    def compared(st):
        warm = list(schedule(st))
        with monkeypatch.context() as m:
            for namespace in (program_module, explorer):
                m.setattr(namespace, "_action", memo.__wrapped__)
            cold = list(schedule(st))
        assert [_action_fields(a) for a in warm] == [_action_fields(a) for a in cold]
        checked.append(len(warm))
        return iter(warm)

    monkeypatch.setattr(explorer, "_schedule", compared)
    rng = random.Random(31)
    programs = [example(name) for name in sorted(EXAMPLE_PROGRAMS)]
    programs += [parse(random_program(rng)) for _ in range(50)]
    memo.cache_clear()
    nodes = sum(walk(prog, level).recursive_calls for prog in programs)
    info = memo.cache_info()
    assert len(checked) == nodes and max(checked) > 1
    assert info.hits > 4 * info.misses and info.currsize <= info.maxsize


@pytest.mark.parametrize(
    "walk, level", MEMO_WALKS,
    ids=[lvl.value if w is explore_ce else f"dfs-{lvl.value}" for w, lvl in MEMO_WALKS],
)
def test_extended_logs_equal_the_validated_log(walk, level, monkeypatch):
    """On every ``extended`` call of the walk over the examples, the corner
    programs and 50 random programs, the log returned equals the validated
    ``TransactionLog(log.id, log.events + (event,))``, with its status,
    write set, read set and any fragment cached on it; many calls return
    the log's kept last extension, which a hit must equal too."""
    extended = TransactionLog.extended
    hits = calls = 0

    def checked(log, event):
        nonlocal hits, calls
        last = vars(log).get("_extension")
        new = extended(log, event)
        fresh = TransactionLog(log.id, log.events + (event,))
        assert new == fresh
        assert (new.status, new.write_set, new.read_set) == (
            fresh.status, fresh.write_set, fresh.read_set)
        assert vars(new).get("fragment", fresh.fragment) == fresh.fragment
        calls += 1
        hits += last is not None and last[1] is new
        return new

    monkeypatch.setattr(TransactionLog, "extended", checked)
    for prog in _examples_corners_and_draws(43, 50):
        walk(prog, level, emit=lambda st: canonical_encode(st.history.history))
    assert hits > calls // 8 > 0


_RUNS = {
    "ce-rc": lambda prog, emit: explore_ce(prog, IsolationLevel.RC, emit=emit),
    "ce-cc": lambda prog, emit: explore_ce(prog, IsolationLevel.CC, emit=emit),
    "star-cc-ser": lambda prog, emit: explore_ce_star(
        prog, IsolationLevel.CC, IsolationLevel.SER, emit=emit),
    "dfs-ser": lambda prog, emit: dfs(prog, IsolationLevel.SER, emit=emit),
}


def test_logs_a_finished_run_built_are_all_freed(monkeypatch):
    """Once a run returns and the states it emitted are dropped, every log
    its traces stored is freed: logs keep their last extension on
    themselves, and the run's begin logs live in a table of its traces,
    never in one that outlives the run."""
    refs: list[weakref.ref] = []
    apply = explorer._Trace._apply

    def recorded(tr, event, writer):
        first_write = apply(tr, event, writer)
        refs.append(weakref.ref(tr.by_id[event.id.txn]))
        return first_write

    monkeypatch.setattr(explorer._Trace, "_apply", recorded)
    programs = [parse(GATE_HEAVY_SOURCES["prog3"]), *_examples_corners_and_draws(47, 10)]
    for run, walk in _RUNS.items():
        for prog in programs[1:] if run == "dfs-ser" else programs:  # dfs on prog3: ~14 s
            emitted: list[ExplorationState] = []
            walk(prog, emitted.append)
            assert emitted
            del emitted
    gc.collect()
    assert len(refs) > 1000
    assert [ref() for ref in refs if ref() is not None] == []


@pytest.mark.parametrize("run", sorted(_RUNS))
def test_a_run_begins_each_transaction_log_once(monkeypatch, run):
    """Every begin of a transaction in one run, on the walk's traces and on
    a swap's re-step of the reader, stores the same log object: the begin
    log built on its first begin, holding that begin alone, so that the
    transaction's later events extend one chain of logs."""
    begun: dict[TxnId, TransactionLog] = {}
    counts = {"begins": 0, "in swap": 0, "transactions": 0}
    in_swap = False
    apply, swap_trace = explorer._Trace._apply, explorer._Trace.swap

    def recorded(tr, event, writer):
        first_write = apply(tr, event, writer)
        if event.kind == BEGIN:
            log = tr.by_id[event.id.txn]
            assert log.events == (event,) and log.status == PENDING
            assert log is begun.setdefault(event.id.txn, log), (run, event)
            counts["begins"] += 1
            counts["in swap"] += in_swap
        return first_write

    def swapping(tr, r, t):
        nonlocal in_swap
        in_swap = True
        try:
            return swap_trace(tr, r, t)
        finally:
            in_swap = False

    monkeypatch.setattr(explorer._Trace, "_apply", recorded)
    monkeypatch.setattr(explorer._Trace, "swap", swapping)
    programs = [parse(GATE_HEAVY_SOURCES["prog3"]), *_examples_corners_and_draws(53, 6)]
    for prog in programs[1:] if run == "dfs-ser" else programs:  # dfs on prog3: ~14 s
        begun.clear()
        _RUNS[run](prog, None)
        counts["transactions"] += len(begun)
    assert counts["begins"] > 2 * counts["transactions"] > 0
    assert (counts["in swap"] > 0) == (run != "dfs-ser")


@pytest.mark.parametrize(
    "name, level", [("prog3", IsolationLevel.RC), ("prog3", IsolationLevel.CC),
                    ("ring3x2", IsolationLevel.RA)],
    ids=lambda x: getattr(x, "value", x),
)
def test_runs_with_the_step_memo_emptied_at_every_node_match_warm_runs(name, level):
    """A run whose entry hook empties the step memo at every node, so that
    nearly every action is built afresh, takes the same counters and emits
    the same histories in the same order as a run that finds them in it."""
    prog = parse(GATE_HEAVY_SOURCES[name])
    runs = []
    for hook in (lambda parent, st: None, lambda parent, st: program_module._action.cache_clear()):
        digest = hashlib.sha256()
        stats = explore_ce(prog, level, entry_hook=hook, emit=lambda st: digest.update(
            canonical_encode(st.history.history) + b"\n"))
        runs.append((stats.outputs, stats.recursive_calls, stats.swaps_taken,
                     stats.swaps_rejected, stats.max_depth, digest.hexdigest()))
    assert runs[0] == runs[1]


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


@pytest.mark.parametrize("strong", list(IsolationLevel), ids=lambda level: level.value)
@pytest.mark.parametrize("weak", EXTENSIBLE_LEVELS, ids=lambda level: level.value)
def test_star_refuses_a_strong_level_weaker_than_the_walk(weak, strong):
    """A strong level declared before the weak one is refused; an equal or
    a later one runs."""
    levels = list(IsolationLevel)
    if levels.index(strong) < levels.index(weak):
        with pytest.raises(ValueError, match="weaker than the traversal level"):
            explore_ce_star(example("racing_reads"), weak, strong)
    else:
        assert explore_ce_star(example("racing_reads"), weak, strong).outputs > 0


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


def _lost_update_with_bystanders(bystanders: int) -> str:
    """Two read-modify-write sessions on ``x``, which SI refutes only after
    trying the orders of ``bystanders`` sessions of three blind writes."""
    racers = "".join(
        f"session {name} {{ txn {{ l = read(x); write(x, l + 1); }} }}\n" for name in "ab"
    )
    return racers + "".join(
        f"session z{i} {{ " + " ".join(f"txn {{ write(z{i}, {j}); }}" for j in range(3)) + " }\n"
        for i in range(bystanders)
    )


def test_time_limit_reaches_inside_the_si_search():
    """With 10 bystander sessions one SI search runs for seconds: the
    star walk's first leaf took about 7 s before its filter returned.  The
    search polls the run's deadline, so both the star filter (cc walk, si
    filter) and dfs at si stop within the 0.2 s budget plus 1 s of slack
    for a loaded machine, with the run's partial counters."""
    program = parse(_lost_update_with_bystanders(10))
    for run in (
        lambda: explore_ce_star(program, IsolationLevel.CC, IsolationLevel.SI, time_limit=0.2),
        lambda: dfs(program, IsolationLevel.SI, time_limit=0.2),
    ):
        start = time.monotonic()
        with pytest.raises(TimeLimitExceeded) as exc:
            run()
        assert time.monotonic() - start < 0.2 + 1.0
        assert exc.value.stats.recursive_calls > 0


def test_a_swap_trace_carries_the_run_deadline(monkeypatch):
    """Every trace a taken swap builds carries the walk's deadline, so the
    strong filter at the leaves under a swap polls it too; a run with no
    time limit has none."""
    swap, seen = explorer._Trace.swap, []

    def recorded(self, r, t):
        new = swap(self, r, t)
        if new is not None:
            seen.append((self.deadline, new.deadline))
        return new

    monkeypatch.setattr(explorer._Trace, "swap", recorded)
    program = example("racing_reads")
    explore_ce_star(program, IsolationLevel.CC, IsolationLevel.SI, time_limit=600.0)
    assert seen and all(ours is not None and theirs == ours for ours, theirs in seen)
    seen.clear()
    explore_ce_star(program, IsolationLevel.CC, IsolationLevel.SI)
    assert seen and all(ours is None and theirs is None for ours, theirs in seen)


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
    """The walks materialize emitted states from their trace, which keeps
    nothing of them: keeping the emitted states keeps only their own
    histories alive, over many more nodes than emissions.  SER (dfs) and
    TRUE (explore_ce) fill no closure."""
    program = parse(EXAMPLE_PROGRAMS[name])
    kept: list[ExplorationState] = []
    with track_history_memory() as tracker:
        naive = dfs(program, IsolationLevel.SER, emit=kept.append)
        walked = explore_ce(program, IsolationLevel.TRUE, emit=kept.append)
        gc.collect()
        assert naive.recursive_calls + walked.recursive_calls > 3 * len(kept)
        assert tracker.live <= len(kept) + 2
