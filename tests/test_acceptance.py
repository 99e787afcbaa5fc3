"""Acceptance checks: one test per shipped guarantee.

Every test carries ``@pytest.mark.criterion(n, label)`` so the conftest
plugin can print one PASS/FAIL line per criterion after the run.  The
heavyweight corpus — all bundled example programs plus five hundred
generated ones — is explored once per level by a module-scoped fixture and
shared across the criteria that judge different aspects of the same runs.
"""

from __future__ import annotations

import copy
import gc
import random
import time
import tracemalloc
from dataclasses import dataclass, field

import pytest

from fixtures import (
    causal_cycle_history,
    containment_trio,
    is_prefix,
    iterate_prev,
    pending_reader_extension,
    pending_writer_extension,
    random_prefix,
    snapshot_blocker,
    track_history_memory,
)
from txndpor import explorer
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import (
    RunStats,
    causal_extension_exists,
    dfs,
    explore_ce,
    explore_ce_star,
    next_event,
)
from txndpor.generate import random_history, random_program
from txndpor.isolation import (
    brute_force_consistency,
    check_consistency,
)
from txndpor.model import (
    INIT_TXN,
    PENDING,
    EventId,
    History,
    IsolationLevel,
    TxnId,
    canonical_encode,
    causally_before_or_equal,
    commit_event,
    read_event,
    write_event,
)
from txndpor.oracles import OracleCheckError, entry_check
from txndpor.program import Program, parse

CHECKED_LEVELS = (
    IsolationLevel.RC,
    IsolationLevel.RA,
    IsolationLevel.CC,
    IsolationLevel.SI,
    IsolationLevel.SER,
)
EXPLORED_LEVELS = (IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)

CORPUS_SEED = 20240814
CORPUS_RANDOM_PROGRAMS = 500
# Full predecessor chains are walked for the bundled examples and for every
# twenty-fifth generated program; the per-entry hook already covers single
# predecessor steps everywhere.
PREV_CHAIN_STRIDE = 25


# ---------------------------------------------------------------------------
# The shared corpus: every program explored once per level, with oracles
# riding along on each recursion entry
# ---------------------------------------------------------------------------


@dataclass
class LevelRun:
    """What one (program, level) exploration leaves behind for the criteria."""

    ce_keys: tuple[bytes, ...] = ()
    dfs_keys: tuple[bytes, ...] = ()
    ce_stats: RunStats | None = None
    entries: int = 0
    unsound: int = 0
    oracle_violations: list[str] = field(default_factory=list)


@dataclass
class ProgramRuns:
    name: str
    program: Program
    sessions: int
    by_level: dict[IsolationLevel, LevelRun] = field(default_factory=dict)
    sampled_outputs: tuple[tuple[IsolationLevel, History], ...] = ()
    star_ser_keys: tuple[bytes, ...] = ()
    star_si_keys: tuple[bytes, ...] = ()
    dfs_ser_keys: tuple[bytes, ...] = ()
    dfs_si_keys: tuple[bytes, ...] = ()
    star_ser_stats: RunStats | None = None
    star_si_stats: RunStats | None = None
    unreduced_cc_calls: int = 0


def _entry_checker(program: Program, level: IsolationLevel, run: LevelRun):
    """Every recursion entry must be order-respectful, agree with the
    canonical transaction order, and sit exactly one predecessor step below
    its parent (:func:`oracles.entry_check`).  Counts the entries and
    records the first three failures."""
    check = entry_check(program, level)

    def hook(parent, st) -> None:
        run.entries += 1
        if len(run.oracle_violations) < 3:
            try:
                check(parent, st)
            except OracleCheckError as exc:
                run.oracle_violations.append(str(exc))

    return hook


@pytest.fixture(scope="module")
def corpus_runs() -> tuple[list[ProgramRuns], float]:
    rng = random.Random(CORPUS_SEED)
    named = list(EXAMPLE_PROGRAMS.items())
    named += [
        (f"random-{i}", random_program(rng)) for i in range(CORPUS_RANDOM_PROGRAMS)
    ]

    runs: list[ProgramRuns] = []
    explored_elapsed = 0.0
    for idx, (name, source) in enumerate(named):
        program = parse(source)
        pr = ProgramRuns(name=name, program=program, sessions=len(program.sessions))
        keep_outputs = name in EXAMPLE_PROGRAMS or idx % PREV_CHAIN_STRIDE == 0

        start = time.monotonic()
        for level in EXPLORED_LEVELS:
            run = LevelRun()
            emitted: list[History] = []
            run.ce_stats = explore_ce(
                program,
                level,
                emit=lambda st: emitted.append(st.history.history),
                entry_hook=_entry_checker(program, level, run),
            )
            run.ce_keys = tuple(canonical_encode(h) for h in emitted)
            run.unsound = sum(
                1 for h in emitted if not brute_force_consistency(h, level)
            )
            raw: list[bytes] = []
            dfs(
                program,
                level,
                emit=lambda st: raw.append(canonical_encode(st.history.history)),
            )
            run.dfs_keys = tuple(raw)
            pr.by_level[level] = run
            if keep_outputs:
                pr.sampled_outputs += tuple((level, h) for h in emitted)
        explored_elapsed += time.monotonic() - start

        star_ser: list[bytes] = []
        pr.star_ser_stats = explore_ce_star(
            program,
            IsolationLevel.CC,
            IsolationLevel.SER,
            emit=lambda st: star_ser.append(canonical_encode(st.history.history)),
        )
        pr.star_ser_keys = tuple(star_ser)
        star_si: list[bytes] = []
        pr.star_si_stats = explore_ce_star(
            program,
            IsolationLevel.CC,
            IsolationLevel.SI,
            emit=lambda st: star_si.append(canonical_encode(st.history.history)),
        )
        pr.star_si_keys = tuple(star_si)
        dfs_ser: list[bytes] = []
        dfs(
            program,
            IsolationLevel.SER,
            emit=lambda st: dfs_ser.append(canonical_encode(st.history.history)),
        )
        pr.dfs_ser_keys = tuple(dfs_ser)
        dfs_si: list[bytes] = []
        dfs(
            program,
            IsolationLevel.SI,
            emit=lambda st: dfs_si.append(canonical_encode(st.history.history)),
        )
        pr.dfs_si_keys = tuple(dfs_si)
        pr.unreduced_cc_calls = explore_ce_star(
            program, IsolationLevel.TRUE, IsolationLevel.CC
        ).recursive_calls

        runs.append(pr)
    return runs, explored_elapsed


# ---------------------------------------------------------------------------
# The criteria
# ---------------------------------------------------------------------------


@pytest.mark.criterion(
    1, "level checker agrees with brute force on 2000 random histories"
)
def test_level_checker_matches_brute_force_on_random_histories():
    """Saturation plus order search and the permutation oracle never
    disagree, and the sweep stays under a minute."""
    rng = random.Random(616)
    start = time.monotonic()
    mismatches = 0
    for _ in range(2000):
        h = random_history(rng, max_txns=6)
        for level in CHECKED_LEVELS:
            if check_consistency(h, level) != brute_force_consistency(h, level):
                mismatches += 1
    elapsed = time.monotonic() - start
    assert mismatches == 0
    assert elapsed < 60.0


@pytest.mark.criterion(2, "bundled verdict fixtures reproduce exactly")
def test_bundled_verdict_fixtures_reproduce():
    """The handcrafted histories keep their exact verdicts."""
    # A cyclic causal dependency is rejected by causal consistency.
    assert check_consistency(causal_cycle_history(), IsolationLevel.CC) is False

    # Dropping a leaf reader leaves a causally-closed sub-history; dropping
    # an observed writer does not.
    full, closed_sub, broken_sub = containment_trio()
    assert is_prefix(closed_sub, full) is True
    assert is_prefix(broken_sub, full) is False

    # A pending reader can pick up one more causal read under read atomic,
    # while a pending writer can be blocked outright.
    h, ext = pending_reader_extension()
    assert causal_extension_exists(h, ext, IsolationLevel.RA) is True
    h, ext = pending_writer_extension()
    assert causal_extension_exists(h, ext, IsolationLevel.RA) is False

    # Extending one of two committed concurrent writers with a conflicting
    # write breaks both snapshot levels yet still satisfies causal
    # consistency.
    h, ext = snapshot_blocker()
    grown = h.with_event(ext)
    assert check_consistency(grown, IsolationLevel.SI) is False
    assert check_consistency(grown, IsolationLevel.SER) is False
    assert check_consistency(grown, IsolationLevel.CC) is True


@pytest.mark.criterion(
    3, "exploration is sound, complete, and duplicate-free on the corpus"
)
def test_exploration_is_sound_complete_and_duplicate_free(corpus_runs):
    """Swapping enumeration emits exactly the deduplicated naive output
    set, never twice, and only brute-force-consistent histories."""
    runs, explored_elapsed = corpus_runs
    assert len(runs) >= 500 + len(EXAMPLE_PROGRAMS)
    for pr in runs:
        for level in EXPLORED_LEVELS:
            run = pr.by_level[level]
            assert len(run.ce_keys) == len(set(run.ce_keys)), (
                f"{pr.name} at {level.value}: duplicate emission"
            )
            assert set(run.ce_keys) == set(run.dfs_keys), (
                f"{pr.name} at {level.value}: output set mismatch"
            )
            assert run.unsound == 0, (
                f"{pr.name} at {level.value}: emitted history fails brute force"
            )
    assert explored_elapsed < 600.0


@pytest.mark.criterion(
    4, "no blocked calls or inconsistent entries across the corpus"
)
def test_every_run_is_strongly_optimal(corpus_runs):
    """Exploration never drives a branch into a dead end or an inconsistent
    state; in particular the two-read session under read committed never
    enters the torn observation."""
    runs, _ = corpus_runs
    for pr in runs:
        for level in EXPLORED_LEVELS:
            stats = pr.by_level[level].ce_stats
            assert stats.blocked_calls == 0, f"{pr.name} at {level.value}"
            assert stats.inconsistent_branch_entries == 0, (
                f"{pr.name} at {level.value}"
            )

    program = parse(EXAMPLE_PROGRAMS["pair_reader"])
    entered: list[dict] = []
    explore_ce(
        program,
        IsolationLevel.RC,
        entry_hook=lambda parent, st: entered.append(dict(st.history.history.wr)),
    )
    torn = {
        EventId(TxnId(0, 0), 1): TxnId(1, 0),
        EventId(TxnId(0, 0), 2): INIT_TXN,
    }
    assert entered
    assert all(not (torn.items() <= wr.items()) for wr in entered)


@pytest.mark.criterion(
    5, "filtered exploration matches direct strong-level enumeration"
)
def test_filtered_engine_matches_strong_level_enumeration(corpus_runs):
    """Traversing at causal consistency while filtering outputs yields the
    strong level's exact set, still without duplicates, and at least one
    program pays a genuine visited-then-filtered history."""
    runs, _ = corpus_runs
    filtered_somewhere = 0
    for pr in runs:
        assert len(pr.star_ser_keys) == len(set(pr.star_ser_keys)), pr.name
        assert len(pr.star_si_keys) == len(set(pr.star_si_keys)), pr.name
        assert set(pr.star_ser_keys) == set(pr.dfs_ser_keys), pr.name
        assert set(pr.star_si_keys) == set(pr.dfs_si_keys), pr.name
        if pr.star_ser_stats.filtered_outputs > 0:
            filtered_somewhere += 1
    assert filtered_somewhere >= 1
    cross = next(pr for pr in runs if pr.name == "cross_writes")
    assert cross.star_ser_stats.filtered_outputs >= 1


@pytest.mark.criterion(6, "structural oracles hold at every recursion entry")
def test_structural_oracles_hold_at_every_entry(corpus_runs):
    """Order-respectfulness, canonical-order agreement, and the
    predecessor relation were checked live on each entry; the sampled
    outputs also walk their full predecessor chains back to the start."""
    runs, _ = corpus_runs
    total_entries = 0
    for pr in runs:
        for level in EXPLORED_LEVELS:
            run = pr.by_level[level]
            total_entries += run.entries
            assert not run.oracle_violations, (
                f"{pr.name} at {level.value}: {run.oracle_violations[0]}"
            )
            assert run.entries == run.ce_stats.recursive_calls
    assert total_entries > 0

    for pr in runs:
        for level, hist in pr.sampled_outputs:
            chain = list(iterate_prev(pr.program, hist, level))
            assert len(chain[-1].txn_ids) == 1, f"{pr.name} at {level.value}"
            assert all(len(h.txn_ids) > 1 for h in chain[:-1])


@pytest.mark.criterion(7, "causal extensibility and prefix closure hold")
def test_extensibility_and_prefix_closure_properties():
    """Weak levels always let a causally-maximal pending transaction take
    one more step; every level survives causally-closed containment; the
    snapshot levels fail extensibility on the concurrent-writer fixture."""
    extensions = 0
    for seed in range(300):
        h = random_history(random.Random(seed))
        pending = [t for t in h.txn_ids if h.txn(t).status == PENDING]
        maximal = [
            t
            for t in pending
            if not any(
                t2 != t and causally_before_or_equal(h, t, t2) for t2 in h.txn_ids
            )
        ]
        if not maximal:
            continue
        for level in EXPLORED_LEVELS:
            if not check_consistency(h, level):
                continue
            for t in maximal:
                nxt = len(h.txn(t).events)
                for ev in (
                    read_event(t, nxt, "x"),
                    write_event(t, nxt, "x", 999),
                    commit_event(t, nxt),
                ):
                    assert causal_extension_exists(h, ev, level), (
                        seed,
                        level.value,
                        t,
                    )
                    extensions += 1
    assert extensions >= 100

    closures = 0
    for seed in range(300):
        rng = random.Random(seed)
        h = random_history(rng)
        p = random_prefix(rng, h)
        for level in CHECKED_LEVELS:
            if check_consistency(h, level):
                assert check_consistency(p, level), (seed, level.value)
                closures += 1
    assert closures >= 100

    h, ext = snapshot_blocker()
    assert not causal_extension_exists(h, ext, IsolationLevel.SI)
    assert not causal_extension_exists(h, ext, IsolationLevel.SER)
    assert causal_extension_exists(h, ext, IsolationLevel.CC)


@pytest.mark.criterion(8, "swap-based exploration beats naive enumeration")
def test_swapping_exploration_beats_naive_enumeration(corpus_runs):
    """Distinct-history counts sit strictly below raw terminal-execution
    counts on the contended programs, and traversing at the target level
    visits fewer nodes than traversing unrestricted and filtering."""
    runs, _ = corpus_runs
    cc = IsolationLevel.CC

    racing = next(pr for pr in runs if pr.name == "racing_reads")
    r = racing.by_level[cc]
    assert len(r.dfs_keys) > len(r.ce_keys)

    reduced = [
        pr
        for pr in runs
        if pr.sessions >= 3
        and len(pr.by_level[cc].dfs_keys) > len(pr.by_level[cc].ce_keys)
    ]
    assert len(reduced) >= 20

    differing = [
        pr for pr in runs if pr.by_level[cc].ce_stats.recursive_calls != pr.unreduced_cc_calls
    ]
    fewer = [
        pr
        for pr in differing
        if pr.by_level[cc].ce_stats.recursive_calls < pr.unreduced_cc_calls
    ]
    assert differing
    assert len(fewer) >= 0.8 * len(differing)


@pytest.mark.criterion(9, "peak retained histories stay within the depth bound")
def test_peak_retained_histories_track_recursion_depth(monkeypatch):
    """The enumerator keeps search state bounded by the open recursion
    frames rather than accumulating a frontier.  Its trace's undo stack is
    shorter than the depth of every node it stands at; the ``tracemalloc``
    peak of a run is at most depth times the largest complete history,
    copied whole; and the histories it builds stay within twice depth
    times the largest single history."""
    program = parse(EXAMPLE_PROGRAMS["racing_reads"])
    with track_history_memory() as tracker:
        stats = explore_ce(program, IsolationLevel.CC)
    assert tracker.max_history_bytes > 0
    assert tracker.peak_bytes <= stats.max_depth * tracker.max_history_bytes * 2

    entered: list = []  # keeps every state alive, so ids stay unique
    depth_of: dict[int, int] = {}
    undo_and_depth: list[tuple[int, int]] = []

    def hook(parent, st) -> None:
        entered.append(st)
        if parent is None:
            depth_of[id(st)] = 1
        else:  # a swapped node is walked as its parent commit's sibling
            swapped = st.history.order[:-1] != parent.history.order
            depth_of[id(st)] = depth_of[id(parent)] + (not swapped)

    def checked_next_event(tr):  # called on the trace right after the hook
        undo_and_depth.append((len(tr.undo), depth_of[id(entered[-1])]))
        return next_event(tr)

    monkeypatch.setattr(explorer, "next_event", checked_next_event)
    explore_ce(program, IsolationLevel.CC, entry_hook=hook)
    monkeypatch.undo()
    assert len(undo_and_depth) == stats.recursive_calls
    assert max(depth for _, depth in undo_and_depth) == stats.max_depth
    assert all(undo < depth for undo, depth in undo_and_depth)
    assert max(undo for undo, _ in undo_and_depth) > 0

    complete: list = []
    explore_ce(program, IsolationLevel.CC, emit=complete.append)
    gc.collect()
    tracemalloc.start()
    try:
        largest = 0
        for st in complete:
            base = tracemalloc.get_traced_memory()[0]
            whole = copy.deepcopy(st.history)
            largest = max(largest, tracemalloc.get_traced_memory()[0] - base)
            del whole
        gc.collect()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        explore_ce(program, IsolationLevel.CC)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert 0 < peak <= stats.max_depth * largest
