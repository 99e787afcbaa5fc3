"""Random corpora and counterexample shrinking for the verification suites.

Random histories are built around a hidden interleaving so that session
order and write-read are acyclic by construction; random programs stay
within small bounds (a few sessions, short transactions, one or two shared
variables) so the naive baseline remains tractable next to the optimized
enumerator.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable, Iterable, Iterator, TypeVar

from .model import (
    ABORTED,
    COMMITTED,
    INIT_TXN,
    PENDING,
    WRITE,
    EventId,
    History,
    OrderedHistory,
    TransactionLog,
    TxnId,
    abort_event,
    begin_event,
    commit_event,
    read_event,
    write_event,
)
from .program import (
    Program,
    ProgramError,
    SessionDecl,
    Transaction,
    format_program,
    parse,
)

_VARS = ("x", "y", "z")
T = TypeVar("T")


# ---------------------------------------------------------------------------
# Random histories
# ---------------------------------------------------------------------------


def random_history(rng: random.Random, *, max_txns: int = 5) -> History:
    """A random valid history with at most ``max_txns`` transactions plus init.

    Transactions are spread over up to three sessions, use one or two
    variables, hold one to three reads and writes, and are interleaved along
    a hidden global order; each external read observes a random earlier
    non-aborted writer of its variable (init always qualifies), which keeps
    session order and write-read acyclic by construction.  Statuses mix
    committed, aborted and pending transactions.
    """
    variables = _VARS[: rng.randint(1, 2)]
    n_txns = rng.randint(1, max_txns)
    n_sessions = rng.randint(1, min(3, n_txns))
    session_of: list[int] = [s for s in range(n_sessions)]
    session_of += [rng.randrange(n_sessions) for _ in range(n_txns - n_sessions)]
    rng.shuffle(session_of)
    remaining: dict[int, list[TxnId]] = {}
    counts: dict[int, int] = {}
    for s in session_of:
        tid = TxnId(s, counts.get(s, 0))
        counts[s] = tid.index + 1
        remaining.setdefault(s, []).append(tid)
    interleaving: list[TxnId] = []
    while remaining:
        s = rng.choice(sorted(remaining))
        interleaving.append(remaining[s].pop(0))
        if not remaining[s]:
            del remaining[s]

    logs = list(OrderedHistory.initial(variables).history.logs)

    writers_so_far: list[tuple[TxnId, str]] = [(INIT_TXN, v) for v in variables]
    aborted: set[TxnId] = set()
    wr: list[tuple[EventId, TxnId]] = []
    for tid in interleaving:
        roll = rng.random()
        status = COMMITTED if roll < 0.7 else ABORTED if roll < 0.85 else PENDING
        events = [begin_event(tid)]
        own_writes: set[str] = set()
        this_writes: list[str] = []
        for _ in range(rng.randint(1, 3)):
            var = rng.choice(variables)
            index = len(events)
            if rng.random() < 0.5:
                events.append(read_event(tid, index, var))
                if var not in own_writes:
                    candidates = [
                        w
                        for w, wvar in writers_so_far
                        if wvar == var and w not in aborted
                    ]
                    wr.append((events[-1].id, rng.choice(candidates)))
            else:
                events.append(write_event(tid, index, var, rng.randint(0, 5)))
                own_writes.add(var)
                this_writes.append(var)
        if status == COMMITTED:
            events.append(commit_event(tid, len(events)))
        elif status == ABORTED:
            events.append(abort_event(tid, len(events)))
            aborted.add(tid)
        if status != ABORTED:
            writers_so_far.extend((tid, v) for v in own_writes)
        logs.append(TransactionLog(tid, tuple(events)))
    return History(tuple(sorted(logs, key=lambda log: log.id)), tuple(sorted(wr)))


# ---------------------------------------------------------------------------
# Random programs
# ---------------------------------------------------------------------------


def random_program(rng: random.Random, *, max_sessions: int = 3) -> str:
    """Source text of a random well-formed program within small bounds.

    Mostly two-session programs with a few reads and writes; a smaller share
    uses three sessions (at most ``max_sessions``) with lighter read
    pressure to keep the baseline's branching in check.  Each session runs
    one or two transactions of up to three instructions over one or two
    variables.  Conditionals, aborts, assignments and an occasional
    trailing assert are sprinkled in.
    """
    roll = rng.random()
    if roll < 0.60:
        n_sessions, instr_cap, read_weight = 2, 3, 0.45
    elif roll < 0.85:
        n_sessions, instr_cap, read_weight = 3, 2, 0.40
    else:
        n_sessions, instr_cap, read_weight = 3, 2, 0.25
    n_sessions = min(n_sessions, max_sessions)
    variables = _VARS[: rng.randint(1, 2)]
    next_local = 0
    lines = []
    for s in range(n_sessions):
        lines.append(f"session s{s} {{")
        defined: list[str] = []
        n_txns = rng.randint(1, 2)
        for t in range(n_txns):
            instrs: list[str] = []
            # Definitions after a possible abort exit do not survive the
            # transaction, so track the live set and every exit's snapshot.
            live = list(defined)
            exit_snapshots: list[set[str]] = []
            ended_by_abort = False
            for _ in range(rng.randint(1, instr_cap)):
                var = rng.choice(variables)
                r = rng.random()
                if r < read_weight:
                    name = f"{chr(ord('a') + next_local % 26)}{next_local // 26 or ''}"
                    next_local += 1
                    instrs.append(f"{name} = read({var});")
                    live.append(name)
                elif r < read_weight + 0.40:
                    if live and rng.random() < 0.3:
                        expr = f"{rng.choice(live)} + {rng.randint(1, 3)}"
                    else:
                        expr = str(rng.randint(1, 4))
                    instrs.append(f"write({var}, {expr});")
                elif r < read_weight + 0.50 and live:
                    if rng.random() < 0.3:
                        body = "abort;"
                        exit_snapshots.append(set(live))
                    else:
                        body = f"write({var}, {rng.randint(1, 4)});"
                    cond = f"{rng.choice(live)} == {rng.randint(0, 2)}"
                    instrs.append(f"if ({cond}) {{ {body} }}")
                elif r < read_weight + 0.53:
                    instrs.append("abort;")
                    exit_snapshots.append(set(live))
                    ended_by_abort = True
                    break
                else:
                    name = f"{chr(ord('a') + next_local % 26)}{next_local // 26 or ''}"
                    next_local += 1
                    source = rng.choice(live) if live else str(rng.randint(0, 3))
                    instrs.append(f"{name} = {source} + {rng.randint(0, 2)};")
                    live.append(name)
            if (
                t == n_txns - 1
                and not ended_by_abort
                and len(live) >= 2
                and rng.random() < 0.15
            ):
                a, b = rng.sample(live, 2)
                instrs.append(f"assert({a} <= {b} + 9);")
            lines.append("  txn { " + " ".join(instrs) + " }")
            defined = [n for n in live if all(n in s for s in exit_snapshots)]
        lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Greedy shrinking
# ---------------------------------------------------------------------------


def _program_reductions(p: Program) -> Iterator[Program]:
    if len(p.sessions) > 1:
        for i in range(len(p.sessions)):
            yield Program(p.sessions[:i] + p.sessions[i + 1 :])
    for i, sess in enumerate(p.sessions):
        if len(sess.txns) > 1:
            smaller = SessionDecl(sess.name, sess.txns[:-1])
            yield Program(p.sessions[:i] + (smaller,) + p.sessions[i + 1 :])
    # Dropping a guard runs what it guarded unconditionally.
    for i, sess in enumerate(p.sessions):
        for j, txn in enumerate(sess.txns):
            if len(txn.instrs) == 1:
                continue
            for k in range(len(txn.instrs)):
                cut = Transaction(txn.instrs[:k] + txn.instrs[k + 1 :])
                txns = sess.txns[:j] + (cut,) + sess.txns[j + 1 :]
                yield Program(
                    p.sessions[:i] + (SessionDecl(sess.name, txns),) + p.sessions[i + 1 :]
                )


def _shrink(value: T, reductions: Callable[[T], Iterable[T]], still_fails: Callable[[T], bool]) -> T:
    """Greedily minimize ``value``: take the first of its ``reductions`` on
    which ``still_fails`` returns True, until none does.  A reduction on
    which ``still_fails`` raises is skipped, so the result always fails."""
    while True:
        for cand in reductions(value):
            try:
                if still_fails(cand):
                    value = cand
                    break
            except Exception:
                continue
        else:
            return value


def _reparsed_reductions(p: Program) -> Iterator[Program]:
    """The reductions of ``p`` that print and parse again, as parsed."""
    for cand in _program_reductions(p):
        try:
            yield parse(format_program(cand))
        except ProgramError:
            continue


def shrink_failing_program(source: str, still_fails: Callable[[Program], bool]) -> str:
    """Greedily minimize a failing program, preserving failure of the predicate."""
    return format_program(_shrink(parse(source), _reparsed_reductions, still_fails))


def _without_txn(h: History, gone: TxnId) -> History:
    """``h`` without ``gone``, which no read observes: the later
    transactions of its session move down one index, with their events'
    ids and the wr edges that name them."""
    def moved(t: TxnId) -> TxnId:
        return TxnId(t.session, t.index - 1) if t.session == gone.session and t > gone else t

    logs = tuple(
        TransactionLog(moved(log.id), tuple(replace(e, id=EventId(moved(log.id), e.id.index))
                                            for e in log.events))
        for log in h.logs if log.id != gone
    )
    wr = tuple(sorted((EventId(moved(r.txn), r.index), moved(w)) for r, w in h.wr if r.txn != gone))
    return History(logs, wr)


def _history_reductions(h: History) -> Iterator[History]:
    read_by_others = {w for _, w in h.wr}
    for log in h.logs:
        if log.id != INIT_TXN and log.id not in read_by_others:
            try:
                yield _without_txn(h, log.id)
            except ValueError:
                continue
    for log in h.logs:
        if log.id == INIT_TXN or len(log.events) <= 1:
            continue
        last = log.events[-1]
        shorter = TransactionLog(log.id, log.events[:-1])
        # a write some read observes stays unless an earlier one shadows it
        if last.kind == WRITE and not shorter.writes_var(last.var) and any(
            h.event(rid).var == last.var and w == log.id for rid, w in h.wr
        ):
            continue
        logs = tuple(shorter if l.id == log.id else l for l in h.logs)
        wr = tuple(p for p in h.wr if p[0] != last.id)
        try:
            yield History(logs, wr)
        except ValueError:
            continue


def shrink_failing_history(h: History, still_fails: Callable[[History], bool]) -> History:
    """Greedily minimize a failing history, preserving failure of the predicate."""
    return _shrink(h, _history_reductions, still_fails)
