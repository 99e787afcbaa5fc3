"""Program text: parsing, static checks, local stepping, replay, asserts."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixtures import (
    COUNTER_SOURCE,
    OWN_WRITE_SOURCE,
    example,
)
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import dfs, explore_ce
from txndpor.generate import random_program
from txndpor.model import (
    COMMIT,
    INIT_TXN,
    READ,
    WRITE,
    Event,
    IsolationLevel,
    TxnId,
    begin_event,
    canonical_encode,
    commit_event,
    read_event,
    write_event,
)
from txndpor.program import (
    AssignInstr,
    BinaryOp,
    ExplorationState,
    IntLiteral,
    IfInstr,
    ParseError,
    ProgramError,
    ReadInstr,
    WriteInstr,
    apply_event,
    assertions,
    eval_expr,
    format_expr,
    format_program,
    parse,
    replay,
    step_local,
)

# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_program_structure():
    prog = parse(EXAMPLE_PROGRAMS["abort_flip"])
    assert [s.name for s in prog.sessions] == ["reader", "writer"]
    assert [len(s.txns) for s in prog.sessions] == [2, 2]
    first = prog.sessions[0].txns[0].instrs
    assert isinstance(first[0], ReadInstr) and first[0].target == "a"
    assert isinstance(first[1], IfInstr)
    assert isinstance(first[2], WriteInstr) and first[2].var == "y"
    assert prog.variables == ("x", "y")
    assert prog.asserts == ()


def test_parse_collects_asserts_with_sessions():
    prog = parse(COUNTER_SOURCE)
    assert [s for s, _ in prog.asserts] == [0]
    assert format_expr(prog.asserts[0][1]) == "1 <= w"


@pytest.mark.parametrize(
    "source, line, col, fragment",
    [
        ("", 1, 1, "expected 'session'"),
        ("session s { txn { write(x 1); } }", 1, 27, "expected ','"),
        (
            "session s { txn { a = read(x); if (a >= 1) { write(y, 1); } } }",
            1,
            38,
            "unexpected character '>'",
        ),
    ],
)
def test_parse_errors_carry_position(source, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert exc.value.line == line
    assert exc.value.col == col
    assert fragment in str(exc.value)


def test_use_before_assignment_is_rejected():
    with pytest.raises(ParseError, match="'a' may be used before assignment"):
        parse("session s { txn { write(x, a); } }")


def test_conditional_assignment_does_not_count_as_definite():
    src = "session s { txn { b = read(x); if (b == 0) { a = 1; } write(y, a); } }"
    with pytest.raises(ParseError, match="'a' may be used before assignment"):
        parse(src)


def test_duplicate_session_name_is_rejected():
    two = "session s { txn { write(x, 1); } }\n" * 2
    with pytest.raises(ParseError, match="duplicate session name 's'"):
        parse(two)


def test_assert_must_close_the_final_transaction():
    with pytest.raises(ParseError, match="assert must be the last instruction"):
        parse("session s { txn { assert(1 == 1); write(x, 1); } }")
    with pytest.raises(ParseError, match="assert inside a conditional"):
        parse("session s { txn { a = read(x); if (a == 1) { assert(a == 1); } } }")


@pytest.mark.parametrize(
    "source, line, col, fragment",
    [
        (
            "session s { txn { write(x, 1); } }\n"
            "session t { txn { write(x, 2); } }\n"
            "session s { txn { write(y, 1); } }\n",
            3,
            9,
            "duplicate session name 's'",
        ),
        (
            "session s {\n"
            "  txn { a = read(x); }\n"
            "  txn { assert(a == 0);\n"
            "        write(x, 1); }\n"
            "}\n",
            3,
            9,
            "assert must be the last instruction",
        ),
        (
            "session s {\n"
            "  txn { a = read(x);\n"
            "    if (a == 1) { if (a == 1) { assert(a == 1); } } }\n"
            "}\n",
            3,
            33,
            "assert inside a conditional",
        ),
        (
            "session s {\n"
            "  txn { b = read(x); }\n"
            "  txn { if (b == 0) { write(y, a); } }\n"
            "}\n",
            3,
            23,
            "'a' may be used before assignment",
        ),
    ],
    ids=["duplicate-session", "assert-not-last", "assert-in-if", "use-before-assignment"],
)
def test_static_check_errors_point_at_the_offending_construct(source, line, col, fragment):
    with pytest.raises(ParseError) as exc:
        parse(source)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert fragment in str(exc.value)


def test_source_positions_are_not_part_of_a_program():
    """The same program parsed from differently laid out text is equal."""
    one = parse("session s { txn { a = read(x); write(y, a); } }")
    two = parse("session s {\n  txn {\n    a = read(x);\n    write(y, a);\n  }\n}\n")
    assert one == two and hash(one) == hash(two)


def test_assignment_surviving_an_abort_satisfies_later_uses():
    """A local assigned before an abort stays defined for later transactions."""
    prog = parse("session s { txn { a = read(x); abort; } txn { write(y, a + 1); } }")
    states = []
    explore_ce(prog, IsolationLevel.RC, emit=states.append)
    assert len(states) == 1
    (final,) = states
    assert dict(final.sessions[0].locals) == {"a": 0}
    writes = [
        (e.var, e.value)
        for log in final.history.history.logs
        for e in log.events
        if e.kind == WRITE and log.id != INIT_TXN
    ]
    assert writes == [("y", 1)]


def test_too_deep_an_expression_fails_to_parse_or_evaluate_with_a_message():
    """parse rejects a sum nested past the recursion limit, and evaluation,
    which runs deeper in the stack than parse's check, reports one too."""
    with pytest.raises(ParseError, match="expression nested too deeply"):
        parse("session s { txn { a = " + "+".join(["1"] * 1200) + "; } }")
    expr = IntLiteral(1)
    for _ in range(1200):
        expr = BinaryOp("+", expr, IntLiteral(1))
    with pytest.raises(ProgramError, match="expression nested too deeply"):
        eval_expr(expr, {})


@pytest.mark.parametrize(
    "expr", ["+".join(["1"] * 1200), "(" * 400 + "1" + ")" * 400], ids=["sum", "parens"]
)
def test_too_deep_an_expression_is_reported_on_its_line(expr):
    """The sum overflows the definite-assignment check, the parentheses the
    parser; both report the line of the expression, not 1:1."""
    text = f"session s {{\n  txn {{\n    a = {expr};\n  }}\n}}"
    with pytest.raises(ParseError, match="expression nested too deeply") as info:
        parse(text)
    assert info.value.line == 3


# ---------------------------------------------------------------------------
# Formatting round trips
# ---------------------------------------------------------------------------


def test_format_expr_parenthesizes_only_where_needed():
    prog = parse(
        "session s { txn { a = read(x); b = (a + 1) * 2; c = a + 1 * 2; "
        "write(y, b + c); } }"
    )
    instrs = prog.sessions[0].txns[0].instrs
    assert isinstance(instrs[1], AssignInstr)
    assert format_expr(instrs[1].expr) == "(a + 1) * 2"
    assert format_expr(instrs[2].expr) == "a + 1 * 2"


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_examples_round_trip_through_format(name):
    prog = example(name)
    assert parse(format_program(prog)) == prog


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.integers(0, 10_000))
def test_random_programs_round_trip_through_format(seed):
    source = random_program(random.Random(seed))
    prog = parse(source)
    assert parse(format_program(prog)) == prog


# ---------------------------------------------------------------------------
# Local stepping
# ---------------------------------------------------------------------------


def _guarded_write_reading(writer: TxnId) -> ExplorationState:
    """Run guarded_write's right session, then point the guard read at
    ``writer``."""
    prog = example("guarded_write")
    right, left = TxnId(1, 0), TxnId(0, 0)
    st = ExplorationState.initial(prog)
    st = apply_event(st, begin_event(right))
    st = apply_event(st, read_event(right, 1, "x"), writer=INIT_TXN)
    st = apply_event(st, write_event(right, 2, "x", 3))
    st = apply_event(st, commit_event(right, 3))
    st = apply_event(st, begin_event(left))
    return apply_event(st, read_event(left, 1, "x"), writer=writer)


def test_satisfied_guard_schedules_the_conditional_write():
    st = _guarded_write_reading(TxnId(1, 0))
    assert dict(st.sessions[0].locals) == {"a": 3}
    action = step_local(st, 0)
    assert action.event.kind == WRITE
    assert (action.event.var, action.event.value) == ("y", 1)


def test_failed_guard_skips_straight_to_commit():
    st = _guarded_write_reading(INIT_TXN)
    assert dict(st.sessions[0].locals) == {"a": 0}
    action = step_local(st, 0)
    assert action.event.kind == COMMIT
    assert action.event.id.index == 2


def test_read_of_own_earlier_write_needs_no_writer():
    t = TxnId(0, 0)
    for source, writes, value in (
        ("session s { txn { write(x, 5); a = read(x); } }", [("x", 5)], 5),
        # The read takes the last write of x, not the first.
        ("session s { txn { write(x, 5); write(y, 1); write(x, 7); a = read(x); } }",
         [("x", 5), ("y", 1), ("x", 7)], 7),
    ):
        st = apply_event(ExplorationState.initial(parse(source)), begin_event(t))
        for index, (var, written) in enumerate(writes, start=1):
            st = apply_event(st, write_event(t, index, var, written))
        action = step_local(st, 0)
        assert action.event.kind == READ
        assert action.internal_value == value
        assert not action.is_external_read
        grown = apply_event(st, action.event)
        assert dict(grown.sessions[0].locals) == {"a": value}


def test_step_local_requires_an_open_transaction():
    st = ExplorationState.initial(example("split_reads"))
    with pytest.raises(ProgramError, match="no open transaction"):
        step_local(st, 0)


def test_apply_event_rejects_a_wrong_write_value():
    prog = parse("session s { txn { write(x, 5); } }")
    t = TxnId(0, 0)
    st = apply_event(ExplorationState.initial(prog), begin_event(t))
    with pytest.raises(ProgramError, match="does not match the program's"):
        apply_event(st, write_event(t, 1, "x", 6))


def test_apply_event_rejects_an_external_read_without_a_writer():
    st = _guarded_write_reading(TxnId(1, 0))
    prog = st.program
    left1 = TxnId(0, 1)
    done = apply_event(st, write_event(TxnId(0, 0), 2, "y", 1))
    done = apply_event(done, commit_event(TxnId(0, 0), 3))
    done = apply_event(done, begin_event(left1))
    with pytest.raises(ProgramError, match="needs a writer"):
        apply_event(done, read_event(left1, 1, "x"))
    assert prog is done.program


# Session s's first transaction writes x, reads it back (internal) and reads
# y (external); w's transaction writes only x.
REJECTIONS_SOURCE = """\
session s { txn { write(x, 5); a = read(x); b = read(y); } txn { c = read(x); } }
session w { txn { write(x, 1); } }
"""
S0, S1, W = TxnId(0, 0), TxnId(0, 1), TxnId(1, 0)
S0_WRITE = write_event(S0, 1, "x", 5)
# w runs to its commit, then s runs up to its external read of y.
REJECTIONS_PREFIX = [
    (begin_event(W), None),
    (write_event(W, 1, "x", 1), None),
    (commit_event(W, 2), None),
    (begin_event(S0), None),
    (S0_WRITE, None),
    (read_event(S0, 2, "x"), None),
]


@pytest.mark.parametrize(
    "steps, event, writer, expected",
    [
        (0, begin_event(S1), None, begin_event(S0)),
        (0, begin_event(TxnId(2, 0)), None, "session 2 is not in the program"),
        (0, begin_event(TxnId(-2, 0)), None, "session -2 is not in the program"),
        (0, commit_event(S0, 1), None, "no open transaction"),
        (4, begin_event(S1), None, S0_WRITE),
        (4, S0_WRITE, INIT_TXN, "write events take no writer"),
        (4, write_event(S0, 1, "x", 6), None, S0_WRITE),
        (4, write_event(S0, 1, "y", 5), None, S0_WRITE),
        (4, commit_event(S0, 1), None, S0_WRITE),
        (5, read_event(S0, 2, "x"), INIT_TXN, "internal reads take no writer"),
        (6, read_event(S0, 3, "y"), None, "needs a writer"),
        (6, read_event(S0, 3, "x"), INIT_TXN, read_event(S0, 3, "y")),
        (6, read_event(S0, 3, "y"), W, "has no write on 'y'"),
        (6, read_event(S0, 3, "y"), S1, "has no write on 'y'"),
    ],
    ids=[
        "begin-out-of-turn", "session-too-large", "session-negative",
        "no-open-transaction", "begin-inside-a-transaction", "writer-on-a-write",
        "wrong-write-value", "wrong-write-variable", "wrong-kind",
        "writer-on-an-internal-read", "external-read-without-writer",
        "wrong-read-variable", "writer-lacking-the-write", "writer-not-in-history",
    ],
)
def test_apply_event_rejects_what_the_program_does_not_do(steps, event, writer, expected):
    """``expected`` is the message, or for a mismatch the program's own next
    event, which the message names in full next to the rejected one."""
    st = ExplorationState.initial(parse(REJECTIONS_SOURCE))
    for ev, w in REJECTIONS_PREFIX[:steps]:
        st = apply_event(st, ev, writer=w)
    if isinstance(expected, Event):
        expected = re.escape(f"{event} does not match the program's next event {expected}")
    with pytest.raises(ProgramError, match=expected):
        apply_event(st, event, writer=writer)


@pytest.mark.parametrize("session", [-2, 2])
def test_sessions_outside_the_program_are_rejected(session):
    """A negative session must not alias one counted from the end, and one
    past the last must not raise IndexError: step_local, apply_event and
    replay all reject both."""
    prog = parse(REJECTIONS_SOURCE)
    st = ExplorationState.initial(prog)
    with pytest.raises(ProgramError, match=f"session {session} is not in the program"):
        step_local(st, session)
    foreign = st.history.append(begin_event(TxnId(session, 0)))
    with pytest.raises(ProgramError, match=f"session {session} is not in the program"):
        replay(prog, foreign.history, foreign.order)


def test_external_reads_observe_only_committed_writers():
    """No dirty read: a read may not observe a transaction that is still
    pending, though that transaction already wrote the variable."""
    writer, reader = TxnId(0, 0), TxnId(1, 0)
    st = ExplorationState.initial(parse(
        "session a { txn { write(x, 7); write(y, 1); } } session b { txn { r = read(x); } }"
    ))
    for ev in (begin_event(writer), write_event(writer, 1, "x", 7), begin_event(reader)):
        st = apply_event(st, ev)
    with pytest.raises(ProgramError, match=re.escape(f"{writer} has not committed")):
        apply_event(st, read_event(reader, 1, "x"), writer=writer)


def test_trailing_assignment_feeds_the_next_transaction():
    """Silent instructions after the last database action still run: the
    assignment lands before the transaction commits and persists."""
    prog = parse("session s { txn { write(x, 2); a = 1 + 1; } txn { write(x, a + 2); } }")
    states = []
    explore_ce(prog, IsolationLevel.RC, emit=states.append)
    assert len(states) == 1
    (final,) = states
    values = [
        e.value
        for log in final.history.history.logs
        if log.id != INIT_TXN
        for e in log.events
        if e.kind == WRITE
    ]
    assert values == [2, 4]


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(EXAMPLE_PROGRAMS))
def test_replay_rebuilds_every_emitted_state(name):
    prog = example(name)
    states = []
    explore_ce(prog, IsolationLevel.CC, emit=states.append)
    assert states
    for terminal in states:
        assert replay(prog, terminal.history.history, terminal.history.order) == terminal


def test_replay_rejects_a_history_from_a_different_program():
    states = []
    explore_ce(example("pair_reader"), IsolationLevel.RC, emit=states.append)
    with pytest.raises(ProgramError):
        replay(example("split_reads"), states[0].history.history, states[0].history.order)


# ---------------------------------------------------------------------------
# End-of-run assertion checking
# ---------------------------------------------------------------------------


def _ce_assertion_counts(source: str, level: IsolationLevel):
    states = []
    explore_ce(parse(source), level, emit=states.append)
    violated = [tuple(assertions(s)) for s in states]
    return len(states), [v for v in violated if v]


def _dfs_assertion_counts(source: str, level: IsolationLevel):
    distinct: dict[bytes, tuple[str, ...]] = {}
    dfs(
        parse(source),
        level,
        emit=lambda s: distinct.setdefault(
            canonical_encode(s.history.history), tuple(assertions(s))
        ),
    )
    return len(distinct), [v for v in distinct.values() if v]


def test_fractured_read_assert_fails_under_read_committed_only():
    total, bad = _ce_assertion_counts(
        EXAMPLE_PROGRAMS["fractured_read"], IsolationLevel.RC
    )
    assert total == 3
    assert bad == [("session reader: assert(a <= b)",)]
    total, bad = _ce_assertion_counts(
        EXAMPLE_PROGRAMS["fractured_read"], IsolationLevel.RA
    )
    assert (total, bad) == (2, [])


def test_lost_update_shows_up_under_read_committed_not_serializability():
    total, bad = _ce_assertion_counts(COUNTER_SOURCE, IsolationLevel.RC)
    assert total == 9
    assert len(bad) == 3
    assert set(bad) == {("session a: assert(1 <= w)",)}
    total, bad = _dfs_assertion_counts(COUNTER_SOURCE, IsolationLevel.SER)
    assert (total, bad) == (3, [])


def test_reading_back_an_own_committed_write_always_holds():
    total, bad = _dfs_assertion_counts(OWN_WRITE_SOURCE, IsolationLevel.SER)
    assert (total, bad) == (1, [])


def test_asserts_of_incomplete_or_aborted_sessions_are_skipped():
    prog = parse(COUNTER_SOURCE)
    st = ExplorationState.initial(prog)
    assert assertions(st) == []
