"""Bounded transactional programs: parsing, local steps, event application.

Programs are written in a small imperative language::

    session s1 {
      txn { a = read(x); if (a == 0) { abort; } write(y, 1); }
      txn { b = read(x); }
    }
    session s2 {
      txn { write(y, 3); }
      txn { write(x, 4); }
    }

Each session is a sequence of transactions over shared integer variables
(initially 0) and session-local variables.  Reads, writes, commits and aborts
are the observable database events; assignments, conditionals and asserts run
silently between them.  ``if`` bodies hold a single (possibly nested)
instruction, and an ``assert`` may only appear as the last instruction of a
session's final transaction.

:class:`ExplorationState` pairs an ordered history with the per-session local
state reached by running the program along it; ``in_txn`` marks a session's
open transaction, whose log's ``write_set`` answers its internal reads.
:func:`apply_event` is the
checked boundary: it accepts an event only if it equals the program's own
next event for its session, then applies it with :func:`advance`.  The
explorer's walks call :func:`advance` directly with the action they stepped,
so each event is stepped once.  :func:`replay` rebuilds a state from scratch
(or from a swap's cut state) along a sequence of a history's events, checking
each through :func:`apply_event`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .model import (
    BEGIN,
    COMMITTED,
    INIT_TXN,
    READ,
    WRITE,
    Event,
    EventId,
    History,
    OrderedHistory,
    TxnId,
    abort_event,
    begin_event,
    commit_event,
    read_event,
    write_event,
)


class ProgramError(ValueError):
    """Any error in a program's text or its evaluation."""


class ParseError(ProgramError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_I64_MIN = -(2**63)
_I64_MAX = 2**63 - 1


# ---------------------------------------------------------------------------
# Abstract syntax
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLiteral:
    value: int


@dataclass(frozen=True)
class LocalRef:
    name: str


@dataclass(frozen=True)
class BinaryOp:
    op: str  # + - * == != < <=
    left: "Expr"
    right: "Expr"


Expr = IntLiteral | LocalRef | BinaryOp


@dataclass(frozen=True)
class _Located:
    """``at``: (line, col) of the node's first token in the source, for
    messages; not part of the node's value."""

    at: tuple[int, int] = field(default=(1, 1), compare=False, repr=False, kw_only=True)


@dataclass(frozen=True)
class ReadInstr(_Located):
    target: str
    var: str


@dataclass(frozen=True)
class WriteInstr(_Located):
    var: str
    expr: Expr


@dataclass(frozen=True)
class AssignInstr(_Located):
    target: str
    expr: Expr


@dataclass(frozen=True)
class IfInstr(_Located):
    cond: Expr
    body: "Instr"


@dataclass(frozen=True)
class AbortInstr(_Located):
    pass


@dataclass(frozen=True)
class AssertInstr(_Located):
    cond: Expr


Instr = ReadInstr | WriteInstr | AssignInstr | IfInstr | AbortInstr | AssertInstr


@dataclass(frozen=True)
class Transaction:
    instrs: tuple[Instr, ...]


@dataclass(frozen=True)
class SessionDecl(_Located):
    name: str
    txns: tuple[Transaction, ...]


@dataclass(frozen=True)
class Program:
    sessions: tuple[SessionDecl, ...]

    @cached_property
    def variables(self) -> tuple[str, ...]:
        """All shared variables mentioned anywhere, sorted."""
        out: set[str] = set()

        def scan(instr: Instr) -> None:
            if isinstance(instr, ReadInstr):
                out.add(instr.var)
            elif isinstance(instr, WriteInstr):
                out.add(instr.var)
            elif isinstance(instr, IfInstr):
                scan(instr.body)

        for sess in self.sessions:
            for txn in sess.txns:
                for instr in txn.instrs:
                    scan(instr)
        return tuple(sorted(out))

    @cached_property
    def asserts(self) -> tuple[tuple[int, Expr], ...]:
        """(session index, condition) for every assert instruction."""
        out = []
        for s, sess in enumerate(self.sessions):
            for txn in sess.txns:
                for instr in txn.instrs:
                    if isinstance(instr, AssertInstr):
                        out.append((s, instr.cond))
        return tuple(out)

    def txn_body(self, tid: TxnId) -> Transaction:
        return self.sessions[tid.session].txns[tid.index]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_KEYWORDS = {"session", "txn", "read", "write", "if", "abort", "assert"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>\d+)
  | (?P<op>==|!=|<=|[{}();,=<+\-*])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # ident | int | op | eof
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))  # type: ignore[arg-type]
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise self.error(f"expected {op!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def expect_keyword(self, word: str) -> None:
        tok = self.peek()
        if tok.kind != "ident" or tok.text != word:
            raise self.error(f"expected {word!r}, found {tok.text or 'end of input'!r}")
        self.next()

    def expect_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected a name, found {tok.text or 'end of input'!r}")
        if tok.text in _KEYWORDS:
            raise self.error(f"{tok.text!r} is a keyword")
        self.next()
        return tok.text

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "ident" and tok.text == word

    # -- grammar -------------------------------------------------------------

    def parse_program(self) -> Program:
        sessions = []
        while not self.at_keyword("session"):
            if self.peek().kind == "eof" and sessions:
                break
            raise self.error("expected 'session'")
        while self.at_keyword("session"):
            sessions.append(self.parse_session())
        if self.peek().kind != "eof":
            raise self.error("expected 'session' or end of input")
        names: set[str] = set()
        for sess in sessions:
            if sess.name in names:
                raise ParseError(f"duplicate session name {sess.name!r}", *sess.at)
            names.add(sess.name)
        return Program(tuple(sessions))

    def parse_session(self) -> SessionDecl:
        self.expect_keyword("session")
        at = (self.peek().line, self.peek().col)
        name = self.expect_name()
        self.expect_op("{")
        txns = []
        while self.at_keyword("txn"):
            txns.append(self.parse_txn())
        if not txns:
            raise self.error("a session needs at least one transaction")
        self.expect_op("}")
        return SessionDecl(name, tuple(txns), at=at)

    def parse_txn(self) -> Transaction:
        self.expect_keyword("txn")
        self.expect_op("{")
        instrs = []
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            instrs.append(self.parse_instr())
        if not instrs:
            raise self.error("a transaction needs at least one instruction")
        self.next()  # closing brace
        return Transaction(tuple(instrs))

    def parse_instr(self) -> Instr:
        tok = self.peek()
        at = (tok.line, tok.col)
        if tok.kind == "ident" and tok.text == "write":
            self.next()
            self.expect_op("(")
            var = self.expect_name()
            self.expect_op(",")
            expr = self.parse_expr()
            self.expect_op(")")
            self.expect_op(";")
            return WriteInstr(var, expr, at=at)
        if tok.kind == "ident" and tok.text == "if":
            self.next()
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            self.expect_op("{")
            body = self.parse_instr()
            self.expect_op("}")
            return IfInstr(cond, body, at=at)
        if tok.kind == "ident" and tok.text == "abort":
            self.next()
            self.expect_op(";")
            return AbortInstr(at=at)
        if tok.kind == "ident" and tok.text == "assert":
            self.next()
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            self.expect_op(";")
            return AssertInstr(cond, at=at)
        target = self.expect_name()
        self.expect_op("=")
        if self.at_keyword("read"):
            self.next()
            self.expect_op("(")
            var = self.expect_name()
            self.expect_op(")")
            self.expect_op(";")
            return ReadInstr(target, var, at=at)
        expr = self.parse_expr()
        self.expect_op(";")
        return AssignInstr(target, expr, at=at)

    def parse_expr(self) -> Expr:
        left = self.parse_sum()
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("==", "!=", "<", "<="):
            self.next()
            right = self.parse_sum()
            return BinaryOp(tok.text, left, right)
        return left

    def parse_sum(self) -> Expr:
        expr = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in ("+", "-"):
            op = self.next().text
            expr = BinaryOp(op, expr, self.parse_term())
        return expr

    def parse_term(self) -> Expr:
        expr = self.parse_factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.next()
            expr = BinaryOp("*", expr, self.parse_factor())
        return expr

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value = int(tok.text)
            if value > _I64_MAX:
                raise ParseError("integer literal out of 64-bit range", tok.line, tok.col)
            return IntLiteral(value)
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return BinaryOp("-", IntLiteral(0), self.parse_factor())
        if tok.kind == "op" and tok.text == "(":
            self.next()
            expr = self.parse_expr()
            self.expect_op(")")
            return expr
        name = self.expect_name()
        return LocalRef(name)


def parse(text: str) -> Program:
    """Parse and statically check a program.

    Raises:
        ParseError: on syntax errors, duplicate session names, empty
            transaction bodies, misplaced asserts, a local that may be read
            before it is assigned, or expressions nested too deeply.
    """
    parser = _Parser(text)
    try:
        program = parser.parse_program()
    except RecursionError:
        raise parser.error("expression nested too deeply") from None
    _check_assert_positions(program)
    _check_definite_assignment(program)
    return program


def _check_assert_positions(program: Program) -> None:
    for sess in program.sessions:
        for t, txn in enumerate(sess.txns):
            for pos, instr in enumerate(txn.instrs):
                nested = instr
                while isinstance(nested, IfInstr):
                    nested = nested.body
                if nested is not instr and isinstance(nested, AssertInstr):
                    raise ParseError(
                        f"assert inside a conditional in session {sess.name!r}",
                        *nested.at,
                    )
                if isinstance(instr, AssertInstr):
                    last_txn = t == len(sess.txns) - 1
                    last_pos = pos == len(txn.instrs) - 1
                    if not (last_txn and last_pos):
                        raise ParseError(
                            f"assert must be the last instruction of the final "
                            f"transaction of session {sess.name!r}",
                            *instr.at,
                        )


def _expr_locals(expr: Expr) -> set[str]:
    if isinstance(expr, LocalRef):
        return {expr.name}
    if isinstance(expr, BinaryOp):
        return _expr_locals(expr.left) | _expr_locals(expr.right)
    return set()


def _check_definite_assignment(program: Program) -> None:
    for sess in program.sessions:
        defined: set[str] = set()
        for txn in sess.txns:
            exits: list[set[str]] = []

            def require(instr: Instr, expr: Expr, cur: set[str]) -> None:
                try:
                    missing = _expr_locals(expr) - cur
                except RecursionError:
                    raise ParseError("expression nested too deeply", *instr.at) from None
                if missing:
                    raise ParseError(
                        f"local {sorted(missing)[0]!r} may be used before "
                        f"assignment in session {sess.name!r}",
                        *instr.at,
                    )

            def walk(instr: Instr, cur: set[str], dead: bool) -> bool:
                """Returns whether execution is dead after this instruction."""
                if isinstance(instr, ReadInstr):
                    cur.add(instr.target)
                elif isinstance(instr, AssignInstr):
                    require(instr, instr.expr, cur)
                    cur.add(instr.target)
                elif isinstance(instr, WriteInstr):
                    require(instr, instr.expr, cur)
                elif isinstance(instr, AssertInstr):
                    require(instr, instr.cond, cur)
                elif isinstance(instr, AbortInstr):
                    if not dead:
                        exits.append(set(cur))
                    return True
                else:  # IfInstr: the body may not run, so its gains don't survive
                    require(instr, instr.cond, cur)
                    walk(instr.body, set(cur), dead)
                return dead

            dead = False
            cur = set(defined)
            for instr in txn.instrs:
                dead = walk(instr, cur, dead)
            if not dead:
                exits.append(cur)
            defined = set.intersection(*exits)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def eval_expr(expr: Expr, env: dict[str, int]) -> int:
    try:
        return _eval(expr, env)
    except RecursionError:  # parse checks at a shallower stack than a run's
        raise ProgramError("expression nested too deeply") from None


def _eval(expr: Expr, env: dict[str, int]) -> int:
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, LocalRef):
        try:
            return env[expr.name]
        except KeyError:
            raise ProgramError(f"local {expr.name!r} is unassigned") from None
    left = _eval(expr.left, env)
    right = _eval(expr.right, env)
    if expr.op == "+":
        value = left + right
    elif expr.op == "-":
        value = left - right
    elif expr.op == "*":
        value = left * right
    elif expr.op == "==":
        return 1 if left == right else 0
    elif expr.op == "!=":
        return 1 if left != right else 0
    elif expr.op == "<":
        return 1 if left < right else 0
    else:  # <=
        return 1 if left <= right else 0
    if value < _I64_MIN or value > _I64_MAX:
        raise ProgramError("64-bit signed overflow during evaluation")
    return value


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalState:
    """One session's runtime position: locals, current transaction, residue.

    ``queue`` holds the remaining instructions of the open transaction with
    silent instructions (assignments, resolved conditionals, asserts) already
    consumed, so its head — when present — is always a database action.
    ``begun`` holds the locals each begun transaction started from, so a
    swap can set the session back to any of its begins without a replay.
    """

    locals: tuple[tuple[str, int], ...] = ()
    txn_index: int = 0
    in_txn: bool = False
    queue: tuple[Instr, ...] = ()
    begun: tuple[tuple[tuple[str, int], ...], ...] = ()

    @property
    def env(self) -> dict[str, int]:
        return dict(self.locals)


def _freeze_env(env: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(env.items()))


def _normalize(env: dict[str, int], queue: tuple[Instr, ...]) -> tuple[Instr, ...]:
    """Consume silent instructions; mutates ``env`` in place."""
    items = list(queue)
    while items:
        head = items[0]
        if isinstance(head, AssignInstr):
            env[head.target] = eval_expr(head.expr, env)
            items.pop(0)
        elif isinstance(head, IfInstr):
            items.pop(0)
            if eval_expr(head.cond, env) != 0:
                items.insert(0, head.body)
        elif isinstance(head, AssertInstr):
            items.pop(0)  # evaluated at the end of the run, not here
        else:
            break
    return tuple(items)


@dataclass(frozen=True)
class NextAction:
    """The next database event a pending transaction will produce.

    ``event`` is fully formed (including the write value, evaluated from the
    session's locals).  For reads, ``target`` names the receiving local;
    ``internal_value`` is set when the read is satisfied by the transaction's
    own earlier write and therefore takes no writer.
    """

    event: Event
    target: str | None = None
    internal_value: int | None = None

    @property
    def is_external_read(self) -> bool:
        return self.event.kind == READ and self.internal_value is None


@dataclass(frozen=True)
class ExplorationState:
    """An ordered history together with the local state that produced it."""

    program: Program
    history: OrderedHistory
    sessions: tuple[LocalState, ...]

    @classmethod
    def initial(cls, program: Program) -> "ExplorationState":
        return cls(
            program,
            OrderedHistory.initial(program.variables),
            tuple(LocalState() for _ in program.sessions),
        )

    def next_unstarted_txn(self, session: int) -> TxnId | None:
        ls = self.sessions[session]
        if ls.in_txn or ls.txn_index >= len(self.program.sessions[session].txns):
            return None
        return TxnId(session, ls.txn_index)


def step_local(st: ExplorationState, session: int) -> NextAction:
    """Resolve the next database event of a session's open transaction.

    The session must have a transaction open.  Silent instructions were
    already consumed when the transaction reached this point, so the result
    is determined by the queue head (or commit, when the queue is empty).
    """
    if not 0 <= session < len(st.sessions):
        raise ProgramError(f"session {session} is not in the program")
    ls = st.sessions[session]
    if not ls.in_txn:
        raise ProgramError(f"session {session} has no open transaction")
    tid = TxnId(session, ls.txn_index)
    log = st.history.history.txn(tid)
    index = len(log.events)
    if not ls.queue:
        return NextAction(commit_event(tid, index))
    head = ls.queue[0]
    if isinstance(head, AbortInstr):
        return NextAction(abort_event(tid, index))
    if isinstance(head, ReadInstr):
        own = log.write_set.get(head.var)  # the open log's last write of it
        return NextAction(
            read_event(tid, index, head.var), target=head.target,
            internal_value=None if own is None else own.value,
        )
    assert isinstance(head, WriteInstr)
    value = eval_expr(head.expr, ls.env)
    return NextAction(write_event(tid, index, head.var, value))


def apply_event(
    st: ExplorationState, event: Event, writer: TxnId | None = None
) -> ExplorationState:
    """Apply one database event, checked against the program semantics.

    ``event`` must equal the program's own next event of its session: the
    begin of the session's next transaction, or what :func:`step_local`
    resolves in its open one, a write's value included.  An external read
    needs a committed ``writer`` that writes its variable, and observes that
    writer's final write on it; no other event takes a writer.  Raises
    :class:`ProgramError` for any other input, and applies the event with
    :func:`advance` otherwise.
    """
    session = event.id.txn.session
    if not 0 <= session < len(st.sessions):
        raise ProgramError(f"session {session} is not in the program")
    if event.kind == BEGIN and not st.sessions[session].in_txn:
        tid = st.next_unstarted_txn(session)
        action = NextAction(begin_event(tid)) if tid is not None else None
    else:
        action = step_local(st, session)
    if action is None or action.event != event:
        raise ProgramError(
            f"{event} does not match the program's next event "
            f"{action.event if action else None}"
        )
    if action.is_external_read:
        if writer is None:
            raise ProgramError(f"external read {event.id} needs a writer")
        wlog = st.history.history.by_id.get(writer)
        if wlog is None or not wlog.writes_var(event.var):  # type: ignore[arg-type]
            raise ProgramError(f"{writer} has no write on {event.var!r}")
        if wlog.status != COMMITTED:
            raise ProgramError(f"{writer} has not committed; {event.id} cannot observe it")
    elif writer is not None:
        what = "internal reads" if event.kind == READ else f"{event.kind} events"
        raise ProgramError(f"{what} take no writer")
    return advance(st, action, writer)


def advance(
    st: ExplorationState,
    action: NextAction,
    writer: TxnId | None = None,
    history: OrderedHistory | None = None,
) -> ExplorationState:
    """Apply ``action``, the program's next event as :func:`step_local` or a
    begin of :meth:`ExplorationState.next_unstarted_txn` gives it, unchecked.

    ``writer`` is an external read's writer, whose final write on the
    variable the read observes.  ``history``, when given, is
    ``st.history.append(action.event, writer=writer)`` already built and
    checked by the caller, and is entered as is: no program code after the
    event runs before that check.
    """
    event = action.event
    session = event.id.txn.session
    ls = st.sessions[session]
    hist = history if history is not None else st.history.append(event, writer=writer)
    if event.kind == BEGIN:
        env = ls.env
        queue = _normalize(env, st.program.txn_body(event.id.txn).instrs)
        new_ls = LocalState(_freeze_env(env), ls.txn_index, True, queue, ls.begun + (ls.locals,))
    elif event.kind in (READ, WRITE):
        env = ls.env
        if event.kind == READ:
            assert action.target is not None
            env[action.target] = (
                action.internal_value if writer is None
                else st.history.history.txn(writer).write_set[event.var].value  # type: ignore[index]
            )
        queue = _normalize(env, ls.queue[1:])
        new_ls = LocalState(_freeze_env(env), ls.txn_index, ls.in_txn, queue, ls.begun)
    else:  # COMMIT or ABORT
        new_ls = LocalState(ls.locals, ls.txn_index + 1, False, (), ls.begun)
    sessions = st.sessions[:session] + (new_ls,) + st.sessions[session + 1 :]
    return ExplorationState(st.program, hist, sessions)


def replay(program: Program, history: History, order: Iterable[EventId],
           start: ExplorationState | None = None) -> ExplorationState:
    """Re-execute ``program`` along ``order``, rebuilding local state.

    Each event of ``order`` is taken, with its writer, from ``history`` and
    appended by :func:`apply_event`, which checks it against the program,
    starting from ``start`` (a swap's cut state) or the initial state.
    Init events are skipped; ``history``'s init transaction must be the
    starting state's.
    """
    st = start if start is not None else ExplorationState.initial(program)
    if history.txn(INIT_TXN).events != st.history.history.txn(INIT_TXN).events:
        raise ProgramError("initial transaction does not match the program")
    wr_map = history.wr_map
    for eid in order:
        if eid.txn != INIT_TXN:
            st = apply_event(st, history.event(eid), writer=wr_map.get(eid))
    return st


def format_expr(expr: Expr) -> str:
    if isinstance(expr, IntLiteral):
        return str(expr.value)
    if isinstance(expr, LocalRef):
        return expr.name
    # One frame per nesting level, as in evaluation: an assert that evaluated
    # can be formatted.
    tight = expr.op == "*"
    sides = []
    for child in (expr.left, expr.right):
        text = format_expr(child)
        if isinstance(child, BinaryOp) and (tight or child.op in ("==", "!=", "<", "<=")):
            text = f"({text})"
        sides.append(text)
    return f"{sides[0]} {expr.op} {sides[1]}"


def format_instr(instr: Instr) -> str:
    if isinstance(instr, ReadInstr):
        return f"{instr.target} = read({instr.var});"
    if isinstance(instr, WriteInstr):
        return f"write({instr.var}, {format_expr(instr.expr)});"
    if isinstance(instr, AssignInstr):
        return f"{instr.target} = {format_expr(instr.expr)};"
    if isinstance(instr, IfInstr):
        return f"if ({format_expr(instr.cond)}) {{ {format_instr(instr.body)} }}"
    if isinstance(instr, AbortInstr):
        return "abort;"
    return f"assert({format_expr(instr.cond)});"


def format_program(program: Program) -> str:
    """Render a program back to source (inverse of :func:`parse`)."""
    lines = []
    for sess in program.sessions:
        lines.append(f"session {sess.name} {{")
        for txn in sess.txns:
            body = " ".join(format_instr(i) for i in txn.instrs)
            lines.append(f"  txn {{ {body} }}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def assertions(st: ExplorationState) -> list[str]:
    """Evaluate every assert whose session's final transaction committed.

    Sessions whose final transaction aborted or never completed contribute
    nothing.  Returns the violated assertions, rendered as
    ``"session NAME: assert(COND)"``; an empty list means all held.
    """
    violated = []
    for session, cond in st.program.asserts:
        final = TxnId(session, len(st.program.sessions[session].txns) - 1)
        log = st.history.history.by_id.get(final)
        if log is None or log.status != COMMITTED:
            continue
        if eval_expr(cond, st.sessions[session].env) == 0:
            name = st.program.sessions[session].name
            violated.append(f"session {name}: assert({format_expr(cond)})")
    return violated
