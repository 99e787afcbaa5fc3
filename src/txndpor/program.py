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
silently between them.  An ``if`` body holds one instruction, which may
itself be an ``if``, and an ``assert`` may only appear as the last
instruction of a session's final transaction.

:class:`ExplorationState` pairs an ordered history with the per-session local
state reached by running the program along it.  A session's transaction
``txn_index`` is open iff the history holds its log, whose ``write_set``
answers its internal reads; nothing else marks it.  :func:`apply_event` is the
checked boundary: it accepts an event only if it equals the program's own
next event for its session, then appends it to the history, which the
validating constructors check, and steps the session's locals by
``_local_after``.  The explorer's walks step each event once, unchecked, on
their trace, by the same ``_local_after``.  :func:`replay` rebuilds a state
from scratch along a sequence of a history's events, checking each through
:func:`apply_event`.

A transaction body is one flat tuple of instructions (``Transaction.instrs``)
in which an ``if`` guards the instruction after it, so a chain of nested
``if``s is its guards in a row followed by the one instruction they guard.
No walk of a program recurses: only expressions nest.  A run executes the
tuple itself, wrapped once as ``Transaction.code``, and a session's
:class:`LocalState` holds a program counter ``pc`` into it.  Two bounded
memos hash-cons what a step computes, so a walk builds each distinct value
once and shares it:

- ``_action`` (1,024 entries): each action a step or a begin produces,
  keyed by the action's whole value, so each distinct event is built once
  by the validating constructor, its cached encoding included;
- ``_silent_run`` (4,096 entries): the ``pc`` and locals after an event,
  keyed by the body's code, the ``pc`` to run from, the locals, and the
  local a read sets with its value; it sets that local, then runs the
  assigns, guards and asserts up to the next database instruction, skipping
  what a false guard guards.

A hit returns what a miss builds, because each function is pure over its
key: a body's code is hashed and compared by identity, so its key stands
for its exact instructions, locals and values are ints, never bools, and
variables and targets strs.  Errors raise on a miss and are never stored.
No memo holds a log or a state, and none grows with the run.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

from .model import (
    ABORT,
    BEGIN,
    COMMIT,
    COMMITTED,
    INIT_TXN,
    READ,
    WRITE,
    Event,
    EventId,
    History,
    OrderedHistory,
    TransactionLog,
    TxnId,
    lazy_property,
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

# The binary operators by precedence, loosest first, each with its function
# on ints: the parser, the evaluator and the printer read this one table.
_PRECEDENCE = (
    {"==": operator.eq, "!=": operator.ne, "<": operator.lt, "<=": operator.le},
    {"+": operator.add, "-": operator.sub},
    {"*": operator.mul},
)
_COMPARISONS = _PRECEDENCE[0]
_OPERATORS = {op: fn for ops in _PRECEDENCE for op, fn in ops.items()}


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
    """A guard: the instruction after it in the body runs only when
    ``cond`` is not 0.  That instruction may be another guard, so a chain
    of nested ``if``s is stored flat, its guards in a row."""

    cond: Expr


@dataclass(frozen=True)
class AbortInstr(_Located):
    pass


@dataclass(frozen=True)
class AssertInstr(_Located):
    cond: Expr


Instr = ReadInstr | WriteInstr | AssignInstr | IfInstr | AbortInstr | AssertInstr


class _Code(tuple):
    """A transaction body's instructions, hashed and compared by identity:
    a memo key holding it costs one pointer hash, never a walk of the
    instructions, and stands for these exact instructions."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__


@dataclass(frozen=True)
class Transaction:
    instrs: tuple[Instr, ...]

    @lazy_property
    def code(self) -> _Code:
        """``instrs`` as the run keys its memos by, wrapped on the body's
        first step."""
        return _Code(self.instrs)


@dataclass(frozen=True)
class SessionDecl(_Located):
    name: str
    txns: tuple[Transaction, ...]


@dataclass(frozen=True)
class Program:
    sessions: tuple[SessionDecl, ...]

    @lazy_property
    def variables(self) -> tuple[str, ...]:
        """All shared variables mentioned anywhere, sorted."""
        out: set[str] = set()
        for sess in self.sessions:
            for txn in sess.txns:
                for instr in txn.instrs:
                    if isinstance(instr, (ReadInstr, WriteInstr)):
                        out.add(instr.var)
        return tuple(sorted(out))

    @lazy_property
    def asserts(self) -> tuple[tuple[int, AssertInstr], ...]:
        """(session index, instruction) for every assert instruction."""
        out = []
        for s, sess in enumerate(self.sessions):
            for txn in sess.txns:
                for instr in txn.instrs:
                    if isinstance(instr, AssertInstr):
                        out.append((s, instr))
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
        if not self.at_keyword("session"):
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
        self.next()  # "session", which the caller's at_keyword saw
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
        self.next()  # "txn", which the caller's at_keyword saw
        self.expect_op("{")
        instrs: list[Instr] = []
        while not (self.peek().kind == "op" and self.peek().text == "}"):
            # A chain of nested ifs, by a loop: its guards, the one
            # instruction they guard, then a closing brace per guard.
            guards = 0
            while self.at_keyword("if"):
                at = (self.peek().line, self.peek().col)
                self.next()
                self.expect_op("(")
                instrs.append(IfInstr(self.parse_expr(), at=at))
                self.expect_op(")")
                self.expect_op("{")
                guards += 1
            instrs.append(self.parse_instr())
            for _ in range(guards):
                self.expect_op("}")
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

    def parse_expr(self, level: int = 0) -> Expr:
        """An expression over the operators of ``_PRECEDENCE[level:]``: the
        level's operators between operands of the next level, folded left,
        except that a comparison takes one right operand, so comparisons do
        not chain.  Past the table, a factor: an integer, a negated factor,
        a parenthesized expression or a local.  One frame per level, so a
        parenthesis nests four."""
        if level < len(_PRECEDENCE):
            ops = _PRECEDENCE[level]
            expr = self.parse_expr(level + 1)
            while self.peek().text in ops:
                expr = BinaryOp(self.next().text, expr, self.parse_expr(level + 1))
                if ops is _COMPARISONS:
                    break
            return expr
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            value = int(tok.text)
            if value > _I64_MAX:
                raise ParseError("integer literal out of 64-bit range", tok.line, tok.col)
            return IntLiteral(value)
        if tok.kind == "op" and tok.text == "-":
            self.next()
            return BinaryOp("-", IntLiteral(0), self.parse_expr(level))
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
            before it is assigned, or expressions nested too deeply.  Only
            expressions can nest too deeply: a chain of nested ``if``s is
            read by a loop, to any depth.
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
                if not isinstance(instr, AssertInstr):
                    continue
                if pos and isinstance(txn.instrs[pos - 1], IfInstr):
                    raise ParseError(
                        f"assert inside a conditional in session {sess.name!r}",
                        *instr.at,
                    )
                if not (t == len(sess.txns) - 1 and pos == len(txn.instrs) - 1):
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
            cur = set(defined)
            dead = guarded = False  # guarded: the instruction may not run
            for instr in txn.instrs:
                expr = getattr(instr, "expr", getattr(instr, "cond", None))
                try:
                    missing = set() if expr is None else _expr_locals(expr) - cur
                except RecursionError:
                    raise ParseError("expression nested too deeply", *instr.at) from None
                if missing:
                    raise ParseError(
                        f"local {sorted(missing)[0]!r} may be used before "
                        f"assignment in session {sess.name!r}",
                        *instr.at,
                    )
                if isinstance(instr, AbortInstr):
                    if not dead:
                        exits.append(set(cur))
                    dead = dead or not guarded
                elif isinstance(instr, (ReadInstr, AssignInstr)) and not guarded:
                    cur.add(instr.target)
                guarded = isinstance(instr, IfInstr)
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


def _eval_at(instr: Instr, expr: Expr, env: dict[str, int]) -> int:
    """:func:`eval_expr` of ``instr``'s ``expr``; an error names the
    instruction's ``line:col`` first, as a parse error does."""
    try:
        return eval_expr(expr, env)
    except ProgramError as e:
        raise ProgramError(f"{instr.at[0]}:{instr.at[1]}: {e}") from None


def _eval(expr: Expr, env: dict[str, int]) -> int:
    if isinstance(expr, IntLiteral):
        return expr.value
    if isinstance(expr, LocalRef):
        try:
            return env[expr.name]
        except KeyError:
            raise ProgramError(f"local {expr.name!r} is unassigned") from None
    value = _OPERATORS[expr.op](_eval(expr.left, env), _eval(expr.right, env))
    if value < _I64_MIN or value > _I64_MAX:
        raise ProgramError("64-bit signed overflow during evaluation")
    return int(value)  # a comparison's bool as 0 or 1


# ---------------------------------------------------------------------------
# Runtime state
# ---------------------------------------------------------------------------


class LocalState(NamedTuple):
    """One session's runtime position: locals, current transaction, ``pc``.

    ``pc`` indexes the open transaction's body (``Transaction.code``).  The
    transaction ``txn_index`` is open iff the history holds its log, which
    is read there, not marked here: a commit or an abort moves
    ``txn_index`` on to a transaction not yet begun.  Silent instructions
    (assignments, guards, asserts) are run as soon as they are reached, so
    ``pc`` always stands at a database instruction, or at the body's end,
    where the transaction commits; it is 0 between transactions.  ``begun`` holds the locals each
    begun transaction started from, so the walk's swap
    (``explorer._Trace.swap``) can set the session back to any of its
    begins without a replay.  A named tuple, since the walks build one per
    event: it costs a third of a frozen dataclass's ``__init__``.
    """

    locals: tuple[tuple[str, int], ...] = ()
    txn_index: int = 0
    pc: int = 0
    begun: tuple[tuple[tuple[str, int], ...], ...] = ()

    @property
    def env(self) -> dict[str, int]:
        return dict(self.locals)


def _freeze_env(env: dict[str, int]) -> tuple[tuple[str, int], ...]:
    return tuple(sorted(env.items()))


@lru_cache(maxsize=4096)
def _silent_run(
    code: _Code, pc: int, locals: tuple[tuple[str, int], ...], target: str | None,
    value: int | None,
) -> tuple[int, tuple[tuple[str, int], ...]]:
    """The ``pc`` and locals after an event: set ``target`` (a read's
    local, or None) to ``value``, then run ``code`` from ``pc`` through its
    silent instructions up to the next database instruction or the end.  A
    guard whose condition is 0 skips the rest of its chain and the
    instruction it guards.  Asserts are skipped here; :func:`assertions`
    evaluates them at the end of the run."""
    env = dict(locals)
    if target is not None:
        env[target] = value  # type: ignore[assignment]
    while pc < len(code):
        instr = code[pc]
        if isinstance(instr, AssignInstr):
            env[instr.target] = _eval_at(instr, instr.expr, env)
        elif isinstance(instr, IfInstr):
            if _eval_at(instr, instr.cond, env) == 0:
                pc += 1
                while isinstance(code[pc], IfInstr):
                    pc += 1
        elif not isinstance(instr, AssertInstr):
            break
        pc += 1
    return pc, _freeze_env(env)


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

    @property
    def by_id(self) -> dict[TxnId, TransactionLog]:
        """The history's logs by transaction id, as the explorer's trace
        carries them."""
        return self.history.history.by_id

    @property
    def pending(self) -> TxnId | None:
        """The open transaction, the history's one pending transaction
        (init aside), or None; the explorer's trace carries it instead.
        Raises ValueError when more than one is open, which no state the
        explorer builds allows."""
        open_ = self.history.history.pending_txns()
        if len(open_) > 1:
            raise ValueError(f"multiple pending transactions: {open_}")
        return open_[0] if open_ else None


def step_local(st: ExplorationState, session: int) -> NextAction:
    """Resolve the next database event of a session's open transaction.

    The session must have a transaction open.  Silent instructions were
    already run when the transaction reached this point, so the result is
    determined by the instruction at the session's ``pc`` (or commit, at
    the body's end).
    """
    if not 0 <= session < len(st.sessions):
        raise ProgramError(f"session {session} is not in the program")
    ls = st.sessions[session]
    tid = TxnId(session, ls.txn_index)
    if tid not in st.by_id:
        raise ProgramError(f"session {session} has no open transaction")
    return _step(st.program, ls, tid, st.by_id[tid])


def _step(program: Program, ls: LocalState, tid: TxnId, log: TransactionLog) -> NextAction:
    """The step rule: the next event of ``tid``, open in a session at
    ``ls``, whose log so far is ``log``, read from the instruction at
    ``ls.pc`` of its body.  A write's value is evaluated here, under the
    session's locals; the action comes from ``_action``, a bounded memo
    whose key holds every input of what it returns, so a hit is what a
    miss would build.  Each kind is looked up in ``_action`` with one
    number of arguments, so each value has one entry."""
    index = len(log.events)
    code = program.txn_body(tid).code
    pc = ls.pc
    if pc == len(code):
        return _action(tid, index, COMMIT)
    instr = code[pc]
    if isinstance(instr, ReadInstr):
        own = log.write_set.get(instr.var)  # the open log's last write of it
        return _action(tid, index, READ, instr.var, None, instr.target,
                       None if own is None else own.value)
    if isinstance(instr, WriteInstr):
        return _action(tid, index, WRITE, instr.var, _eval_at(instr, instr.expr, ls.env))
    return _action(tid, index, ABORT)


def _next_action(
    program: Program, ls: LocalState, session: int, by_id: dict[TxnId, TransactionLog]
) -> NextAction | None:
    """A session's next action, the session at ``ls`` over the logs
    ``by_id``: its open transaction's step, else the begin of its next
    transaction, else None once every transaction of the session ran."""
    tid = TxnId(session, ls.txn_index)
    if tid in by_id:
        return _step(program, ls, tid, by_id[tid])
    return _action(tid, 0, BEGIN) if tid.index < len(program.sessions[session].txns) else None


@lru_cache(maxsize=1024)
def _action(txn: TxnId, index: int, kind: str, var: str | None = None, value: int | None = None,
            target: str | None = None, internal_value: int | None = None) -> NextAction:
    """The action of one event value, built by the validating constructors
    on a miss and shared on every hit.  Values are ints, never bools, and
    variables strs, so equal keys are equal actions."""
    return NextAction(Event(EventId(txn, index), kind, var, value), target, internal_value)


def apply_event(
    st: ExplorationState, event: Event, writer: TxnId | None = None
) -> ExplorationState:
    """Apply one database event, checked against the program semantics.

    ``event`` must equal the program's own next event of its session, a
    write's value included: for a begin, the session's next action
    (:func:`_next_action`), the begin of its next transaction when none is
    open; for any other event, what :func:`step_local` resolves in its open
    transaction.  An external read
    needs a committed ``writer`` that writes its variable, and observes that
    writer's final write on it; no other event takes a writer.  Raises
    :class:`ProgramError` for any other input; otherwise appends the event
    by :meth:`OrderedHistory.append` and steps the session's locals past it.
    """
    session = event.id.txn.session
    if not 0 <= session < len(st.sessions):
        raise ProgramError(f"session {session} is not in the program")
    action = (_next_action(st.program, st.sessions[session], session, st.by_id)
              if event.kind == BEGIN else step_local(st, session))
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
    hist = st.history.append(event, writer=writer)
    new_ls = _local_after(st.program, st.sessions[session], action, st.by_id, writer)
    sessions = st.sessions[:session] + (new_ls,) + st.sessions[session + 1 :]
    return ExplorationState(st.program, hist, sessions)


def _local_after(
    program: Program, ls: LocalState, action: NextAction,
    by_id: dict[TxnId, TransactionLog], writer: TxnId | None,
) -> LocalState:
    """The local-state rule: the session at ``ls`` after ``action``, an
    external read observing ``writer``'s final write, from the logs
    ``by_id`` before the event.  A begin runs its body from ``pc`` 0 and
    any other event from the instruction after ``ls.pc``, by
    ``_silent_run``, whose key holds the body, the ``pc``, the locals and
    the local a read sets with its value: every input of its result, so a
    hit is what a miss would build."""
    event = action.event
    kind, tid = event.kind, event.id.txn
    if kind == COMMIT or kind == ABORT:
        return LocalState(ls.locals, ls.txn_index + 1, 0, ls.begun)
    code = program.txn_body(tid).code
    if kind == BEGIN:
        pc, begun = 0, ls.begun + (ls.locals,)
    else:
        pc, begun = ls.pc + 1, ls.begun
    value = (action.internal_value if writer is None
             else by_id[writer].write_set[event.var].value)  # type: ignore[index]
    pc, locals = _silent_run(code, pc, ls.locals, action.target, value)
    return LocalState(locals, ls.txn_index, pc, begun)


def replay(program: Program, history: History, order: Iterable[EventId]) -> ExplorationState:
    """Re-execute ``program`` along ``order``, rebuilding local state.

    Each event of ``order`` is taken, with its writer, from ``history`` and
    appended by :func:`apply_event`, which checks it against the program,
    starting from the initial state.  Init events are skipped; ``history``'s
    init transaction must be the program's.
    """
    st = ExplorationState.initial(program)
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
    # can be formatted.  A product parenthesizes every operation it holds, a
    # comparison is parenthesized wherever it stands, and so is a right
    # operand of its parent's precedence group, which the parser would fold
    # to the left: 5 - (2 + a), not 5 - 2 + a.
    loose = _OPERATORS if expr.op == "*" else _COMPARISONS
    group = next(ops for ops in _PRECEDENCE if expr.op in ops)
    sides = []
    for child, wrapped in ((expr.left, loose), (expr.right, loose | group)):
        text = format_expr(child)
        sides.append(f"({text})" if isinstance(child, BinaryOp) and child.op in wrapped else text)
    return f"{sides[0]} {expr.op} {sides[1]}"


def format_instr(instr: Instr) -> str:
    if isinstance(instr, ReadInstr):
        return f"{instr.target} = read({instr.var});"
    if isinstance(instr, WriteInstr):
        return f"write({instr.var}, {format_expr(instr.expr)});"
    if isinstance(instr, AssignInstr):
        return f"{instr.target} = {format_expr(instr.expr)};"
    if isinstance(instr, IfInstr):
        return f"if ({format_expr(instr.cond)}) {{"
    if isinstance(instr, AbortInstr):
        return "abort;"
    return f"assert({format_expr(instr.cond)});"


def format_program(program: Program) -> str:
    """Render a program back to source (inverse of :func:`parse`).  A guard
    opens a brace that the instruction it guards closes, with the rest of
    its chain's."""
    lines = []
    for sess in program.sessions:
        lines.append(f"session {sess.name} {{")
        for txn in sess.txns:
            parts, guards = [], 0
            for instr in txn.instrs:
                text = format_instr(instr)
                if isinstance(instr, IfInstr):
                    guards += 1
                else:
                    text += " }" * guards
                    guards = 0
                parts.append(text)
            lines.append(f"  txn {{ {' '.join(parts)} }}")
        lines.append("}")
    return "\n".join(lines) + "\n"


def assertions(st: ExplorationState) -> list[str]:
    """Evaluate every assert whose session's final transaction committed.

    Sessions whose final transaction aborted or never completed contribute
    nothing.  Returns the violated assertions, rendered as
    ``"session NAME: assert(COND)"``; an empty list means all held.
    """
    violated = []
    for session, instr in st.program.asserts:
        final = TxnId(session, len(st.program.sessions[session].txns) - 1)
        log = st.history.history.by_id.get(final)
        if log is None or log.status != COMMITTED:
            continue
        if _eval_at(instr, instr.cond, st.sessions[session].env) == 0:
            name = st.program.sessions[session].name
            violated.append(f"session {name}: assert({format_expr(instr.cond)})")
    return violated
