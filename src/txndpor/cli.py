"""Command line front end.

``txndpor run PROGRAM`` enumerates the histories of a program under an
isolation level and prints summary counters; ``txndpor verify`` runs the
self-checking suites that cross-validate the enumerator against the naive
baseline and the brute-force consistency oracle on random corpora.

Exit codes: 0 success, 1 usage or parse errors, 2 assertion violation found
(reported even when the run was truncated), 3 time limit exceeded, 130
interrupted by Ctrl-C (a run still prints and writes its partial stats;
any other command prints ``interrupted``).

Set ``TXNDPOR_LOG`` to ``info`` or ``trace`` for progress logging.
"""

from __future__ import annotations

import json
import logging
import os
import random
import stat
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import Callable

import click

from .examples import EXAMPLE_PROGRAMS
from .explorer import (
    RunInterrupted,
    TimeLimitExceeded,
    _check_levels,
    dfs,
    explore_ce,
    explore_ce_star,
)
from .generate import (
    random_history,
    random_program,
    shrink_failing_history,
    shrink_failing_program,
)
from .isolation import (
    brute_force_consistency,
    brute_force_consistency_cached,
    check_consistency,
)
from .model import IsolationLevel, TxnId, canonical_decode, canonical_encode
from .oracles import canonical_order, is_or_respectful, prev
from .program import (
    ExplorationState,
    Program,
    ProgramError,
    assertions,
    parse,
)

_log = logging.getLogger(__name__)

_LEVEL_NAMES = ["rc", "ra", "cc", "si", "ser", "true"]
_MODES = ["explore-ce", "explore-ce-star", "dfs"]
_SUITES = ["soundness", "completeness", "optimality", "oracles", "axioms"]


class OracleCheckError(RuntimeError):
    """An exploration state failed one of the uniqueness oracles."""


def _configure_logging() -> None:
    value = os.environ.get("TXNDPOR_LOG", "off").lower()
    if value in ("", "off"):
        return
    if value == "info":
        level = logging.INFO
    elif value == "trace":
        level = logging.DEBUG
    else:
        raise click.UsageError(f"TXNDPOR_LOG must be off, info or trace, not {value!r}")
    logging.basicConfig(
        level=level, format="%(asctime)s %(name)s %(levelname)s %(message)s"
    )


@click.group()
def cli() -> None:
    """Enumerate transactional histories under weak isolation levels."""


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _not_nan(ctx: click.Context, param: click.Parameter, value: float | None) -> float | None:
    if value != value:  # NaN, which FloatRange lets through
        raise click.BadParameter("nan is not a number of seconds")
    return value


def _level(
    ctx: click.Context, param: click.Parameter, name: str | None
) -> IsolationLevel | None:
    return IsolationLevel.from_name(name) if name else None


def _file_identity(path: str) -> object:
    """The file ``path`` names: its device and inode if it exists, so that
    hard links match, else its resolved path."""
    resolved = Path(path).resolve()
    try:
        st = resolved.stat()
    except OSError:
        return resolved
    return st.st_dev, st.st_ino


def _open_outputs(files: ExitStack, *outputs: tuple[str | None, str]) -> list:
    """Open each ``(path, mode)`` of ``outputs`` for writing into ``files``
    (None for no path), truncating only once all are open.  When one
    fails, the files this call created are removed and the error raised:
    every existing file is left byte-identical and no new one behind."""
    opened: list = []
    created: list[str] = []
    try:
        for path, mode in outputs:
            if not path:
                opened.append(None)
                continue
            try:
                fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                created.append(path)
            except FileExistsError:
                fd = os.open(path, os.O_WRONLY)
            opened.append(files.enter_context(open(fd, mode)))
    except OSError:
        for path in created:
            os.unlink(path)
        raise
    for f in opened:
        if f is not None and stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate(0)
    return opened


def _oracle_hook(prog: Program, level: IsolationLevel):
    txns = tuple(
        TxnId(s, i)
        for s in range(len(prog.sessions))
        for i in range(len(prog.sessions[s].txns))
    )

    def hook(parent: ExplorationState | None, st: ExplorationState) -> None:
        if not is_or_respectful(st.history, txns):
            raise OracleCheckError(
                f"state is not order-respectful: {canonical_encode(st.history.history)!r}"
            )
        expected = (parent if parent is not None else st).history.history
        got = prev(prog, st.history, level)
        if got != expected:
            raise OracleCheckError(
                f"predecessor mismatch at {canonical_encode(st.history.history)!r}"
            )
        appearance = list(st.history.starts)
        for a, b in zip(appearance, appearance[1:]):
            if not canonical_order(st.history.history, a, b):
                raise OracleCheckError(
                    f"maintained order disagrees with canonical order on {a}, {b}"
                )

    return hook


@cli.command()
@click.argument("program", type=click.Path(exists=True, dir_okay=False))
@click.option("--mode", type=click.Choice(_MODES), default="explore-ce",
              help="Enumeration strategy.")
@click.option("--level", type=click.Choice(_LEVEL_NAMES), default="cc", callback=_level,
              help="Isolation level (the emission level, for star mode).")
@click.option("--weak-level", type=click.Choice(_LEVEL_NAMES), default=None,
              callback=_level, help="Traversal level for explore-ce-star.")
@click.option("--emit", type=click.Path(dir_okay=False), default=None,
              help="Write one JSON history per line to this file.")
@click.option("--dedup", is_flag=True,
              help="Suppress duplicate histories in the --emit file.")
@click.option("--oracle-check", is_flag=True,
              help="Verify the uniqueness oracles at every explored state.")
@click.option("--time-limit", type=click.FloatRange(min=0), default=None,
              callback=_not_nan,
              help="Wall-clock budget in seconds.")
@click.option("--stats-json", type=click.Path(dir_okay=False), default=None,
              help="Write run counters as JSON to this file.")
def run(
    program: str,
    mode: str,
    level: IsolationLevel,
    weak_level: IsolationLevel | None,
    emit: str | None,
    dedup: bool,
    oracle_check: bool,
    time_limit: float | None,
    stats_json: str | None,
) -> int:
    """Enumerate the histories of PROGRAM."""
    # An output must not overwrite the program or the other output.
    named: dict[object, str] = {}
    for option, path in (("PROGRAM", program), ("--emit", emit), ("--stats-json", stats_json)):
        if path is None:
            continue
        other = named.setdefault(_file_identity(path), option)
        if other != option:
            raise click.UsageError(f"{other} and {option} name the same file {path}")
    prog = parse(Path(program).read_text())
    if mode == "explore-ce-star" and weak_level is None:
        raise click.UsageError("explore-ce-star requires --weak-level")
    if mode != "explore-ce-star" and weak_level is not None:
        raise click.UsageError("--weak-level only applies to explore-ce-star")
    if oracle_check and mode == "dfs":
        raise click.UsageError("--oracle-check applies to the explore modes")
    if dedup and emit is None:
        raise click.UsageError("--dedup applies only with --emit")
    if mode == "explore-ce":
        _check_levels(level)
    elif mode == "explore-ce-star":
        _check_levels(weak_level, level)  # type: ignore[arg-type]
    _log.info("running %s at %s", mode, level.value)

    seen: set[bytes] = set()
    raw = 0
    violated: set[str] = set()  # rendered violated asserts, over all histories
    partial: BaseException | None = None  # what cut the run short
    hook = None
    if oracle_check:
        hook = _oracle_hook(prog, weak_level or level)

    def on_emit(st: ExplorationState) -> None:
        nonlocal raw
        raw += 1
        encoded = canonical_encode(st.history.history)
        fresh = encoded not in seen
        seen.add(encoded)
        if out is not None and (fresh or not dedup):
            out.write(encoded + b"\n")
        violated.update(assertions(st))

    # Open both outputs first, so that a bad path fails before the work.
    with ExitStack() as files:
        out, stats_out = _open_outputs(files, (emit, "wb"), (stats_json, "w"))
        try:
            if mode == "explore-ce":
                stats = explore_ce(
                    prog, level, emit=on_emit, entry_hook=hook, time_limit=time_limit
                )
            elif mode == "explore-ce-star":
                assert weak_level is not None
                stats = explore_ce_star(
                    prog, weak_level, level, emit=on_emit, entry_hook=hook,
                    time_limit=time_limit,
                )
            else:
                stats = dfs(prog, level, emit=on_emit, time_limit=time_limit)
        except (TimeLimitExceeded, RunInterrupted) as exc:
            stats, partial = exc.stats, exc
        if stats_out is not None:
            payload = dict(stats.as_dict(), distinct_histories=len(seen), schema_version=1)
            stats_out.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    click.echo(f"distinct histories: {len(seen)}")
    click.echo(f"raw emissions: {raw}")
    click.echo(f"filtered: {stats.filtered_outputs}")
    click.echo(f"blocked calls: {stats.blocked_calls}")
    click.echo(f"inconsistent entries: {stats.inconsistent_branch_entries}")
    click.echo(f"swaps taken: {stats.swaps_taken}, rejected: {stats.swaps_rejected}")
    click.echo(f"max depth: {stats.max_depth}")
    click.echo(f"wall time: {stats.wall_time:.3f}s")
    if partial is not None:
        click.echo(f"{partial}; results are partial")
    if violated:
        click.echo("assertion violated by at least one history")
        for text in sorted(violated):
            click.echo(f"  {text}")
    if isinstance(partial, RunInterrupted):
        return 130
    if violated:
        return 2
    return 0 if partial is None else 3


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@cli.command()
@click.option("--suite", type=click.Choice(_SUITES + ["all"]), default="all",
              help="Which self-check to run.")
@click.option("--cases", type=click.IntRange(min=0), default=25,
              help="Random cases per suite.")
@click.option("--seed", type=int, default=0, help="Random seed.")
@click.option("--level", type=click.Choice(["rc", "ra", "cc", "true"]), default="cc",
              callback=_level, help="Exploration level for the program-based suites.")
def verify(suite: str, cases: int, seed: int, level: IsolationLevel) -> int:
    """Cross-check the enumerator against its independent oracles."""
    suites = _SUITES if suite == "all" else [suite]
    if cases == 0:
        for name in suites:
            click.echo(f"{name}: vacuous (0 cases)")
        return 0
    for name in suites:
        rng = random.Random(seed)
        failure = _SUITE_RUNNERS[name](rng, cases, level)
        if failure is not None:
            click.echo(f"{name}: FAILED")
            click.echo(failure)
            return 1
        click.echo(f"{name}: ok ({cases} cases)")
    return 0


def _encodings(enumerate_: Callable, prog: Program, level: IsolationLevel) -> list[bytes]:
    """Encodings of the histories ``enumerate_`` (explore_ce or dfs) emits."""
    out: list[bytes] = []
    enumerate_(prog, level, emit=lambda st: out.append(
        canonical_encode(st.history.history)))
    return out


def _suite_axioms(rng: random.Random, cases: int, level: IsolationLevel) -> str | None:
    checked = (
        IsolationLevel.RC,
        IsolationLevel.RA,
        IsolationLevel.CC,
        IsolationLevel.SI,
        IsolationLevel.SER,
    )
    for _ in range(cases):
        h = random_history(rng)
        for lvl in checked:
            if check_consistency(h, lvl) != brute_force_consistency(h, lvl):
                bad = shrink_failing_history(
                    h,
                    lambda c: check_consistency(c, lvl)
                    != brute_force_consistency(c, lvl),
                )
                return (
                    f"consistency checker disagrees with brute force at "
                    f"{lvl.value} on:\n{canonical_encode(bad).decode()}"
                )
    return None


def _corpus_suite(message: str, fails: Callable[[Program, IsolationLevel], bool]):
    """A suite that walks the example programs and ``cases`` random ones;
    on the first that ``fails`` at the level, it reports ``message`` and
    the program shrunk."""

    def suite(rng: random.Random, cases: int, level: IsolationLevel) -> str | None:
        def failing(prog: Program) -> bool:
            return fails(prog, level)

        randoms = [random_program(rng) for _ in range(cases)]
        for src in list(EXAMPLE_PROGRAMS.values()) + randoms:
            if failing(parse(src)):
                return message + shrink_failing_program(src, failing)
        return None

    return suite


def _unsound(prog: Program, level: IsolationLevel) -> bool:
    return any(
        not brute_force_consistency_cached(canonical_decode(enc), level)
        for enc in _encodings(explore_ce, prog, level)
    )


def _incomplete(prog: Program, level: IsolationLevel) -> bool:
    return set(_encodings(explore_ce, prog, level)) != set(_encodings(dfs, prog, level))


def _duplicated(prog: Program, level: IsolationLevel) -> bool:
    encs = _encodings(explore_ce, prog, level)
    return len(encs) != len(set(encs))


def _violates_oracles(prog: Program, level: IsolationLevel) -> bool:
    try:
        explore_ce(prog, level, entry_hook=_oracle_hook(prog, level))
    except OracleCheckError:
        return True
    return False


_SUITE_RUNNERS = {
    "axioms": _suite_axioms,
    "soundness": _corpus_suite("inconsistent history emitted for:\n", _unsound),
    "completeness": _corpus_suite("enumeration differs from the baseline for:\n", _incomplete),
    "optimality": _corpus_suite("duplicate emission for:\n", _duplicated),
    "oracles": _corpus_suite("oracle violation for:\n", _violates_oracles),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        _configure_logging()
        result = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:  # Ctrl-C outside a run's search
        click.echo("interrupted", err=True)
        return 130
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except ProgramError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    except OracleCheckError as exc:
        click.echo(f"oracle check failed: {exc}", err=True)
        return 1
    except (OSError, ValueError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return int(result) if isinstance(result, int) else 0


if __name__ == "__main__":
    sys.exit(main())
