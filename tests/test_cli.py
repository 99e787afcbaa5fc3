"""The command line front end, driven in-process through ``main``."""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest
from fixtures import init_log

import txndpor
from txndpor import cli, explorer
from txndpor.cli import main
from txndpor.examples import EXAMPLE_PROGRAMS
from txndpor.explorer import RunInterrupted, RunStats
from txndpor.generate import (
    _history_reductions,
    _without_txn,
    random_history,
    random_program,
    shrink_failing_history,
    shrink_failing_program,
)
from txndpor.isolation import check_consistency
from txndpor.model import (
    INIT_TXN,
    WRITE,
    EventId,
    History,
    IsolationLevel,
    TransactionLog,
    TxnId,
    begin_event,
    canonical_decode,
    canonical_encode,
    commit_event,
    read_event,
    write_event,
)
from txndpor.program import format_program, parse


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """``python -m txndpor ARGS`` in a fresh interpreter that imports this
    package: its ``src`` directory goes first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(txndpor.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "txndpor", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.fixture
def program_file(tmp_path):
    def write(name: str):
        path = tmp_path / f"{name}.txn"
        path.write_text(EXAMPLE_PROGRAMS[name])
        return str(path)

    return write


def _lines(capsys) -> list[str]:
    return capsys.readouterr().out.splitlines()


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def test_run_reports_distinct_history_count(program_file, capsys):
    code = main(["run", program_file("racing_reads"), "--level", "cc"])
    assert code == 0
    out = _lines(capsys)
    assert "distinct histories: 9" in out
    assert "raw emissions: 9" in out
    assert "swaps taken: 3, rejected: 5" in out


def test_run_dfs_overcounts_but_matches_after_dedup(program_file, capsys, tmp_path):
    direct = tmp_path / "direct.jsonl"
    naive = tmp_path / "naive.jsonl"
    assert main(["run", program_file("racing_reads"), "--emit", str(direct)]) == 0
    assert (
        main(
            [
                "run",
                program_file("racing_reads"),
                "--mode",
                "dfs",
                "--emit",
                str(naive),
                "--dedup",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "raw emissions: 100" in out
    direct_set = set(direct.read_bytes().splitlines())
    naive_set = set(naive.read_bytes().splitlines())
    assert direct_set == naive_set
    assert len(direct.read_bytes().splitlines()) == 9


def test_run_rejects_dedup_without_an_emit_file(program_file, capsys):
    """``--dedup`` only filters the ``--emit`` file; alone it is a usage
    error, not a flag that silently does nothing."""
    assert main(["run", program_file("racing_reads"), "--mode", "dfs", "--dedup"]) == 1
    captured = capsys.readouterr()
    assert "--dedup applies only with --emit" in captured.err
    assert "distinct histories" not in captured.out


def test_run_emits_decodable_canonical_lines(program_file, tmp_path, capsys):
    emitted = tmp_path / "histories.jsonl"
    assert main(["run", program_file("split_reads"), "--emit", str(emitted)]) == 0
    lines = emitted.read_bytes().splitlines()
    assert len(lines) == 3
    for line in lines:
        h = canonical_decode(line)
        doc = json.loads(line)
        assert sorted(doc) == ["so", "txns", "wr"]
        assert not h.pending_txns()


def test_run_output_is_deterministic(program_file, tmp_path, capsys):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["run", program_file("abort_flip"), "--emit", str(a)]) == 0
    assert main(["run", program_file("abort_flip"), "--emit", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_rejects_seed(program_file, capsys):
    assert main(["run", program_file("abort_flip"), "--seed", "7"]) == 1
    err = capsys.readouterr().err
    assert "No such option" in err and "--seed" in err


def test_run_star_mode_filters(program_file, capsys):
    code = main(
        [
            "run",
            program_file("cross_writes"),
            "--mode",
            "explore-ce-star",
            "--weak-level",
            "cc",
            "--level",
            "ser",
        ]
    )
    assert code == 0
    out = _lines(capsys)
    assert "distinct histories: 2" in out
    assert "filtered: 1" in out


def test_run_star_mode_requires_weak_level(program_file, capsys):
    code = main(
        ["run", program_file("cross_writes"), "--mode", "explore-ce-star"]
    )
    assert code == 1
    assert "requires --weak-level" in capsys.readouterr().err


def test_run_refuses_a_weak_level_outside_star_mode(program_file, capsys):
    code = main(["run", program_file("cross_writes"), "--weak-level", "cc"])
    assert code == 1
    captured = capsys.readouterr()
    assert "--weak-level only applies to explore-ce-star" in captured.err
    assert "distinct histories" not in captured.out


def test_run_rejects_non_extensible_exploration(program_file, capsys):
    code = main(["run", program_file("racing_reads"), "--level", "ser"])
    assert code == 1
    assert "not causally extensible" in capsys.readouterr().err


def test_run_flags_assertion_violations(program_file, capsys):
    code = main(["run", program_file("fractured_read"), "--level", "rc"])
    assert code == 2
    out = capsys.readouterr().out
    assert "assertion violated by at least one history" in out
    assert main(["run", program_file("fractured_read"), "--level", "ra"]) == 0


def test_run_names_each_violated_assert_once(tmp_path, capsys):
    """The README's demo with its assert negated: every history violates it,
    and the run names it once after the summary line."""
    path = tmp_path / "demo.txn"
    path.write_text(
        "session reader {\n"
        "  txn { a = read(x); b = read(x); assert(b < a); }\n"
        "}\n"
        "session writer {\n"
        "  txn { write(x, 1); }\n"
        "  txn { write(x, 2); }\n"
        "}\n"
    )
    assert main(["run", str(path), "--level", "cc"]) == 2
    out = _lines(capsys)
    assert "raw emissions: 3" in out
    assert out[-2:] == [
        "assertion violated by at least one history",
        "  session reader: assert(b < a)",
    ]


def test_run_time_limit_exit_code(program_file, capsys):
    code = main(
        ["run", program_file("racing_reads"), "--time-limit", "0.0"]
    )
    assert code == 3
    assert "time limit exceeded" in capsys.readouterr().out


def test_run_reports_partial_stats_on_ctrl_c(program_file, tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise RunInterrupted(RunStats(outputs=5, recursive_calls=9))

    monkeypatch.setattr(cli, "explore_ce", interrupted)
    stats = tmp_path / "stats.json"
    code = main(["run", program_file("racing_reads"), "--stats-json", str(stats)])
    assert code == 130
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert "blocked calls: 0" in lines
    assert lines[-1] == "interrupted; results are partial"
    assert "Traceback" not in out + err
    payload = json.loads(stats.read_text())
    assert (payload["outputs"], payload["recursive_calls"]) == (5, 9)


def test_verify_exits_130_on_ctrl_c(capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli._SUITE_RUNNERS, "axioms", interrupted)
    code = main(["verify", "--suite", "axioms", "--cases", "1"])
    assert code == 130
    out, err = capsys.readouterr()
    assert err.split() == ["interrupted"]
    assert "Traceback" not in out + err


def test_run_writes_stats_json(program_file, tmp_path, capsys):
    stats = tmp_path / "stats.json"
    assert main(
        ["run", program_file("independent_pairs"), "--stats-json", str(stats)]
    ) == 0
    payload = json.loads(stats.read_text())
    assert payload["distinct_histories"] == 4
    assert payload["outputs"] == 4
    assert payload["swaps_taken"] == 3
    assert payload["swaps_rejected"] == 1
    assert payload["blocked_calls"] == 0
    assert payload["inconsistent_branch_entries"] == 0
    assert payload["schema_version"] == 1
    assert sorted(payload) == sorted(
        [
            "schema_version", "distinct_histories", "outputs", "filtered_outputs",
            "recursive_calls", "blocked_calls", "inconsistent_branch_entries",
            "swaps_taken", "swaps_rejected", "max_depth", "wall_time",
        ]
    )


@pytest.mark.parametrize("args", [
    ["--level", "cc"],
    ["--mode", "dfs", "--level", "ser"],
    ["--mode", "explore-ce-star", "--weak-level", "cc", "--level", "ser"],
], ids=lambda args: "-".join(args[1::2]))
def test_run_prints_the_outputs_counter_as_raw_emissions(program_file, tmp_path, capsys, args):
    stats = tmp_path / "stats.json"
    for name in EXAMPLE_PROGRAMS:
        assert main(["run", program_file(name), *args, "--stats-json", str(stats)]) == 0
        outputs = json.loads(stats.read_text())["outputs"]
        assert f"raw emissions: {outputs}" in _lines(capsys), name


def test_run_oracle_check_passes_on_examples(program_file, capsys):
    assert main(["run", program_file("abort_flip"), "--oracle-check"]) == 0
    code = main(
        ["run", program_file("abort_flip"), "--mode", "dfs", "--oracle-check"]
    )
    assert code == 1
    assert "applies to the explore modes" in capsys.readouterr().err


def test_run_rejects_an_unparsable_program(tmp_path, capsys):
    bad = tmp_path / "bad.txn"
    bad.write_text("session s { txn { write(x 1); } }")
    assert main(["run", str(bad)]) == 1
    assert "expected ','" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr", ["+".join(["1"] * 1200), "(" * 400 + "1" + ")" * 400], ids=["sum", "parens"]
)
def test_run_rejects_a_too_deeply_nested_expression(tmp_path, expr):
    """Run in a fresh interpreter at its default recursion limit."""
    path = tmp_path / "deep.txn"
    path.write_text(f"session s {{ txn {{ a = {expr}; write(x, a); }} }}")
    proc = _run_module("run", str(path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert "expression nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "instr, col",
    [("write(z, y + 1);", 5), ("a = y + 1;", 5), ("if (y + 1 == 0) { abort; }", 5),
     ("assert(y + 1 == 0);", 5), ("a = 0; if (0 == a) { b = y + 1; }", 26),
     ("if (0 == 0) { if (y + 1 == 0) { abort; } }", 19)],
    ids=["write", "assignment", "condition", "assert", "nested", "inner-condition"],
)
def test_run_names_the_instruction_an_evaluation_error_happens_in(tmp_path, capsys, instr, col):
    """An error raised while the program runs is prefixed by the line and
    column of the instruction whose expression failed, as a parse error is."""
    path = tmp_path / "overflow.txn"
    path.write_text(f"session s {{\n  txn {{\n    y = 9223372036854775807;\n    {instr}\n  }}\n}}\n")
    assert main(["run", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: 4:{col}: 64-bit signed overflow during evaluation\n"
    assert "distinct histories" not in captured.out


def test_run_reports_a_long_violated_assert(tmp_path):
    """A 600-term condition is evaluated and its violation rendered at the
    default recursion limit of a fresh interpreter."""
    path = tmp_path / "assert.txn"
    cond = "+".join(["a"] * 600)
    path.write_text(f"session s {{ txn {{ a = 1; assert({cond} == 0); }} }}")
    proc = _run_module("run", str(path))
    assert proc.returncode == 2, proc.stderr
    assert "assertion violated by at least one history" in proc.stdout


@pytest.mark.parametrize("option", ["--emit", "--stats-json"])
def test_run_rejects_an_unwritable_output_before_enumerating(
    program_file, tmp_path, capsys, option
):
    target = tmp_path / "missing" / "out.json"
    assert main(["run", program_file("racing_reads"), option, str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "No such file or directory" in captured.err
    assert "distinct histories" not in captured.out


@pytest.mark.parametrize(
    "clash",
    [
        (["--stats-json", "{program}"], "PROGRAM and --stats-json"),
        (["--emit", "{program}"], "PROGRAM and --emit"),
        (["--emit", "{out}", "--stats-json", "{out_alias}"], "--emit and --stats-json"),
        (["--stats-json", "{link}"], "PROGRAM and --stats-json"),
    ],
    ids=["stats-over-program", "emit-over-program", "emit-and-stats", "stats-over-hard-link"],
)
def test_run_refuses_outputs_that_name_the_same_file(program_file, tmp_path, capsys, clash):
    """Paths are compared resolved, or by inode when the file exists, and
    the refusal comes before any file is opened: the program is unchanged
    and no output is created."""
    args, pair = clash
    program = program_file("racing_reads")
    source = tmp_path / "racing_reads.txn"
    before = source.read_bytes()
    link = tmp_path / "link.txn"
    os.link(source, link)
    out = tmp_path / "out.json"
    paths = {"program": program, "out": str(out), "link": str(link),
             "out_alias": str(tmp_path / "." / "out.json")}
    code = main(["run", program] + [arg.format(**paths) for arg in args])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"{pair} name the same file" in captured.err
    assert "distinct histories" not in captured.out
    assert source.read_bytes() == before
    assert not out.exists()


@pytest.mark.parametrize("kept, failing", [("--emit", "--stats-json"), ("--stats-json", "--emit")])
@pytest.mark.parametrize("existing", [True, False], ids=["existing", "new"])
def test_run_leaves_the_other_output_alone_when_an_open_fails(
    program_file, tmp_path, capsys, kept, failing, existing
):
    """An output that cannot be opened fails the run before either output
    is truncated, in either order: an existing file keeps its bytes and a
    new one is not left behind."""
    keep = tmp_path / "keep.out"
    if existing:
        keep.write_bytes(b'{"kept": true}')
    argv = ["run", program_file("racing_reads"), kept, str(keep),
            failing, str(tmp_path / "missing" / "out")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "No such file or directory" in captured.err
    assert "distinct histories" not in captured.out
    if existing:
        assert keep.read_bytes() == b'{"kept": true}'
    else:
        assert not keep.exists()


REFUSED_LEVELS = {
    "explore-ce-at-si": (["--level", "si"], "si is not causally extensible; use dfs instead"),
    "star-walking-at-ser": (
        ["--mode", "explore-ce-star", "--weak-level", "ser"], "ser is not causally extensible"
    ),
    "star-emitting-below-its-walk": (
        ["--mode", "explore-ce-star", "--weak-level", "cc", "--level", "rc"],
        "rc is weaker than the traversal level cc",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED_LEVELS))
def test_run_refuses_a_level_before_opening_the_outputs(program_file, tmp_path, capsys, case):
    """A level the mode refuses fails the run with the library's message
    before either output is opened: existing outputs keep their bytes and
    a missing one is not created."""
    args, message = REFUSED_LEVELS[case]
    program = program_file("racing_reads")
    keep, stats = tmp_path / "keep.jsonl", tmp_path / "s.json"
    keep.write_bytes(b"[1, 2]\n\n")
    stats.write_bytes(b'{"a": 1}\n\n')
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    new = str(tmp_path / "new.out")
    for outputs in ([keep, stats], [keep, new], [new, stats]):
        argv = ["run", program, *args, "--emit", str(outputs[0]), "--stats-json", str(outputs[1])]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "distinct histories" not in captured.out
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_run_rejects_a_negative_time_limit(program_file, capsys):
    assert main(["run", program_file("racing_reads"), "--time-limit", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "'--time-limit'" in err


def test_run_rejects_a_nan_time_limit(program_file, capsys):
    args = ["run", program_file("racing_reads"), "--mode", "dfs", "--level", "ser"]
    assert main(args + ["--time-limit", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "'--time-limit': nan is not a number of seconds" in captured.err
    assert "distinct histories" not in captured.out


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_all_suites_pass(capsys):
    code = main(["verify", "--cases", "2", "--seed", "3"])
    assert code == 0
    out = _lines(capsys)
    assert out == [
        "soundness: ok (2 cases)",
        "completeness: ok (2 cases)",
        "optimality: ok (2 cases)",
        "oracles: ok (2 cases)",
        "axioms: ok (2 cases)",
    ]


def test_verify_single_suite(capsys):
    code = main(["verify", "--suite", "axioms", "--cases", "5", "--seed", "1"])
    assert code == 0
    assert _lines(capsys) == ["axioms: ok (5 cases)"]


def test_verify_zero_cases_is_reported_vacuous(capsys):
    code = main(["verify", "--suite", "soundness", "--cases", "0"])
    assert code == 0
    assert _lines(capsys) == ["soundness: vacuous (0 cases)"]


def test_verify_rejects_negative_cases(capsys):
    assert main(["verify", "--suite", "soundness", "--cases", "-3"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "'--cases'" in captured.err
    assert "vacuous" not in captured.out


def _size(p) -> tuple[int, int, int]:
    """(sessions, transactions, instructions) of a program."""
    txns = [t for sess in p.sessions for t in sess.txns]
    return len(p.sessions), len(txns), sum(len(t.instrs) for t in txns)


def _three_instructions_in_two_sessions(p) -> bool:
    sessions, _, instrs = _size(p)
    return sessions >= 2 and instrs >= 3


def _two_wr_edges(h) -> bool:
    return len(h.wr) >= 2


# The sha256 digests pin the draws of seeds 0-299: verify's corpora and the
# benchmark's random programs are such draws, so a generator edit that
# moves one fails here.
@pytest.mark.parametrize("options, digest", [
    ({}, "fe03db66c79b0507fa7c4c7fc5c28da201321168403c016255651dc29ad9867d"),
    ({"max_sessions": 2}, "45b1b22760f729f34ac618253f4a48aa792ba378b77232f9f69d31976b81625c"),
], ids=["default", "max_sessions=2"])
def test_random_program_draws_are_stable(options, digest):
    """The sources ``random_program`` draws are the pinned ones."""
    sources = "".join(random_program(random.Random(s), **options) for s in range(300))
    assert hashlib.sha256(sources.encode()).hexdigest() == digest


@pytest.mark.parametrize("options, digest", [
    ({}, "4b5dccab6aefabc79721b299f4d3acb2f6a552a6ecd1cd85662b097bd40867a0"),
    ({"max_txns": 7}, "b5a28508f90c586c7a5e0df2f7deca5e4e321f040aa6b83e9e3996e825dd10a8"),
], ids=["default", "max_txns=7"])
def test_random_history_draws_are_stable(options, digest):
    """The encodings of the histories ``random_history`` draws are the
    pinned ones."""
    encodings = b"\n".join(
        canonical_encode(random_history(random.Random(s), **options)) for s in range(300)
    )
    assert hashlib.sha256(encodings).hexdigest() == digest


def test_shrinkers_keep_the_failure_and_reach_a_fixed_point():
    """A plain predicate shrinks a random program and a random history to
    one that re-parses or decodes, still fails, is no larger than the
    input, and shrinks no further."""
    rng = random.Random(4)
    programs = (random_program(rng) for _ in range(100))
    src = next(s for s in programs if _size(parse(s))[2] > 6
               and _three_instructions_in_two_sessions(parse(s)))
    shrunk = shrink_failing_program(src, _three_instructions_in_two_sessions)
    prog = parse(shrunk)
    assert format_program(prog) == shrunk
    assert _three_instructions_in_two_sessions(prog)
    before = _size(parse(src))
    assert all(a <= b for a, b in zip(_size(prog), before)) and _size(prog) != before
    assert shrink_failing_program(shrunk, _three_instructions_in_two_sessions) == shrunk

    histories = (random_history(rng, max_txns=7) for _ in range(100))
    h = next(x for x in histories if len(x.wr) > 3)
    small = shrink_failing_history(h, _two_wr_edges)
    assert canonical_decode(canonical_encode(small)) == small
    assert _two_wr_edges(small)
    assert len(small.logs) <= len(h.logs)
    assert sum(len(log.events) for log in small.logs) < sum(len(log.events) for log in h.logs)
    assert shrink_failing_history(small, _two_wr_edges) == small


def _txn(tid: TxnId, *body) -> TransactionLog:
    """``tid``'s log: begin, then each (kind, var, value) of ``body``."""
    events = [begin_event(tid)]
    for kind, *args in body:
        events.append({"r": read_event, "w": write_event, "c": commit_event}[kind](
            tid, len(events), *args))
    return TransactionLog(tid, tuple(events))


def test_a_history_reduction_drops_an_unobserved_transaction_mid_session():
    """Dropping a transaction that no read observes moves its session's
    later transactions down one index, with their events' ids and the wr
    edges that name them as reader or writer."""
    t00, t01, t02, t10 = TxnId(0, 0), TxnId(0, 1), TxnId(0, 2), TxnId(1, 0)
    h = History(
        (init_log("x", "y"), _txn(t00, ("w", "y", 1), ("c",)),
         _txn(t01, ("w", "x", 2), ("c",)), _txn(t02, ("r", "x")),
         _txn(t10, ("r", "x"), ("w", "x", 3), ("c",))),
        ((EventId(t02, 1), t10), (EventId(t10, 1), t01)),
    )
    expected = History(
        (init_log("x", "y"), _txn(t00, ("w", "x", 2), ("c",)), _txn(t01, ("r", "x")),
         _txn(t10, ("r", "x"), ("w", "x", 3), ("c",))),
        ((EventId(t01, 1), t10), (EventId(t10, 1), t00)),
    )
    assert _without_txn(h, t00) == expected
    assert expected in list(_history_reductions(h))


def test_shrinkers_skip_a_candidate_the_check_raises_on():
    """A candidate on which the check raises is skipped, never kept: a
    check that raises on one-session programs, or on histories of fewer
    than two transactions beside init, never yields one.  Ctrl-C in the
    check still stops the shrink."""
    def two_sessions(p):
        if len(p.sessions) < 2:
            raise ValueError("one session")
        return True

    src = "session a { txn { write(x, 1); } }\nsession b { txn { write(x, 5); } }\n"
    assert len(parse(shrink_failing_program(src, two_sessions)).sessions) == 2

    def two_txns(h):
        if len(h.logs) < 3:
            raise RuntimeError("fewer than two transactions")
        return True

    rng = random.Random(4)
    h = next(x for x in (random_history(rng) for _ in range(100)) if len(x.logs) > 4)
    assert len(shrink_failing_history(h, two_txns).logs) == 3

    def interrupted(_):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        shrink_failing_program(src, interrupted)


def test_verify_reports_a_planted_axioms_fault_as_a_shrunk_history(capsys, monkeypatch):
    """With a brute-force oracle that disagrees at RA on every history of
    two or more wr edges, ``verify`` exits 1 and prints a history that
    decodes and still disagrees.  The shrink keeps no transaction it could
    still drop, one with session successors included, so no begin-only
    transaction is left, and no log ends in a write that an earlier write of
    the same variable in that log shadows."""
    real = cli.brute_force_consistency

    def planted(h, level):
        verdict = real(h, level)
        return not verdict if level is IsolationLevel.RA and len(h.wr) >= 2 else verdict

    monkeypatch.setattr(cli, "brute_force_consistency", planted)
    assert main(["verify", "--suite", "axioms", "--cases", "25", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    head, text = out.split("\n", 1)
    assert head == "axioms: FAILED"
    message, encoded = text.split("\n", 1)
    assert message == "consistency checker disagrees with brute force at ra on:"
    bad = canonical_decode(encoded.strip().encode())

    def disagrees(h):
        return check_consistency(h, IsolationLevel.RA) != planted(h, IsolationLevel.RA)

    assert disagrees(bad)
    observed = {w for _, w in bad.wr}
    unread = [log.id for log in bad.logs if log.id != INIT_TXN and log.id not in observed]
    assert not any(disagrees(_without_txn(bad, t)) for t in unread)
    assert all(len(log.events) > 1 for log in bad.logs)
    for log in bad.logs:
        *head, last = log.events
        assert last.kind != WRITE or all(e.kind != WRITE or e.var != last.var for e in head), log


def test_verify_reports_a_planted_optimality_fault_as_a_shrunk_program(capsys, monkeypatch):
    """With an ``explore_ce`` that emits each history twice on programs of
    two or more sessions, ``verify`` exits 1 and prints a program that
    parses and still emits a duplicate."""
    real = cli.explore_ce

    def doubled(prog, level, *, emit=None, **kwargs):
        if emit is not None and len(prog.sessions) >= 2:
            once = emit

            def emit(st):
                once(st)
                once(st)

        return real(prog, level, emit=emit, **kwargs)

    monkeypatch.setattr(cli, "explore_ce", doubled)
    assert main(["verify", "--suite", "optimality", "--cases", "2", "--seed", "1"]) == 1
    out = capsys.readouterr().out
    head, message, text = out.split("\n", 2)
    assert (head, message) == ("optimality: FAILED", "duplicate emission for:")
    assert cli._duplicated(parse(text), IsolationLevel.CC)


def _accept_every_read(h, level, r, t) -> bool:
    """A gate fault: the swap gate's second clause accepts every read."""
    return True


def test_run_oracle_check_reports_a_planted_gate_fault(program_file, capsys, monkeypatch):
    """With a gate whose second clause accepts every read, the walk takes a
    swap off the canonical route on ``racing_reads``, and ``--oracle-check``
    exits 1: the entered state's predecessor is not the parent it was
    entered from.  The other examples still pass."""
    monkeypatch.setattr(explorer, "reads_causally_latest", _accept_every_read)
    for name in sorted(EXAMPLE_PROGRAMS):
        code = main(["run", program_file(name), "--oracle-check"])
        err = capsys.readouterr().err
        if name == "racing_reads":
            assert code == 1
            assert err.startswith("oracle check failed: predecessor mismatch at b'{"), err
        else:
            assert (name, code, err) == (name, 0, "")


def test_verify_reports_a_planted_gate_fault_as_a_shrunk_program(capsys, monkeypatch):
    """With the same gate fault, ``verify --suite oracles`` exits 1 and
    prints a program of three sessions that parses and still fails the
    oracles."""
    monkeypatch.setattr(explorer, "reads_causally_latest", _accept_every_read)
    assert main(["verify", "--suite", "oracles", "--cases", "25"]) == 1
    head, message, text = capsys.readouterr().out.split("\n", 2)
    assert (head, message) == ("oracles: FAILED", "oracle violation for:")
    prog = parse(text)
    assert len(prog.sessions) == 3
    assert cli._violates_oracles(prog, IsolationLevel.CC)


# ---------------------------------------------------------------------------
# Environment and entry points
# ---------------------------------------------------------------------------


def test_log_environment_variable_is_validated(program_file, capsys, monkeypatch):
    monkeypatch.setenv("TXNDPOR_LOG", "noisy")
    code = main(["run", program_file("pair_reader")])
    assert code == 1
    assert "TXNDPOR_LOG must be off, info or trace" in capsys.readouterr().err


def test_log_environment_variable_accepts_info(program_file, capsys, monkeypatch):
    monkeypatch.setenv("TXNDPOR_LOG", "info")
    assert main(["run", program_file("pair_reader")]) == 0


def test_log_environment_variable_accepts_trace(program_file, capsys, monkeypatch):
    monkeypatch.setenv("TXNDPOR_LOG", "trace")
    assert main(["run", program_file("pair_reader")]) == 0


def test_no_command_is_a_usage_error_and_help_is_not(capsys):
    """``txndpor`` alone exits 1 with the usage on stderr; ``--help`` exits 0
    with it on stdout."""
    assert main([]) == 1
    assert capsys.readouterr().err.startswith("error: Usage:")
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Usage:") and "verify" in out


def test_module_entry_point(tmp_path):
    path = tmp_path / "p.txn"
    path.write_text(EXAMPLE_PROGRAMS["pair_reader"])
    proc = _run_module("run", str(path))
    assert proc.returncode == 0
    assert "distinct histories: 2" in proc.stdout
