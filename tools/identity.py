"""Record what a checkout's runs count and emit, or compare it with a record.

A change that leaves the search tree alone leaves every run counter and
every emitted history as it was.  This script gathers, from the checkout it
sits in:

- every program of the ``ce-cc``, ``ce-rc`` and ``dfs-ser`` benchmark
  workloads at seeds 1, 2 and 7 (``bench/workload.py``, read only): the run
  counters but ``wall_time``, the raw emissions, and sha256 digests of the
  distinct and of the assert-violating histories;
- each example program through ``txndpor run --emit`` at ``--level cc``,
  ``--level rc``, ``--level ra``, ``--level true``, ``--mode dfs --level
  ser`` and ``--mode explore-ce-star --weak-level cc --level ser``: the
  sha256 of the emitted bytes and the printed report but its wall time;
- each example program through ``explore_ce`` at TRUE, RC, RA and CC,
  ``dfs`` at every level, and ``explore_ce_star`` from TRUE to CC and from
  CC to SI and to SER: the counters and the sha256 of the emissions in the
  order they came.

Run from anywhere::

    python3 tools/identity.py --record FILE    # write the record as JSON
    python3 tools/identity.py --against FILE   # compare with a record

``--against`` prints the first difference and exits 1 when there is one,
else prints how many entries matched.  To hold a change to its parent,
record in a copy of the parent (with this file copied in) and compare in
the change.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workload  # noqa: E402  (puts this checkout's src first on the path)
from txndpor import cli, examples, explorer, model, program  # noqa: E402
from txndpor.model import IsolationLevel  # noqa: E402

SEEDS = (1, 2, 7)
CE_LEVELS = (IsolationLevel.TRUE, IsolationLevel.RC, IsolationLevel.RA, IsolationLevel.CC)
STAR_LEVELS = (
    (IsolationLevel.TRUE, IsolationLevel.CC),
    (IsolationLevel.CC, IsolationLevel.SI),
    (IsolationLevel.CC, IsolationLevel.SER),
)
CLI_RUNS = {
    "cc": ["--level", "cc"],
    "rc": ["--level", "rc"],
    "ra": ["--level", "ra"],
    "true": ["--level", "true"],
    "dfs-ser": ["--mode", "dfs", "--level", "ser"],
    "star-cc-ser": ["--mode", "explore-ce-star", "--weak-level", "cc", "--level", "ser"],
}


def _workloads() -> dict:
    """Workload, seed and program -> the program's fingerprint."""
    out = {}
    for name in workload.WORKLOADS:
        for seed in SEEDS:
            for bp in workload.load_programs(name, seed):
                got = workload.enumerate_program(name, bp.program)
                out[f"{name}/{seed}/{bp.name}"] = dict(
                    got.fingerprint(), violating_sha256=workload.digest(got.violating)
                )
    return out


def _cli_runs(tmp: Path) -> dict:
    """Example and run -> the sha256 of its ``--emit`` file and its report."""
    out = {}
    for name, source in sorted(examples.EXAMPLE_PROGRAMS.items()):
        path = tmp / f"{name}.txn"
        path.write_text(source)
        for run, options in CLI_RUNS.items():
            emitted = tmp / "emitted.jsonl"
            report = io.StringIO()
            with contextlib.redirect_stdout(report):
                code = cli.main(["run", str(path), "--emit", str(emitted), *options])
            lines = [line for line in report.getvalue().splitlines()
                     if not line.startswith("wall time:")]
            out[f"{name}/{run}"] = {
                "exit": code,
                "emit_sha256": hashlib.sha256(emitted.read_bytes()).hexdigest(),
                "report": lines,
            }
    return out


def _api_run(walk, *args) -> dict:
    """The counters of one run but ``wall_time``, and the sha256 of its
    emissions' encodings in the order they came."""
    h = hashlib.sha256()

    def emit(st: program.ExplorationState) -> None:
        h.update(model.canonical_encode(st.history.history) + b"\n")

    stats = walk(*args, emit=emit).as_dict()
    del stats["wall_time"]
    return dict(stats, emissions_sha256=h.hexdigest())


def _api_runs() -> dict:
    """Example and walk -> :func:`_api_run`'s entry."""
    out = {}
    for name, source in sorted(examples.EXAMPLE_PROGRAMS.items()):
        prog = program.parse(source)
        for level in CE_LEVELS:
            out[f"{name}/explore_ce/{level.value}"] = _api_run(explorer.explore_ce, prog, level)
        for level in IsolationLevel:
            out[f"{name}/dfs/{level.value}"] = _api_run(explorer.dfs, prog, level)
        for weak, strong in STAR_LEVELS:
            out[f"{name}/explore_ce_star/{weak.value}-{strong.value}"] = _api_run(
                explorer.explore_ce_star, prog, weak, strong
            )
    return out


def record() -> dict:
    """This checkout's record: one section per kind of run."""
    with tempfile.TemporaryDirectory() as tmp:
        cli_runs = _cli_runs(Path(tmp))
    return {"workloads": _workloads(), "cli": cli_runs, "api": _api_runs()}


def _flat(value, path: str = ""):
    """The (path, leaf) pairs of a record, in its order."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _flat(item, f"{path}/{key}" if path else key)
    else:
        yield path, value


def first_difference(expected: dict, got: dict) -> str | None:
    """The first entry where ``got`` differs from ``expected``, or None."""
    want, have = dict(_flat(expected)), dict(_flat(got))
    for path in [*want, *(p for p in have if p not in want)]:
        if path not in have:
            return f"{path}: recorded {want[path]!r}, missing now"
        if path not in want:
            return f"{path}: not recorded, now {have[path]!r}"
        if want[path] != have[path]:
            return f"{path}: recorded {want[path]!r}, now {have[path]!r}"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--record", metavar="FILE", help="write this checkout's record")
    action.add_argument("--against", metavar="FILE", help="compare with a record")
    args = parser.parse_args(argv)
    if args.record:
        Path(args.record).write_text(json.dumps(record(), indent=1) + "\n")
        return 0
    expected = json.loads(Path(args.against).read_text())
    got = record()
    difference = first_difference(expected, got)
    if difference is not None:
        print(f"differs: {difference}")
        return 1
    print(f"identical: {sum(1 for _ in _flat(got))} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
