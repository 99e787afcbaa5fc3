"""Workload definitions shared by the benchmark, its tracer and its test.

A workload is one enumeration mode at one isolation level over a set of
programs: the checked-in ``programs/*.txn`` files, the package's
``EXAMPLE_PROGRAMS``, and a few ``generate.random_program`` draws made from
the benchmark seed.  One *pass* enumerates every program of the workload
once, with the same emit callback as ``txndpor run``: each emitted history is
canonically encoded, deduplicated, and checked against the program's asserts.

The package is imported from the ``src`` directory next to this one, never
from an installed copy, so the benchmark always measures the checkout it
sits in.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROGRAMS_DIR = BENCH_DIR / "programs"
EXPECTED_PATH = BENCH_DIR / "expected.json"

if not (SRC / "txndpor" / "__init__.py").is_file():
    raise SystemExit(f"bench: no txndpor sources under {SRC}")
sys.path.insert(0, str(SRC))

import txndpor  # noqa: E402
from txndpor import examples, explorer, generate, model, program  # noqa: E402
from txndpor.model import IsolationLevel  # noqa: E402

if Path(txndpor.__file__).resolve().parent != SRC / "txndpor":
    raise SystemExit(f"bench: imported txndpor from {txndpor.__file__}, not {SRC}")

# Mode, level, and the checked-in programs left out.  dfs at ser takes about
# 14 s over prog3, and over shopping_cart more than half of what all the
# other programs take together; with it a run would hold too few passes for
# a steady median.
WORKLOADS: dict[str, tuple[str, IsolationLevel, frozenset[str]]] = {
    "ce-cc": ("explore_ce", IsolationLevel.CC, frozenset()),
    "ce-rc": ("explore_ce", IsolationLevel.RC, frozenset()),
    "dfs-ser": ("dfs", IsolationLevel.SER, frozenset({"prog3", "shopping_cart"})),
}

# Random draws per seed.  Two sessions at most keeps the cost of a draw small
# and bounded (the slowest of 60 two-session draws took 0.16 s, against
# passes of 1-4 s), so the seed changes the work of a pass by little.
RANDOM_DRAWS = 4
RANDOM_MAX_SESSIONS = 2

# RunStats fields that make up a fingerprint; wall_time is left out.
COUNTERS = (
    "outputs",
    "filtered_outputs",
    "recursive_calls",
    "blocked_calls",
    "inconsistent_branch_entries",
    "swaps_taken",
    "swaps_rejected",
    "max_depth",
)


@dataclass(frozen=True)
class BenchProgram:
    name: str
    program: program.Program
    fixed: bool  # fixed programs are checked against frozen fingerprints


@dataclass
class Enumeration:
    """The outcome of enumerating one program once."""

    stats: explorer.RunStats
    raw: int
    seen: set[bytes]
    violating: set[bytes]

    def fingerprint(self) -> dict:
        """Counters plus a digest of the sorted distinct canonical encodings."""
        out = {name: getattr(self.stats, name) for name in COUNTERS}
        out["raw"] = self.raw
        out["distinct"] = len(self.seen)
        out["assert_violations"] = len(self.violating)
        out["sha256"] = digest(self.seen)
        return out


def digest(encodings: set[bytes]) -> str:
    h = hashlib.sha256()
    for enc in sorted(encodings):
        h.update(enc)
        h.update(b"\n")
    return h.hexdigest()


def fixed_sources(workload: str) -> dict[str, str]:
    """Program name -> source text of the workload's fixed programs."""
    left_out = WORKLOADS[workload][2]
    out = {
        path.stem: path.read_text()
        for path in sorted(PROGRAMS_DIR.glob("*.txn"))
        if path.stem not in left_out
    }
    out.update(examples.EXAMPLE_PROGRAMS)
    return out


def random_sources(seed: int) -> dict[str, str]:
    """The seed's random draws; every workload gets the same ones."""
    rng = random.Random(seed)
    return {
        f"random_{i}": generate.random_program(rng, max_sessions=RANDOM_MAX_SESSIONS)
        for i in range(RANDOM_DRAWS)
    }


def load_programs(workload: str, seed: int) -> list[BenchProgram]:
    fixed = [
        BenchProgram(name, program.parse(src), True)
        for name, src in fixed_sources(workload).items()
    ]
    drawn = [
        BenchProgram(name, program.parse(src), False)
        for name, src in random_sources(seed).items()
    ]
    return fixed + drawn


def load_expected(workload: str) -> dict[str, dict]:
    return json.loads(EXPECTED_PATH.read_text())[workload]


def enumerate_program(workload: str, prog: program.Program) -> Enumeration:
    """Run the workload's enumerator on one program, as ``txndpor run`` would.

    Module attributes are looked up at call time so that the tracer's
    wrappers see the emit path too.
    """
    mode, level, _ = WORKLOADS[workload]
    seen: set[bytes] = set()
    violating: set[bytes] = set()
    raw = 0

    def emit(st: program.ExplorationState) -> None:
        nonlocal raw
        raw += 1
        encoded = model.canonical_encode(st.history.history)
        seen.add(encoded)
        if program.assertions(st):
            violating.add(encoded)

    if mode == "explore_ce":
        stats = explorer.explore_ce(prog, level, emit=emit)
    else:
        stats = explorer.dfs(prog, level, emit=emit)
    return Enumeration(stats, raw, seen, violating)


def problems(workload: str, bp: BenchProgram, got: dict, expected: dict | None) -> list[str]:
    """Why an enumeration's fingerprint counts as failed; empty when it passed.

    Fixed programs must reproduce their frozen fingerprint.  Every program
    must keep the invariants of strong optimality in the explore modes: no
    blocked calls, no inconsistent entries, and no duplicate emissions.  dfs
    at ser legitimately blocks (ser is not causally extensible) and emits
    duplicates, so only the inconsistent-entry invariant applies to it.
    """
    out = []
    if bp.fixed:
        if expected is None:
            out.append(f"{bp.name}: no expected fingerprint")
        elif got != expected:
            diff = {k: (got.get(k), expected.get(k)) for k in expected if got.get(k) != expected.get(k)}
            out.append(f"{bp.name}: fingerprint differs (got, expected): {diff}")
    if got["inconsistent_branch_entries"] != 0:
        out.append(f"{bp.name}: {got['inconsistent_branch_entries']} inconsistent entries")
    if WORKLOADS[workload][0] == "explore_ce":
        if got["blocked_calls"] != 0:
            out.append(f"{bp.name}: {got['blocked_calls']} blocked calls")
        if got["raw"] != got["distinct"]:
            out.append(f"{bp.name}: {got['raw']} emissions but {got['distinct']} distinct")
    return out
