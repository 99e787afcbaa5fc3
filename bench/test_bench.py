"""The benchmark's own checks.

    python -m pytest -q bench/test_bench.py

The frozen fingerprints in ``expected.json`` are re-derived from references
independent of the path each workload measures: deduplicated ``dfs`` at the
same level for the ``explore_ce`` workloads, and ``explore_ce_star`` cc->ser
for ``dfs-ser``.  Every distinct history is also checked with the
brute-force consistency oracle, and prog3 must reproduce the baseline
counters of ROADMAP.md.  The tracer must leave counters untouched and
restore everything it patched.
"""

from __future__ import annotations

import pytest

import tracing
import workload
from txndpor import explorer, program
from txndpor.isolation import brute_force_consistency
from txndpor.model import IsolationLevel, canonical_decode, canonical_encode

EXPECTED = {wl: workload.load_expected(wl) for wl in workload.WORKLOADS}
FIXED = [
    (wl, name, src)
    for wl in workload.WORKLOADS
    for name, src in workload.fixed_sources(wl).items()
]


def reference_histories(wl: str, prog: program.Program) -> tuple[set[bytes], set[bytes]]:
    """Distinct encodings, and those violating an assert, from the reference path."""
    mode, level, _ = workload.WORKLOADS[wl]
    seen: set[bytes] = set()
    violating: set[bytes] = set()

    def emit(st: program.ExplorationState) -> None:
        encoded = canonical_encode(st.history.history)
        seen.add(encoded)
        if program.assertions(st):
            violating.add(encoded)

    if mode == "explore_ce":
        explorer.dfs(prog, level, emit=emit)
    else:
        explorer.explore_ce_star(prog, IsolationLevel.CC, level, emit=emit)
    return seen, violating


@pytest.mark.parametrize("wl,name,src", FIXED, ids=[f"{wl}-{name}" for wl, name, _ in FIXED])
def test_fingerprint_matches_independent_reference(wl, name, src):
    prog = program.parse(src)
    expected = EXPECTED[wl][name]
    got = workload.enumerate_program(wl, prog).fingerprint()
    assert got == expected

    seen, violating = reference_histories(wl, prog)
    assert len(seen) == expected["distinct"]
    assert len(violating) == expected["assert_violations"]
    assert workload.digest(seen) == expected["sha256"]

    level = workload.WORKLOADS[wl][1]
    for encoded in seen:
        assert brute_force_consistency(canonical_decode(encoded), level), encoded


@pytest.mark.parametrize(
    "wl,outputs,nodes", [("ce-cc", 250, 1029), ("ce-rc", 2112, 5982)]
)
def test_prog3_reproduces_the_roadmap_baseline(wl, outputs, nodes):
    expected = EXPECTED[wl]["prog3"]
    assert (expected["outputs"], expected["recursive_calls"]) == (outputs, nodes)
    assert expected["filtered_outputs"] == 0


def test_every_fixed_program_has_a_fingerprint():
    for wl in workload.WORKLOADS:
        assert set(EXPECTED[wl]) == set(workload.fixed_sources(wl))


@pytest.mark.parametrize("wl", sorted(workload.WORKLOADS))
def test_tracing_changes_no_counter_and_restores_every_binding(wl):
    programs = [bp for bp in workload.load_programs(wl, seed=3) if bp.name != "prog3"]
    plain = [workload.enumerate_program(wl, bp.program).fingerprint() for bp in programs]
    before = {
        (id(obj), attr): vars(obj)[attr]
        for obj, attr, _ in tracing.TARGETS + [(explorer, "check_consistency", None)]
    }
    tracer = tracing.Tracer(wl)
    with tracer.installed():
        traced = [workload.enumerate_program(wl, bp.program).fingerprint() for bp in programs]
    assert traced == plain
    for obj, attr, _ in tracing.TARGETS + [(explorer, "check_consistency", None)]:
        assert vars(obj)[attr] is before[(id(obj), attr)]
    assert tracer.unreported_checks() == []
    assert len(tracer.span_start) == sum(tracer.calls.values())

    nodes = sum(fp["recursive_calls"] for fp in plain)
    taken = sum(fp["swaps_taken"] for fp in plain)
    m = tracer.metrics(nodes, taken)
    assert m["explorer.next_event.calls"] == (nodes if wl != "dfs-ser" else 0)
    assert m["model.canonical_encode.calls"] == sum(fp["raw"] for fp in plain)
    ser = m["isolation.check_consistency.ser.dfs.calls"]
    weak = sum(
        m[f"isolation.check_consistency.{level}.{caller}.calls"]
        for level in ("cc", "rc")
        for caller in ("entry_recheck", "valid_writes", "gate")
    )
    if wl == "dfs-ser":
        assert ser > 0 and weak == 0
        assert m["explorer.swap.calls"] == m["explorer.optimality.calls"] == 0
    else:
        assert ser == 0 and weak > 0
        level = workload.WORKLOADS[wl][1].value
        assert m[f"isolation.check_consistency.{level}.entry_recheck.calls"] == nodes
        assert m["explorer.optimality.accept_ratio"] * m["explorer.optimality.calls"] == (
            pytest.approx(taken)
        )

