"""One measurement in a fresh interpreter; started by ``bench.py``.

    python3 bench/worker.py setup --workload W --seed N
    python3 bench/worker.py run   --workload W --seed N --seconds S
    python3 bench/worker.py trace --workload W --seed N --seconds S --spans FILE

``setup`` times importing the package, parsing the workload's programs and
loading its expected fingerprints.  ``run`` makes one untimed warm-up pass,
then measures passes for ``--seconds``.  Both also time the calibration
kernel in the same process (see :func:`calibration_kernel`).  ``trace``
splits the time between untraced and traced passes, ends with a tracemalloc
pass, and writes the first traced pass's spans to FILE.  Each prints one
JSON object as its last line.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

import workload  # noqa: E402

MIN_PASSES = 3
MAX_REPORTED_PROBLEMS = 20
CALIBRATION_SAMPLES = 6  # kernel runs between timed passes


class Checker:
    """Counts enumerations attempted and failed.

    Each fingerprint must pass :func:`workload.problems` (frozen fingerprints
    for fixed programs, invariants for all) and must equal the program's
    fingerprint from the run's first pass, which is always untraced: the
    search is deterministic, so a pass that differs, traced or not, fails.
    """

    def __init__(self, wl: str, programs: list[workload.BenchProgram]) -> None:
        self.wl = wl
        self.programs = programs
        self.expected = workload.load_expected(wl)
        self.first: dict[str, dict | None] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, results: list) -> None:
        for bp, res in zip(self.programs, results):
            self.attempted += 1
            if isinstance(res, Exception):
                fp = None
                found = [f"{bp.name}: raised {res!r}"]
            else:
                fp = res.fingerprint()
                found = workload.problems(self.wl, bp, fp, self.expected.get(bp.name))
            if fp != self.first.setdefault(bp.name, fp):
                found.append(f"{bp.name}: fingerprint differs from the first pass's")
            if found:
                self.failed += 1
                self.problems.extend(found[: MAX_REPORTED_PROBLEMS - len(self.problems)])


@dataclass(frozen=True)
class _Node:
    key: tuple
    members: frozenset


def calibration_kernel() -> int:
    """Fixed pure-Python work of the library's kind, about 15 ms a call.

    Small tuples, frozen dataclasses, frozensets, dicts and sorting.  The
    host is shared, and how fast it runs Python drifts by half and more
    within seconds to minutes, so pass times are reported relative to this
    kernel timed right before and right after each pass (see ``bench.py``).
    The kernel is the benchmark's own code: no change to the library changes
    its cost.  Of the kernels tried (this one, random lookups in a table far
    larger than the CPU caches, and an integer loop), all followed the drift
    when paired with each pass, and this one most closely.
    """
    kept = []
    acc = 0
    for i in range(2000):
        key = tuple((i + k) % 97 for k in range(12))
        node = _Node(key, frozenset(key))
        succ = {a: b for a, b in zip(key, key[1:])}
        acc += len(sorted(node.members)) + len(succ)
        kept.append(node)
        if len(kept) > 500:
            kept.clear()
    return acc


def calibrate() -> list[float]:
    out = []
    for _ in range(CALIBRATION_SAMPLES):
        t0 = time.perf_counter()
        calibration_kernel()
        out.append(time.perf_counter() - t0)
    return out


def run_pass(wl: str, programs: list[workload.BenchProgram]) -> tuple[float, list]:
    """Enumerate every program once; return the wall time and the results.

    An enumeration that raises is recorded as its exception; the pass goes on.
    """
    gc.collect()
    results: list = []
    t0 = time.perf_counter()
    for bp in programs:
        try:
            results.append(workload.enumerate_program(wl, bp.program))
        except Exception as exc:  # a raising enumeration is a counted failure
            results.append(exc)
    return time.perf_counter() - t0, results


def totals(results: list) -> dict[str, int]:
    ok = [r for r in results if not isinstance(r, Exception)]
    return {
        "histories": sum(len(r.seen) for r in ok),
        "nodes": sum(r.stats.recursive_calls for r in ok),
        "swaps_taken": sum(r.stats.swaps_taken for r in ok),
    }


def timed_passes(wl, programs, checker, seconds, make_pass=run_pass) -> list[dict]:
    """Checked passes for about ``seconds``, at least MIN_PASSES.

    No pass starts that would likely end more than half a pass after the
    deadline.  Calibration samples run between passes.  Each pass is
    returned with the median kernel time of the samples right before and
    right after it, so that both describe the host at the same moment.
    """
    passes = []
    before = calibrate()
    deadline = time.perf_counter() + seconds
    elapsed = 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() + elapsed / 2 < deadline:
        elapsed, results = make_pass(wl, programs)
        after = calibrate()
        checker.check(results)
        passes.append({"wall_s": elapsed, "kernel_s": median(before + after)})
        before = after
    return passes


def tracemalloc_peak_kb(wl: str, programs: list[workload.BenchProgram]) -> float:
    """Largest traced-memory rise over one enumeration, emissions not retained.

    The emit callback keeps nothing, so the figure is the search state the
    explorer holds (plus transients), which the paper bounds by the depth.
    """
    mode, level, _ = workload.WORKLOADS[wl]
    run = workload.explorer.explore_ce if mode == "explore_ce" else workload.explorer.dfs
    peak = 0
    tracemalloc.start()
    try:
        for bp in programs:
            gc.collect()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run(bp.program, level, emit=lambda st: None)
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 1024


def relative_median(passes: list[dict]) -> float:
    """Median pass time in units of the kernel time paired with each pass."""
    return median(p["wall_s"] / p["kernel_s"] for p in passes)


def first_pass(wl: str, seed: int):
    """Load the workload and make the untimed warm-up pass."""
    programs = workload.load_programs(wl, seed)
    checker = Checker(wl, programs)
    _, results = run_pass(wl, programs)
    checker.check(results)
    return programs, checker, totals(results)


def do_run(wl: str, seed: int, seconds: float) -> dict:
    programs, checker, counts = first_pass(wl, seed)
    # Every pass does the same work, so the peak after the first pass is the
    # workload's; later passes only add the previous pass's results.
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    passes = timed_passes(wl, programs, checker, seconds)
    return dict(
        counts,
        passes=passes,
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems,
        programs=len(programs),
        peak_rss_kb=peak_rss_kb,
    )


def do_trace(wl: str, seed: int, seconds: float, spans_path: Path) -> dict:
    """Half the time untraced, half traced; per-layer medians over traced passes."""
    import tracing

    programs, checker, counts = first_pass(wl, seed)
    plain = timed_passes(wl, programs, checker, seconds / 2)
    per_pass: list[dict[str, float]] = []
    kept: list[tracing.Tracer] = []
    trace_problems: set[str] = set()

    def traced_pass(wl, programs):
        tracer = tracing.Tracer(wl)
        with tracer.installed():
            elapsed, results = run_pass(wl, programs)
        per_pass.append(tracer.metrics(counts["nodes"], counts["swaps_taken"]))
        trace_problems.update(
            f"check_consistency span outside the report: {name}"
            for name in tracer.unreported_checks()
        )
        if not kept:
            kept.append(tracer)  # the spans written out are the first traced pass's
        return elapsed, results

    traced = timed_passes(wl, programs, checker, seconds / 2, traced_pass)
    metrics = tracing.median_metrics(per_pass)
    metrics["explorer.tracemalloc_peak_kb"] = tracemalloc_peak_kb(wl, programs)
    metrics["trace.overhead_ratio"] = relative_median(traced) / relative_median(plain)
    kept[0].write_spans(spans_path, {"workload": wl, "seed": seed, "wall_s": traced[0]["wall_s"]})
    return dict(
        counts,
        metrics=metrics,
        attempted=checker.attempted,
        failed=checker.failed,
        problems=checker.problems + sorted(trace_problems),
        programs=len(programs),
        plain=plain,
        traced=traced,
        spans=len(kept[0].span_start),
    )


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("action", choices=["setup", "run", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args()
    if args.action == "setup":
        workload.load_programs(args.workload, args.seed)
        workload.load_expected(args.workload)
        out = {"wall_s": time.perf_counter() - _T0, "kernel_s": median(calibrate())}
    elif args.action == "run":
        out = do_run(args.workload, args.seed, args.seconds)
    else:
        out = do_trace(args.workload, args.seed, args.seconds, args.spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
