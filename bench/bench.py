"""The repository's benchmark: one workload, one seed, one run.

    python3 bench/bench.py --workload ce-cc --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints the end-to-end metrics (``pass_s``,
``histories_per_s``, ``nodes_per_s``, ``peak_rss_mb``, ``setup_s`` and,
outside the final JSON, ``failed_ratio``); with ``--trace 1`` the per-layer
metrics of a traced run, whose spans it writes under ``bench/results/``.
Every enumeration is checked (see ``workload.problems``).  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 90, "failed": 0, "metrics": {...}}

Set-up is timed in SETUP_SAMPLES fresh interpreters and the passes run in a
fresh child, whose peak RSS is the workload's; each child is waited for.
Times are reported in calibrated seconds: scaled by a fixed kernel's time in
the same process, which follows the shared host's drifting speed.  See
README.md for the workloads, the metrics and the steadiness evidence.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "worker.py"
RESULTS_DIR = BENCH_DIR / "results"
WORKLOADS = ("ce-cc", "ce-rc", "dfs-ser")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

# About the median time of worker.calibration_kernel on a 2-core x86 virtual
# machine running Python 3.11.7.  Timings are reported as wall time over the
# kernel time paired with it, times this: seconds of a host that runs the
# kernel in CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.015


def child(action: str, args: argparse.Namespace, *extra: str) -> dict:
    """Run the worker in a fresh interpreter and parse its last output line."""
    cmd = [sys.executable, str(WORKER), action, "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"bench: {action} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = quantiles(values, n=4)
    return f"q1 {q1:.4f}, q3 {q3:.4f}, n={len(values)}"


def calibrated(samples: list[dict]) -> float:
    """Median of wall time over paired kernel time, in calibrated seconds."""
    return CALIBRATION_REF_S * median(s["wall_s"] / s["kernel_s"] for s in samples)


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    setups = [child("setup", args) for _ in range(SETUP_SAMPLES)]
    run = child("run", args, "--seconds", str(args.seconds))
    pass_s = calibrated(run["passes"])
    metrics = {
        "pass_s": {"value": pass_s, "unit": "s"},
        "histories_per_s": {"value": run["histories"] / pass_s, "unit": "1/s"},
        "nodes_per_s": {"value": run["nodes"] / pass_s, "unit": "1/s"},
        "peak_rss_mb": {"value": run["peak_rss_kb"] / 1024, "unit": "MB"},
        "setup_s": {"value": calibrated(setups), "unit": "s"},
    }
    print(f"{args.workload} seed {args.seed}: {run['programs']} programs, "
          f"{len(run['passes'])} timed passes, {run['histories']} histories, "
          f"{run['nodes']} nodes a pass")
    for name, m in metrics.items():
        print(f"  {name:<16} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':<16} {run['failed'] / run['attempted']:.6g} "
          f"({run['failed']} of {run['attempted']} enumerations)")
    for label, samples in (("pass", run["passes"]), ("setup", setups)):
        walls = [s["wall_s"] for s in samples]
        kernels = [s["kernel_s"] for s in samples]
        print(f"  wall {label} time: median {median(walls):.4f} s, {spread(walls)}; "
              f"kernel median {median(kernels) * 1e3:.2f} ms")
    return run, metrics


def per_layer(args: argparse.Namespace) -> tuple[dict, dict]:
    spans = RESULTS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    run = child("trace", args, "--seconds", str(args.seconds), "--spans", str(spans))
    metrics = {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in sorted(run["metrics"].items())
    }
    print(f"{args.workload} seed {args.seed} traced: {len(run['plain'])} untraced "
          f"and {len(run['traced'])} traced passes, {run['spans']} spans "
          f"written to {spans.relative_to(BENCH_DIR.parent)}")
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:.6g} {m['unit']}")
    return run, metrics


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    return {"self_s": "s", "tracemalloc_peak_kb": "KB", "calls": "count",
            "candidates": "count", "events": "count"}.get(last, "ratio")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    run, metrics = (per_layer if args.trace else end_to_end)(args)
    for problem in run["problems"]:
        print(f"  FAILED: {problem}")
    print(json.dumps({
        "correct": run["failed"] == 0 and not run["problems"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
