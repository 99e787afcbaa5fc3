"""Regenerate ``expected.json``, the frozen fingerprints of the fixed programs.

    python3 bench/make_expected.py

For every workload and fixed program it records the RunStats counters, the
raw and distinct emission counts, the number of distinct histories that
violate an assert, and a sha256 over the sorted distinct canonical
encodings.  Run it only when a change is meant to alter the search, and say
why in the change: ``test_bench.py`` re-derives every digest from references
independent of the path under test.
"""

from __future__ import annotations

import json

import workload


def main() -> None:
    out = {}
    for wl in workload.WORKLOADS:
        out[wl] = {
            bp.name: workload.enumerate_program(wl, bp.program).fingerprint()
            for bp in workload.load_programs(wl, seed=0)
            if bp.fixed
        }
    workload.EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
