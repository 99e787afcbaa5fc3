"""Outside-in tracing of one pass: spans around calls into the library.

The library is not edited.  :meth:`Tracer.installed` replaces module and
class attributes with timing wrappers and restores every one of them on
exit.  ``explorer`` binds its imports by name, so the names are wrapped in
``explorer``'s namespace; ``replay`` looks ``apply_event`` up in
``program``'s namespace, so that binding is wrapped too.  ``History`` and
``OrderedHistory`` validate in ``__post_init__``, which the generated
``__init__`` looks up on the class at every construction; whatever is
installed there (``model`` already installs its own wrapper for memory
accounting) is what gets wrapped.

Each span records its name, start, end and parent span, in memory; a
layer's self time is its spans' duration minus the time covered by their
child spans.  Counts are kept at the same boundaries so that ratios are
measured where the work happens.
"""

from __future__ import annotations

import gzip
import json
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter_ns
from typing import Callable, Iterator

import workload
from txndpor import explorer, model, program

ROOT_SPAN = "bench.enumerate"

# Explorer functions reported by name, as explorer.<name>.{calls,self_s}.
EXPLORER_FUNCS = (
    "next_event",
    "valid_writes",
    "compute_reorderings",
    "optimality",
    "swapped",
    "reads_causally_latest",
    "swap",
)

# check_consistency's caller, from the nearest enclosing span.  Calls made
# straight from the _explore/dfs closures have the root span as parent; they
# are the per-entry recheck (traversal level), the star filter (emission
# level), or dfs's gate on every extension.
_CALLER_BY_PARENT = {
    "explorer.valid_writes": "valid_writes",
    "explorer.optimality": "gate",
    "explorer.reads_causally_latest": "gate",
}

# The (level, caller) pairs reported as metrics: every pair some workload
# reaches, so that each workload shows zeros for the others.
CHECK_PAIRS = (
    ("cc", "entry_recheck"),
    ("cc", "valid_writes"),
    ("cc", "gate"),
    ("rc", "entry_recheck"),
    ("rc", "valid_writes"),
    ("rc", "gate"),
    ("ser", "dfs"),
)

CHECK_PREFIX = "isolation.check_consistency."


# (namespace, attribute, span name) of every wrapped binding except
# check_consistency, whose span name depends on its level and caller.
TARGETS = [(explorer, fn, f"explorer.{fn}") for fn in EXPLORER_FUNCS] + [
    (explorer, "apply_event", "program.apply_event"),
    (program, "apply_event", "program.apply_event"),
    (explorer, "replay", "program.replay"),
    (program, "assertions", "program.assertions"),
    (explorer, "drop_events", "model.drop_events"),
    (model, "canonical_encode", "model.canonical_encode"),
    (model.History, "__post_init__", "model.History.init"),
    (model.OrderedHistory, "__post_init__", "model.OrderedHistory.init"),
    (model.OrderedHistory, "append", "model.OrderedHistory.append"),
    (workload, "enumerate_program", ROOT_SPAN),
]

# How a span's return value adds to its outcome count.
_OUTCOME_COUNTS = {
    "explorer.valid_writes": len,
    "explorer.compute_reorderings": len,
    "explorer.optimality": bool,
}


class Tracer:
    """Spans and per-name aggregates of one traced pass."""

    def __init__(self, wl: str) -> None:
        self.mode, self.level, _ = workload.WORKLOADS[wl]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: list[list] = []  # [span index, name, child ns]
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.outcomes: Counter[str] = Counter()
        self.by_parent: Counter[tuple[str, str]] = Counter()

    # -- recording ----------------------------------------------------------

    def _call(self, name: str, fn: Callable, args: tuple, kwargs: dict, count):
        stack = self._stack
        parent = stack[-1] if stack else None
        idx = len(self.span_start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.span_name.append(name_id)
        self.span_parent.append(parent[0] if parent is not None else -1)
        frame = [idx, name, 0]
        stack.append(frame)
        t0 = perf_counter_ns()
        self.span_start.append(t0)
        self.span_end.append(0)
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter_ns()
            stack.pop()
            self.span_end[idx] = t1
            dur = t1 - t0
            self.self_ns[name] += dur - frame[2]
            self.calls[name] += 1
            if parent is not None:
                parent[2] += dur
                self.by_parent[(name, parent[1])] += 1
        if count is not None:
            self.outcomes[name] += count(result)
        return result

    def _wrap(self, name: str, fn: Callable, count=None) -> Callable:
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, count)

        return wrapper

    def _wrap_check(self, fn: Callable) -> Callable:
        def wrapper(h, level):
            parent = self._stack[-1][1] if self._stack else ""
            caller = _CALLER_BY_PARENT.get(parent)
            if caller is None:
                if parent != ROOT_SPAN:
                    caller = "other"
                elif self.mode == "dfs":
                    caller = "dfs"
                else:
                    caller = "entry_recheck" if level is self.level else "filter"
            name = f"{CHECK_PREFIX}{level.value}.{caller}"
            return self._call(name, fn, (h, level), {}, bool)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap the traced attributes for the duration of the block."""
        saved = []

        def patch(obj: object, attr: str, make: Callable[[Callable], Callable]) -> None:
            original = vars(obj)[attr]
            saved.append((obj, attr, original))
            setattr(obj, attr, make(original))

        try:
            for obj, attr, name in TARGETS:
                patch(obj, attr, lambda f: self._wrap(name, f, _OUTCOME_COUNTS.get(name)))
            patch(explorer, "check_consistency", self._wrap_check)
            yield self
        finally:
            for obj, attr, original in reversed(saved):
                setattr(obj, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, nodes: int, swaps_taken: int) -> dict[str, float]:
        """Per-layer figures of this pass (self times in seconds).

        ``nodes`` and ``swaps_taken`` are the pass's RunStats totals.
        """
        calls, self_s, outcomes = self.calls, self.self_ns, self.outcomes

        def sec(name: str) -> float:
            return self_s[name] / 1e9

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out: dict[str, float] = {}
        for fn in EXPLORER_FUNCS:
            out[f"explorer.{fn}.calls"] = calls[f"explorer.{fn}"]
            out[f"explorer.{fn}.self_s"] = sec(f"explorer.{fn}")
        checks_in_valid_writes = sum(
            n for (name, parent), n in self.by_parent.items()
            if parent == "explorer.valid_writes" and name.startswith(CHECK_PREFIX)
        )
        out["explorer.valid_writes.accept_ratio"] = ratio(
            outcomes["explorer.valid_writes"], checks_in_valid_writes
        )
        out["explorer.compute_reorderings.candidates"] = outcomes["explorer.compute_reorderings"]
        out["explorer.optimality.accept_ratio"] = ratio(
            outcomes["explorer.optimality"], calls["explorer.optimality"]
        )
        out["explorer.swap.per_taken"] = ratio(calls["explorer.swap"], swaps_taken)
        out["explorer.enter.self_s"] = sec(ROOT_SPAN)

        out["program.apply_event.calls"] = calls["program.apply_event"]
        out["program.apply_event.self_s"] = sec("program.apply_event")
        out["program.replay.calls"] = calls["program.replay"]
        out["program.replay.self_s"] = sec("program.replay")
        out["program.replay.events"] = self.by_parent[("program.apply_event", "program.replay")]
        out["program.assertions.self_s"] = sec("program.assertions")

        out["model.History.init.calls"] = calls["model.History.init"]
        out["model.History.init.self_s"] = sec("model.History.init")
        out["model.History.init.per_node"] = ratio(calls["model.History.init"], nodes)
        out["model.OrderedHistory.init.calls"] = calls["model.OrderedHistory.init"]
        out["model.OrderedHistory.init.self_s"] = sec("model.OrderedHistory.init")
        out["model.OrderedHistory.append.self_s"] = sec("model.OrderedHistory.append")
        out["model.drop_events.self_s"] = sec("model.drop_events")
        out["model.canonical_encode.calls"] = calls["model.canonical_encode"]
        out["model.canonical_encode.self_s"] = sec("model.canonical_encode")

        for level, caller in CHECK_PAIRS:
            name = f"{CHECK_PREFIX}{level}.{caller}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = sec(name)
            out[f"{name}.true_ratio"] = ratio(outcomes[name], calls[name])
        return out

    def unreported_checks(self) -> list[str]:
        """check_consistency span names seen but not among CHECK_PAIRS."""
        known = {f"{CHECK_PREFIX}{level}.{caller}" for level, caller in CHECK_PAIRS}
        return sorted(
            name for name in self.calls if name.startswith(CHECK_PREFIX) and name not in known
        )

    def write_spans(self, path: Path, meta: dict) -> None:
        """Write the spans as gzipped JSON lines: a header, then one span a line.

        Each span line is ``[index, parent index or -1, name, start_ns, end_ns]``.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as f:
            f.write(json.dumps(dict(meta, names=self.names, spans=len(self.span_start))) + "\n")
            names = self.names
            for i in range(len(self.span_start)):
                f.write(
                    f'[{i},{self.span_parent[i]},"{names[self.span_name[i]]}",'
                    f"{self.span_start[i]},{self.span_end[i]}]\n"
                )


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(m[name] for m in per_pass) for name in per_pass[0]}
