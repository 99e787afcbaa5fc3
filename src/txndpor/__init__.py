"""Stateless enumeration of transactional histories under weak isolation.

The package explores every history a bounded transactional program can
produce under a chosen isolation level, reaching each one exactly once via
priority-ordered scheduling plus gated read swaps, and ships the naive
baseline and brute-force consistency oracle used to validate it.
"""

from .explorer import (
    ReorderCandidate,
    RunInterrupted,
    RunStats,
    TimeLimitExceeded,
    causal_extension_exists,
    compute_reorderings,
    dfs,
    explore_ce,
    explore_ce_star,
    next_event,
    optimality,
    reads_causally_latest,
    swap,
    swapped,
    valid_writes,
)
from .isolation import (
    AxiomInstance,
    CommitOrder,
    brute_force_consistency,
    check_consistency,
    forced_edges,
)
from .model import (
    Event,
    EventId,
    History,
    IsolationLevel,
    OrderedHistory,
    TransactionLog,
    TxnId,
    canonical_decode,
    canonical_encode,
    causal_reachable,
    drop_events,
)
from .oracles import canonical_order, is_or_respectful, prev
from .program import (
    ExplorationState,
    LocalState,
    ParseError,
    Program,
    apply_event,
    assertions,
    parse,
    replay,
    step_local,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomInstance",
    "CommitOrder",
    "Event",
    "EventId",
    "ExplorationState",
    "History",
    "IsolationLevel",
    "LocalState",
    "OrderedHistory",
    "ParseError",
    "Program",
    "ReorderCandidate",
    "RunInterrupted",
    "RunStats",
    "TimeLimitExceeded",
    "TransactionLog",
    "TxnId",
    "apply_event",
    "assertions",
    "brute_force_consistency",
    "canonical_decode",
    "canonical_encode",
    "canonical_order",
    "causal_extension_exists",
    "causal_reachable",
    "check_consistency",
    "compute_reorderings",
    "dfs",
    "drop_events",
    "explore_ce",
    "explore_ce_star",
    "forced_edges",
    "is_or_respectful",
    "next_event",
    "optimality",
    "parse",
    "prev",
    "reads_causally_latest",
    "replay",
    "step_local",
    "swap",
    "swapped",
    "valid_writes",
]
