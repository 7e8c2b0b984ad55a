"""Independent brute-force references for testing the fast paths.

Nothing here imports the selection engine or reads the incremental
closure. Feasibility is decided by one depth-first search over the
selected benefit edges from each participant that has a competitor, at
any size, and the per-step optimum by enumerating subsets of a
participant's candidates, which are read straight from the instance.
That enumeration is exponential, so :func:`optimal_step` refuses
n > ``PATH_ENUM_MAX_NODES`` with a hard error; a partial oracle is worse
than none.

The tests check :func:`optimal_step` in turn against the paper's ILP,
``ilp_optimum`` in ``tests/conftest.py``, which has no size guard.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .graphs import Instance, UsageGraph

PATH_ENUM_MAX_NODES = 12


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


def _candidate_list(instance: Instance, i: int) -> list[int]:
    """Nodes that benefit i and do not compete with it, best benefit first,
    ties by ascending index."""
    w = instance.benefit[:, instance.check_node(i)]
    return sorted((j for j in range(instance.n) if w[j] > 0.0 and not instance.competing[j, i]),
                  key=lambda j: (-w[j], j))


def _reached(adj: np.ndarray, source: int) -> np.ndarray:
    """The nodes a path of one or more edges leads to from source over a
    boolean adjacency, as a mask; each node is expanded at most once."""
    seen = np.zeros(adj.shape[0], dtype=bool)
    stack = [source]
    while stack:
        new = adj[stack.pop()] & ~seen
        seen |= new
        stack += np.flatnonzero(new).tolist()
    return seen


def _paths_feasible(instance: Instance, x: np.ndarray) -> bool:
    """Check conflict freedom from the decision matrix alone.

    No competing pair may be joined, in either direction, by a path whose
    edges are all selected benefit edges, so the search runs on those
    edges alone: one search from each participant that has a competitor,
    which must reach none of them (competing is symmetric, so this covers
    both directions).
    """
    adj = (instance.benefit > 0.0) & x
    rivals = instance.competing
    return not any((_reached(adj, j) & rivals[j]).any()
                   for j in np.flatnonzero(rivals.any(axis=1)).tolist())


def conflict_free_by_paths(instance: Instance, usage: UsageGraph) -> bool:
    """Path-search twin of graphs.conflict_free; ignores the closure."""
    return _paths_feasible(instance, usage.x)


def optimal_step(instance: Instance, usage: UsageGraph, i: int) -> tuple[float, tuple[int, ...]]:
    """Exhaustive optimum for one participant's selection step.

    Enumerates every subset of i's candidates that ``usage`` lacks, keeps
    the feasible ones (by path search on the hypothetical decision
    matrix), and returns the most benefit i can receive with the
    candidates that give it, ascending: its prior in-edges plus the best
    subset. Value ties go to the subset found first (smallest size, then
    candidate-priority order).
    """
    if instance.n > PATH_ENUM_MAX_NODES:
        raise OracleSizeError(
            f"subset enumeration is limited to n <= {PATH_ENUM_MAX_NODES}, got n={instance.n}")
    cands = _candidate_list(instance, i)  # at most PATH_ENUM_MAX_NODES - 1
    if not _paths_feasible(instance, usage.x):
        raise ValueError("prior usage graph is not conflict-free")
    w = instance.benefit[:, i]
    prior = tuple(j for j in cands if usage.x[j, i])
    missing = [j for j in cands if not usage.x[j, i]]
    best_value = prior_value = float(sum(w[j] for j in prior))
    best_set = tuple(sorted(prior))
    for size in range(1, len(missing) + 1):
        for subset in combinations(missing, size):
            value = prior_value + float(sum(w[j] for j in subset))
            x = usage.x.copy()
            x[list(subset), i] = True
            if value > best_value and _paths_feasible(instance, x):
                best_value, best_set = value, tuple(sorted(prior + subset))
    return best_value, best_set

