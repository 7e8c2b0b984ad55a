"""Independent brute-force references for testing the fast paths.

Everything here deliberately avoids the incremental closure and the
guard-set machinery: feasibility is decided by searching the selected
benefit edges for a simple path between competitors, and per-step
optimality by enumerating candidate subsets. Size guards are hard
errors; a partial oracle is worse than none.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import numpy as np

from .graphs import Instance, UsageGraph
from .selection import candidate_collaborators, select_step

PATH_ENUM_MAX_NODES = 12
SUBSET_ENUM_MAX_CANDIDATES = 20


class OracleSizeError(ValueError):
    """Instance too large for exhaustive enumeration."""


@dataclass(frozen=True)
class OracleVerdict:
    """Exhaustive per-step optimum alongside the greedy outcome."""

    feasible: bool
    optimal_value: float
    optimal_set: tuple[int, ...]
    greedy_value: float
    greedy_set: tuple[int, ...]

    @property
    def gap_ratio(self) -> float:
        if self.optimal_value == 0.0:
            return 1.0
        return self.greedy_value / self.optimal_value


def simple_paths(adjacency: np.ndarray, source: int, target: int) -> Iterator[tuple[int, ...]]:
    """Yield all simple paths source -> target over a boolean adjacency."""
    n = adjacency.shape[0]
    succ = [np.flatnonzero(adjacency[u]).tolist() for u in range(n)]
    path = [source]
    on_path = [False] * n
    on_path[source] = True

    def walk(u: int) -> Iterator[tuple[int, ...]]:
        for v in succ[u]:
            if v == target:
                yield tuple(path) + (target,)
            elif not on_path[v]:
                path.append(v)
                on_path[v] = True
                yield from walk(v)
                path.pop()
                on_path[v] = False

    if source != target:
        yield from walk(source)


def _paths_feasible(instance: Instance, x: np.ndarray) -> bool:
    """Check conflict freedom from the decision matrix alone.

    No competing pair may be joined, in either direction, by a simple
    benefit-graph path whose edges are all selected, so the search runs on
    the selected benefit edges and stops at the first path it finds. Walks
    need not be considered: any reachability witness contains a simple
    path.
    """
    adj = (instance.benefit > 0.0) & x
    pairs = np.transpose(np.nonzero(instance.competing))
    # competing is symmetric: covers both directions
    return not any(next(simple_paths(adj, j, i), None) for j, i in pairs.tolist())


def conflict_free_by_paths(instance: Instance, usage: UsageGraph) -> bool:
    """Path-enumeration twin of graphs.conflict_free; ignores the closure."""
    if instance.n > PATH_ENUM_MAX_NODES:
        raise OracleSizeError(
            f"path enumeration is limited to n <= {PATH_ENUM_MAX_NODES}, got n={instance.n}")
    return _paths_feasible(instance, usage.x)


def optimal_step(instance: Instance, usage: UsageGraph, i: int) -> OracleVerdict:
    """Exhaustive optimum for one participant's selection step.

    Enumerates every subset of i's candidates, keeps the feasible ones
    (by path enumeration on the hypothetical decision matrix), and
    returns the maximum-benefit subset next to what the greedy step
    achieves from the same starting state. Value ties go to the subset
    found first (smallest size, then candidate-priority order). The
    reported ``feasible`` is the path-checked verdict on the greedy
    outcome.
    """
    if instance.n > PATH_ENUM_MAX_NODES:
        raise OracleSizeError(
            f"path enumeration is limited to n <= {PATH_ENUM_MAX_NODES}, got n={instance.n}")
    cands = candidate_collaborators(instance, i)
    if len(cands) > SUBSET_ENUM_MAX_CANDIDATES:
        raise OracleSizeError(
            f"subset enumeration is limited to {SUBSET_ENUM_MAX_CANDIDATES} candidates, "
            f"got {len(cands)}")
    if not _paths_feasible(instance, usage.x):
        raise ValueError("prior usage graph is not conflict-free")
    w = instance.benefit[:, i]
    prior = tuple(j for j in cands if usage.x[j, i])
    prior_value = float(sum(w[j] for j in prior))
    missing = [j for j in cands if not usage.x[j, i]]

    best_value = prior_value
    best_set: tuple[int, ...] = prior
    for size in range(len(missing) + 1):
        for subset in combinations(missing, size):
            x = usage.x.copy()
            for j in subset:
                x[j, i] = True
            if not _paths_feasible(instance, x):
                continue
            value = prior_value + float(sum(w[j] for j in subset))
            if value > best_value:
                best_value = value
                best_set = tuple(sorted(prior + subset))

    greedy_usage = usage.copy()
    step = select_step(instance, greedy_usage, i)
    return OracleVerdict(
        feasible=_paths_feasible(instance, greedy_usage.x),
        optimal_value=best_value,
        optimal_set=best_set,
        greedy_value=step.objective,
        greedy_set=step.accepted,
    )


def optimal_step_by_full_matrices(instance: Instance, usage: UsageGraph, i: int,
                                  max_free_edges: int = 18) -> float:
    """Second exhaustive reference: enumerate whole decision matrices.

    Maximizes the step-i objective over every feasible matrix that
    contains the current edges and stays inside the benefit graph, not
    just over column-i extensions. Agrees with :func:`optimal_step`
    because extra off-column edges never raise the column objective and
    removing them never breaks feasibility.
    """
    adj = instance.benefit > 0.0
    free = [(int(j), int(k)) for j, k in np.transpose(np.nonzero(adj & ~usage.x)).tolist()]
    if len(free) > max_free_edges:
        raise OracleSizeError(f"full-matrix enumeration is limited to {max_free_edges} "
                              f"free edges, got {len(free)}")
    w = instance.benefit[:, i]
    prior_value = float(sum(w[j] for j in candidate_collaborators(instance, i)
                            if usage.x[j, i]))
    best = prior_value if _paths_feasible(instance, usage.x) else 0.0
    for size in range(len(free) + 1):
        for chosen in combinations(free, size):
            x = usage.x.copy()
            for j, k in chosen:
                x[j, k] = True
            if _paths_feasible(instance, x):
                value = prior_value + float(sum(w[j] for j, k in chosen if k == i))
                best = max(best, value)
    return best
