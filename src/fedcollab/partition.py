"""Baseline groupings: clique covers of the non-competition graph and
strongly-connected coalitions of the benefit graph inside each clique.

A clique cover of the complement of the competition graph partitions the
participants into mutually independent groups; classic federated schemes
are then run inside each group. A minimum cover is exact for small inputs
(the chromatic number of the competition graph), greedy beyond. Kosaraju's
two searches on each clique's submatrix split that clique into coalitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Instance

EXACT_COVER_MAX_NODES = 16


@dataclass(frozen=True)
class Partition:
    """Disjoint node groups covering 0..n-1, plus a clique cover's mode
    ("exact" or "greedy"); coalitions have none."""

    groups: tuple[tuple[int, ...], ...]
    mode: str | None = None

    def validate_cover(self, instance: Instance) -> None:
        """Raise ValueError unless the groups split 0..n-1 into non-competing
        cliques. A bad or repeated node is named before its group's pairs, read
        as one mask whose first row-major hit is the group's first such pair."""
        seen: set[int] = set()
        for g in self.groups:
            for a in g:
                if not isinstance(a, (int, np.integer)) or not 0 <= a < instance.n:
                    raise ValueError(f"groups do not cover all nodes exactly: node {a} "
                                     f"is not in 0..{instance.n - 1}")
                if a in seen:
                    raise ValueError(f"node {a} appears in two groups")
                seen.add(a)
            g = np.asarray(g, dtype=np.intp)
            pairs = np.argwhere(instance.competing[np.ix_(g, g)] & (g[:, None] < g))
            if pairs.size:
                a, b = g[pairs[0]].tolist()
                raise ValueError(f"competing pair ({a}, {b}) grouped together")
        if seen != set(range(instance.n)):
            raise ValueError("groups do not cover all nodes")


def _canonical_groups(colors: list[int]) -> tuple[tuple[int, ...], ...]:
    by_color: dict[int, list[int]] = {}
    for node, c in enumerate(colors):
        by_color.setdefault(c, []).append(node)
    return tuple(sorted(tuple(g) for g in by_color.values()))  # nodes join in order


def _color_exact(adjacency: np.ndarray) -> list[int]:
    """Minimum proper coloring, lexicographically smallest assignment.

    Iterative deepening on the color count; nodes are assigned in index
    order and a node may only open color c when colors 0..c-1 are in
    use, so the first complete assignment found for the minimal count is
    the lexicographically smallest one.
    """
    n = adjacency.shape[0]
    neighbors = [np.flatnonzero(adjacency[v]).tolist() for v in range(n)]

    def extend(colors: list[int], v: int, k: int) -> bool:
        if v == n:
            return True
        used = max(colors[:v], default=-1) + 1
        for c in range(min(used + 1, k)):
            if all(colors[u] != c for u in neighbors[v] if u < v):
                colors[v] = c
                if extend(colors, v + 1, k):
                    return True
        colors[v] = -1
        return False

    for k in range(1, n + 1):
        colors = [-1] * n
        if extend(colors, 0, k):
            return colors
    raise AssertionError("n colors always suffice")


def _color_greedy(adjacency: np.ndarray) -> list[int]:
    """First-fit coloring in largest-degree-first order, ties by index."""
    n = adjacency.shape[0]
    degrees = adjacency.sum(axis=1)
    order = sorted(range(n), key=lambda v: (-int(degrees[v]), v))
    colors = [-1] * n
    for v in order:
        taken = {colors[u] for u in np.flatnonzero(adjacency[v]).tolist() if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def min_clique_cover(instance: Instance) -> Partition:
    """Partition into mutually non-competing groups, as few as possible.

    Covering the complement with cliques is coloring the competition
    graph: exact (provably minimum, deterministic tie-break) up to
    EXACT_COVER_MAX_NODES nodes, greedy first-fit beyond.
    """
    if instance.n <= EXACT_COVER_MAX_NODES:
        colors, mode = _color_exact(instance.competing), "exact"
    else:
        colors, mode = _color_greedy(instance.competing), "greedy"
    return Partition(_canonical_groups(colors), mode)


def strongly_connected_components(adjacency: np.ndarray, nodes: list[int]) -> list[tuple[int, ...]]:
    """Kosaraju on the submatrix of `nodes`, without recursion and reading one
    row as a mask per step: a depth-first finishing order over successors (its
    rows), then one breadth-first search over predecessors (its transpose's
    rows) per component, from the latest-finished node not yet placed. Sorted
    tuples of `nodes`, ordered by first member."""
    nodes = np.asarray(nodes, dtype=np.intp)
    sub = adjacency[np.ix_(nodes, nodes)]
    seen = np.zeros(len(nodes), dtype=bool)
    finished: list[int] = []
    for root in range(len(nodes)):
        stack = [] if seen[root] else [root]
        seen[root] = True
        while stack:  # the top node's next successor is its first unseen one
            fresh = sub[stack[-1]] & ~seen
            if fresh.any():
                stack.append(int(fresh.argmax()))
                seen[stack[-1]] = True
            else:
                finished.append(stack.pop())
    pred = np.ascontiguousarray(sub.T)
    sccs = []
    for root in reversed(finished):
        if seen[root]:  # the second search clears the marks of the first
            seen[root] = False
            members, frontier = [root], [root]
            while frontier:
                frontier = np.flatnonzero(pred[frontier].any(axis=0) & seen).tolist()
                seen[frontier] = False
                members += frontier
            sccs.append(tuple(sorted(nodes[members].tolist())))
    return sorted(sccs)


def scc_coalitions(instance: Instance, within: Partition) -> Partition:
    """Refine a clique cover into benefit-graph strongly connected coalitions.

    Only mutual (direct or transitive) benefit inside a clique keeps
    participants together; everyone else trains alone. ``within`` may be
    any split into non-competing cliques, so coalitions refine to themselves.
    """
    within.validate_cover(instance)
    benefit_adj = instance.benefit > 0.0
    groups = (scc for clique in within.groups  # disjoint, so sorted by first member
              for scc in strongly_connected_components(benefit_adj, list(clique)))
    return Partition(tuple(sorted(groups)))
