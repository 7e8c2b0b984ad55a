"""Participant graphs: competition, benefit, and the authorized-usage graph.

Three matrices over n participants drive everything:

* ``competing`` — symmetric boolean adjacency; an edge marks a pair with
  conflicting interests.
* ``benefit`` — nonnegative weights; ``benefit[j, i] > 0`` means j's data
  improves i's model, with larger values meaning larger improvement.
* a :class:`UsageGraph` — the boolean decision matrix ``x`` of authorized
  collaborations (``x[j, i]`` = i may consume j's updates) together with
  its exactly-maintained reflexive-transitive closure.

The governing constraint is conflict freedom: no participant may be
reachable in the usage graph to any of its competitors, directly or
through intermediaries ("the friend of my enemy is my enemy").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvalidInstanceError(ValueError):
    """Raised when an instance violates the data-model invariants."""


class Instance:
    """Immutable problem input: participant count, competition, benefit.

    Invariants enforced at construction:

    * ``competing`` is symmetric boolean with a zero diagonal and is not
      the complete graph (a fully competing ecosystem admits no
      collaboration at all and is rejected up front);
    * ``benefit`` entries are finite and nonnegative; the diagonal is
      meaningless and stored as zero.
    """

    __slots__ = ("n", "competing", "benefit")

    def __init__(self, n: int, competing: np.ndarray, benefit: np.ndarray) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInstanceError(f"participant count must be a positive integer, got {n!r}")
        competing = np.asarray(competing, dtype=bool).copy()
        benefit = np.asarray(benefit, dtype=np.float64).copy()
        if competing.shape != (n, n):
            raise InvalidInstanceError(f"competing adjacency must be {n}x{n}, got {competing.shape}")
        if benefit.shape != (n, n):
            raise InvalidInstanceError(f"benefit matrix must be {n}x{n}, got {benefit.shape}")
        if competing.diagonal().any():
            raise InvalidInstanceError("competing adjacency must have a zero diagonal")
        if not np.array_equal(competing, competing.T):
            raise InvalidInstanceError("competing adjacency must be symmetric")
        if not np.isfinite(benefit).all():
            raise InvalidInstanceError("benefit weights must be finite")
        if (benefit < 0).any():
            raise InvalidInstanceError("benefit weights must be nonnegative")
        if n >= 2 and competing.sum() == n * (n - 1):
            raise InvalidInstanceError("complete competition graph leaves no one to collaborate with")
        np.fill_diagonal(benefit, 0.0)
        competing.setflags(write=False)
        benefit.setflags(write=False)
        self.n = int(n)
        self.competing = competing
        self.benefit = benefit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self.competing, other.competing)
                and np.array_equal(self.benefit, other.benefit))

    def __repr__(self) -> str:
        edges = int(np.triu(self.competing).sum())
        weights = int(np.count_nonzero(self.benefit))
        return f"Instance(n={self.n}, competing_edges={edges}, benefit_edges={weights})"

    def check_node(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"node index {i} out of range for n={self.n}")
        return int(i)


@dataclass(frozen=True)
class PathWitness:
    """A concrete directed path proving reachability between its endpoints."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2 or self.nodes[0] == self.nodes[-1]:
            raise ValueError("a path witness needs at least two distinct endpoints")

    @property
    def length(self) -> int:
        return len(self.nodes) - 1


class UsageGraph:
    """Decision matrix ``x`` plus an exactly maintained transitive closure.

    Both matrices start as the identity (every participant trivially uses
    its own data and reaches itself). ``add_edge`` is the only mutator;
    it keeps ``closure`` equal to the reflexive-transitive closure of the
    off-diagonal edges of ``x`` at all times.
    """

    __slots__ = ("n", "x", "closure")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("usage graph needs at least one node")
        self.n = int(n)
        self.x = np.eye(n, dtype=bool)
        self.closure = np.eye(n, dtype=bool)

    @classmethod
    def from_edges(cls, n: int, edges) -> "UsageGraph":
        usage = cls(n)
        for j, i in edges:
            usage.add_edge(j, i)
        return usage

    def copy(self) -> "UsageGraph":
        dup = UsageGraph.__new__(UsageGraph)
        dup.n = self.n
        dup.x = self.x.copy()
        dup.closure = self.closure.copy()
        return dup

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UsageGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.x, other.x)

    def _check(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(f"node index {i} out of range for n={self.n}")
        return int(i)

    def edges(self) -> list[tuple[int, int]]:
        """Off-diagonal edges (j, i), meaning i uses j's updates."""
        js, is_ = np.nonzero(self.x & ~np.eye(self.n, dtype=bool))
        return list(zip(js.tolist(), is_.tolist()))

    def add_edge(self, j: int, i: int) -> "UsageGraph":
        """Authorize i to use j's updates and update the closure in place."""
        j, i = self._check(j), self._check(i)
        if j == i:
            raise ValueError(f"self-edge ({j}, {i}) is not a collaboration")
        if self.x[j, i]:
            raise ValueError(f"edge ({j}, {i}) already present")
        self.x[j, i] = True
        # the new paths are exactly p -> j -> i -> q
        self.closure |= np.outer(self.closure[:, j], self.closure[i])
        return self

    def reachable_from(self, i: int) -> set[int]:
        """Nodes reachable from i, including i itself."""
        return set(np.flatnonzero(self.closure[self._check(i)]).tolist())

    def reachable_to(self, j: int) -> set[int]:
        """Nodes that reach j, including j itself."""
        return set(np.flatnonzero(self.closure[:, self._check(j)]).tolist())

    def path_witness(self, j: int, i: int) -> PathWitness | None:
        """A shortest selected path j -> ... -> i, or None if unreachable."""
        j, i = self._check(j), self._check(i)
        if j == i or not self.closure[j, i]:
            return None
        # BFS over x-edges; independent of the maintained closure except
        # for the cheap reachability precheck above.
        parent = {j: -1}
        frontier = [j]
        while frontier:
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(self.x[u]).tolist():
                    if v != u and v not in parent:
                        parent[v] = u
                        if v == i:
                            path = [i]
                            while path[-1] != j:
                                path.append(parent[path[-1]])
                            return PathWitness(tuple(reversed(path)))
                        nxt.append(v)
            frontier = nxt
        return None


def potentials(instance: Instance) -> np.ndarray:
    """Total benefit each participant's data offers all others.

    ``result[i] = sum_j benefit[i, j]`` over j != i; the participant's
    standing when deciding who gets served first.
    """
    return instance.benefit.sum(axis=1)


def competitor_guards(instance: Instance, usage: UsageGraph,
                      i: int, j: int) -> tuple[frozenset[int], frozenset[int]]:
    """Guard sets that must be empty for the edge j -> i to be safe.

    Returns ``(upstream, downstream)``: upstream holds competitors of
    nodes that reach j which are already reachable from i; downstream
    holds competitors of nodes reachable from i which already reach j.
    Equivalently, upstream is the intersection of i's descendants with
    the competitors of j's ancestors, and symmetrically for downstream.

    This direct O(n^2) scan is the reference form: the selection engine
    reads the same sets in O(n) from the conflict matrices it maintains
    (:func:`fedcollab.selection.conflict_matrices`).
    """
    i, j = instance.check_node(i), instance.check_node(j)
    if i == j:
        raise ValueError("guard sets are defined for distinct nodes only")
    comp, clo = instance.competing, usage.closure
    # row k of comp & clo[:, j] is nonempty iff k competes with an ancestor
    # of j; competing is symmetric, so the same holds for descendants of i
    upstream = (comp & clo[:, j]).any(axis=1) & clo[i]
    downstream = (comp & clo[i]).any(axis=1) & clo[:, j]
    return (frozenset(np.flatnonzero(upstream).tolist()),
            frozenset(np.flatnonzero(downstream).tolist()))


def conflict_free(instance: Instance, usage: UsageGraph) -> bool:
    """True iff no competing pair is connected (either way) in the usage graph."""
    c = usage.closure
    return not (instance.competing & (c | c.T)).any()


def conflict_violations(instance: Instance, usage: UsageGraph) -> list[tuple[int, int, PathWitness]]:
    """All competing pairs (j, i) with a selected path j -> i, with witnesses."""
    out = []
    js, is_ = np.nonzero(instance.competing & usage.closure)
    for j, i in zip(js.tolist(), is_.tolist()):
        witness = usage.path_witness(j, i)
        if witness is not None:  # always true when closure is exact
            out.append((j, i, witness))
    return out
