"""Participant graphs: competition, benefit, and the authorized-usage graph.

Three matrices over n participants drive everything:

* ``competing`` — symmetric boolean adjacency; an edge marks a pair with
  conflicting interests.
* ``benefit`` — nonnegative weights; ``benefit[j, i] > 0`` means j's data
  improves i's model, with larger values meaning larger improvement.
* a :class:`UsageGraph` — the boolean decision matrix ``x`` of authorized
  collaborations (``x[j, i]`` = i may consume j's updates, for j != i
  only) together with its exactly-maintained reflexive-transitive closure.

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
      meaningless and stored as zero. The benefit each participant offers
      (row sum) and receives (column sum) is finite too, so potentials and
      step objectives are.
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
        with np.errstate(over="ignore"):
            sums = (benefit.sum(axis=1), benefit.sum(axis=0))
        for side, total in zip(("offered by", "received by"), sums):
            finite = np.isfinite(total)
            if not finite.all():
                k = int(finite.argmin())
                raise InvalidInstanceError(f"benefit {side} participant v{k + 1} (index {k}) "
                                           "sums past the float range")
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


class UsageGraph:
    """Decision matrix ``x`` plus an exactly maintained transitive closure.

    ``x`` holds exactly the selected edges, so it starts all False and its
    diagonal stays False; ``closure`` starts as the identity (every
    participant reaches itself). ``from_edges`` builds a graph from a whole
    edge set, and ``add_edge`` is the one checked mutator of a built one;
    both keep ``closure`` equal to the reflexive-transitive closure of
    ``x``. ``read_only`` gives a view that cannot be written.
    """

    __slots__ = ("n", "x", "closure")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("usage graph needs at least one node")
        self.n = int(n)
        self.x = np.zeros((n, n), dtype=bool)
        self.closure = np.eye(n, dtype=bool)

    @classmethod
    def from_edges(cls, n: int, edges) -> "UsageGraph":
        """The graph of ``edges`` ((j, i) pairs or an (E, 2) array), checked by
        :meth:`_checked`, its closure computed in place by one row-OR per
        pivot k (Warshall): every row that reaches k gains k's row."""
        usage = cls(n)
        js, is_ = usage._checked(*np.asarray(edges, dtype=np.intp).reshape(-1, 2).T)
        usage.x[js, is_] = usage.closure[js, is_] = True
        clo = usage.closure
        for k in range(usage.n):
            clo[clo[:, k]] |= clo[k]
        return usage

    def read_only(self) -> "UsageGraph":
        """A view of this graph that follows its later changes and refuses
        writes: its ``x`` and ``closure`` are non-writeable views, so
        ``add_edge`` and any assignment into them raise ``ValueError``."""
        view = UsageGraph.__new__(UsageGraph)
        view.n, view.x, view.closure = self.n, self.x.view(), self.closure.view()
        view.x.flags.writeable = view.closure.flags.writeable = False
        return view

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UsageGraph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.x, other.x)

    _check = Instance.check_node  # the same bounds check, against this graph's n

    def edges(self) -> list[tuple[int, int]]:
        """Edges (j, i), meaning i uses j's updates, in row-major order."""
        js, is_ = np.nonzero(self.x)
        return list(zip(js.tolist(), is_.tolist()))

    def add_edge(self, j: int, i: int) -> "UsageGraph":
        """Authorize i to use j's updates: the edge is checked by
        :meth:`_checked`, as :meth:`from_edges` checks its pairs, and then
        added by :meth:`_add_new`, which updates the closure in place."""
        # i is range-checked first, as _checked reads it, also past intp's range
        js, is_ = self._checked(*np.array([[j], [self._check(i)]], dtype=np.intp))
        return self._add_new(js, is_[0])

    def _add_new(self, js: np.ndarray, i: int) -> "UsageGraph":
        """Add the edges j -> i for ``js``, an index array of distinct nodes in
        range, none of them i and none with its edge in ``x``; nothing checks.
        :meth:`add_edge` calls it on one checked edge, and
        :func:`fedcollab.selection.select_step` on a step's accepted edges,
        which are new by construction.

        New edges all end at i, so a path that uses one can be cut at its
        last visit to i: every new path is p ~> j -> i ~> q with p an old
        ancestor of some j and q an old descendant of i, and i's own
        descendants do not change. One row-restricted OR over the ancestors
        therefore updates the closure exactly, cycles included.
        """
        self.x[js, i] = True
        ancestors = self.closure[:, js].any(axis=1)
        self.closure[ancestors] |= self.closure[i]
        return self

    def _checked(self, js: np.ndarray, is_: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``js`` and ``is_``, equal-length index arrays of edges j -> i, as
        given if every edge is new; the first pair in the order given that is
        out of range (i, then j), a self-edge, in ``x`` already or a repeat
        raises."""
        cj, ci = js.clip(0, self.n - 1), is_.clip(0, self.n - 1)  # flagged if clipped
        bad = (cj != js) | (ci != is_) | (cj == ci) | self.x[cj, ci]
        key = cj * self.n + ci
        order = key.argsort(kind="stable")
        ordered = key[order]
        bad[order[1:]] |= ordered[1:] == ordered[:-1]  # a repeat of an earlier pair
        if bad.any():
            k = bad.argmax()
            i, j = self._check(int(is_[k])), self._check(int(js[k]))
            if j == i:
                raise ValueError(f"self-edge ({j}, {i}) is not a collaboration")
            raise ValueError(f"edge ({j}, {i}) already present")
        return js, is_

    def path_witness(self, j: int, i: int) -> PathWitness | None:
        """A shortest selected path j -> ... -> i, or None if unreachable: the
        one-target case of the search :func:`conflict_violations` runs."""
        j, i = self._check(j), self._check(i)
        return self._witnesses(j, [i])[0] if j != i and self.closure[j, i] else None

    def _witnesses(self, j: int, targets: list[int]) -> list[PathWitness]:
        """Shortest selected paths from j to ``targets`` (reachable, not j) by
        one breadth-first search over x-edges, in index order, that stops
        after the level reaching the last target: an early stop leaves every
        parent it set as a full search sets it, so paths do not depend on
        ``targets``. The closure is not read; an unreachable target raises KeyError."""
        parent = {j: -1}
        frontier, missing = [j], set(targets)
        while missing and frontier:
            nxt = []
            for u in frontier:
                for v in np.flatnonzero(self.x[u]).tolist():
                    if v not in parent:
                        parent[v] = u
                        nxt.append(v)
            missing.difference_update(nxt)
            frontier = nxt
        witnesses = []
        for t in targets:
            path = [t]
            while path[-1] != j:
                path.append(parent[path[-1]])
            witnesses.append(PathWitness(tuple(reversed(path))))
        return witnesses


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
    They are the two ends of the competing pairs (ancestor of j,
    descendant of i), so on any usage graph each is empty exactly when
    the other is.

    This direct O(n^2) scan is the reference form: the selection engine
    decides on the downstream set, read in O(n) from i's rivals, and
    reads the upstream set for its trace from the conflict matrix that
    a :class:`fedcollab.selection.Selection` keeps.
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
    # competing is symmetric, so this reads each pair in both directions
    return not (instance.competing & usage.closure).any()


def conflict_violations(instance: Instance, usage: UsageGraph) -> list[tuple[int, int, PathWitness]]:
    """All competing pairs (j, i) with a selected path j -> i, in row-major
    order, each with its witness ``usage.path_witness(j, i)``; the pairs of
    one source j share one breadth-first search from j."""
    out = []
    hits = instance.competing & usage.closure
    for j in np.flatnonzero(hits.any(axis=1)).tolist():
        targets = np.flatnonzero(hits[j]).tolist()
        out += [(j, i, w) for i, w in zip(targets, usage._witnesses(j, targets))]
    return out
