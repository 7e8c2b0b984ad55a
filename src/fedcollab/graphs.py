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


def node_label(i: int) -> str:
    """Participant i's label in files and messages, 1-based: ``v<i+1>``."""
    return f"v{i + 1}"


def equal_fields(a, b, names) -> bool:
    """True iff ``a`` and ``b`` agree on every attribute in ``names``: arrays
    by ``np.array_equal``, every other value by ``==``."""
    pairs = ((getattr(a, name), getattr(b, name)) for name in names)
    return all(np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y for x, y in pairs)


def check_competing(n: int, competing) -> np.ndarray:
    """A boolean copy of ``competing`` if n x n, symmetric, zero-diagonal and not complete."""
    competing = np.asarray(competing, dtype=bool).copy()
    if competing.shape != (n, n):
        raise InvalidInstanceError(f"competing adjacency must be {n}x{n}, got {competing.shape}")
    if competing.diagonal().any():
        raise InvalidInstanceError("competing adjacency must have a zero diagonal")
    if not np.array_equal(competing, competing.T):
        raise InvalidInstanceError("competing adjacency must be symmetric")
    if n >= 2 and competing.sum() == n * (n - 1):
        raise InvalidInstanceError("complete competition graph leaves no one to collaborate with")
    return competing


class Instance:
    """Immutable problem input: participant count, competition, benefit.

    Invariants enforced at construction:

    * ``competing`` passes :func:`check_competing` (a fully competing
      ecosystem admits no collaboration at all and is rejected up front);
    * ``benefit`` entries are finite and nonnegative; the diagonal is
      meaningless and stored as zero. The benefit each participant offers
      (row sum) and receives (column sum) is finite too, so potentials and
      step objectives are.
    """

    __slots__ = ("n", "competing", "benefit")

    def __init__(self, n: int, competing: np.ndarray, benefit: np.ndarray) -> None:
        if not isinstance(n, (int, np.integer)) or n < 1:
            raise InvalidInstanceError(f"participant count must be a positive integer, got {n!r}")
        competing = check_competing(n, competing)
        benefit = np.asarray(benefit, dtype=np.float64).copy()
        if benefit.shape != (n, n):
            raise InvalidInstanceError(f"benefit matrix must be {n}x{n}, got {benefit.shape}")
        if not np.isfinite(benefit).all():
            raise InvalidInstanceError("benefit weights must be finite")
        if (benefit < 0).any():
            raise InvalidInstanceError("benefit weights must be nonnegative")
        np.fill_diagonal(benefit, 0.0)
        with np.errstate(over="ignore"):
            sums = (benefit.sum(axis=1), benefit.sum(axis=0))
        for side, total in zip(("offered by", "received by"), sums):
            finite = np.isfinite(total)
            if not finite.all():
                k = int(finite.argmin())
                raise InvalidInstanceError(f"benefit {side} participant {node_label(k)} "
                                           f"(index {k}) sums past the float range")
        competing.setflags(write=False)
        benefit.setflags(write=False)
        self.n = int(n)
        self.competing = competing
        self.benefit = benefit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return equal_fields(self, other, self.__slots__)

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
    edge set, given as the n x n boolean matrix that becomes ``x``, and
    ``add_edge`` is the one checked mutator of a built one; both keep
    ``closure`` equal to the reflexive-transitive closure of ``x``.
    ``read_only`` gives a view that cannot be written.
    """

    __slots__ = ("n", "x", "closure")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("usage graph needs at least one node")
        self.n = int(n)
        self.x = np.zeros((n, n), dtype=bool)
        self.closure = np.eye(n, dtype=bool)

    @classmethod
    def from_edges(cls, x: np.ndarray) -> "UsageGraph":
        """The graph whose edge set is ``x``, a square boolean matrix with no
        diagonal cell set (n = ``len(x)``), copied; its closure is computed
        in place by one row-OR per pivot k (Warshall): every row that
        reaches k gains k's row."""
        x = np.asarray(x)
        if x.dtype != bool or x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError(f"an edge matrix is square and boolean, got {x.dtype} {x.shape}")
        if x.diagonal().any():
            k = int(x.diagonal().argmax())
            raise ValueError(f"self-edge ({k}, {k}) is not a collaboration")
        usage = cls(len(x))
        usage.x[x] = usage.closure[x] = True
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
        return equal_fields(self, other, ("n", "x"))

    _check = Instance.check_node  # the same bounds check, against this graph's n

    def add_edge(self, j: int, i: int) -> "UsageGraph":
        """Authorize i to use j's updates: i and then j must be in range, and
        the edge new and not a self-edge; :meth:`_add_new` adds it and
        updates the closure in place."""
        i, j = self._check(i), self._check(j)
        if j == i:
            raise ValueError(f"self-edge ({j}, {i}) is not a collaboration")
        if self.x[j, i]:
            raise ValueError(f"edge ({j}, {i}) already present")
        return self._add_new([j], i)

    def _add_new(self, js, i: int) -> "UsageGraph":
        """Add the edges j -> i for ``js``, a list or array of distinct nodes in
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

    def path_witness(self, j: int, i: int) -> PathWitness | None:
        """A shortest selected path j -> ... -> i, or None if unreachable: the
        one-target case of :meth:`_witnesses`, the level-at-a-time search
        :func:`conflict_violations` runs, so both give the same path."""
        j, i = self._check(j), self._check(i)
        return self._witnesses(j, [i])[0] if j != i and self.closure[j, i] else None

    def _witnesses(self, j: int, targets: list[int]) -> list[PathWitness]:
        """Shortest selected paths from j to ``targets`` (reachable, not j) by
        one level-synchronous breadth-first search over x-edges, which stops
        after the level reaching the last target. The next level is every
        unseen node with an edge from the frontier; its parent is the first
        frontier node with an edge to it, and the level is ordered by
        (parent's frontier position, node). That is the order and the
        parents of a node-at-a-time search that scans each frontier node's
        edges in index order, and an early stop leaves every parent set as
        a full search sets it, so paths do not depend on ``targets``. The
        closure is not read; an unreachable target raises KeyError."""
        parent = np.full(self.n, -1)
        seen = np.zeros(self.n, dtype=bool)
        seen[j] = True
        frontier = np.array([j])
        while frontier.size and not seen[targets].all():
            rows = self.x[frontier]
            new = np.flatnonzero(rows.any(axis=0) & ~seen)
            first = rows[:, new].argmax(axis=0)  # each new node's parent, as a frontier position
            order = first.argsort(kind="stable")  # new is sorted, so ties keep node order
            frontier, parent[new] = new[order], frontier[first]
            seen[new] = True
        witnesses = []
        for t in targets:
            if not seen[t]:
                raise KeyError(t)
            path = [t]
            while path[-1] != j:
                path.append(int(parent[path[-1]]))
            witnesses.append(PathWitness(tuple(reversed(path))))
        return witnesses


def potentials(instance: Instance) -> np.ndarray:
    """Total benefit each participant's data offers all others.

    ``result[i] = sum_j benefit[i, j]`` over j != i; the participant's
    standing when deciding who gets served first.
    """
    return instance.benefit.sum(axis=1)


def conflict_free(instance: Instance, usage: UsageGraph) -> bool:
    """True iff no competing pair is connected (either way) in the usage graph."""
    # competing is symmetric, so this reads each pair in both directions
    return not (instance.competing & usage.closure).any()


def conflict_violations(instance: Instance, usage: UsageGraph) -> list[tuple[int, int, PathWitness]]:
    """All competing pairs (j, i) with a selected path j -> i, in row-major
    order, each with its witness ``usage.path_witness(j, i)``; the pairs of
    one source j share one search from j (:meth:`UsageGraph._witnesses`),
    which takes a whole level of the breadth-first search per numpy step."""
    out = []
    hits = instance.competing & usage.closure
    for j in np.flatnonzero(hits.any(axis=1)).tolist():
        targets = np.flatnonzero(hits[j]).tolist()
        out += [(j, i, w) for i, w in zip(targets, usage._witnesses(j, targets))]
    return out
