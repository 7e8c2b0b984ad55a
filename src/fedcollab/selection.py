"""Greedy conflict-free collaborator selection.

Participants are served in nonincreasing order of their potential (total
benefit offered to others). For each participant i, candidates — the
non-competing nodes whose data would benefit i — are taken in
nonincreasing benefit order, and a candidate j is accepted iff both
conflict guards for the edge j -> i are empty against the usage graph.
The result always satisfies the conflict-freedom constraint.

The guards are the two ends of the competing pairs (ancestor of j,
descendant of i) that the edge would join, so each is empty exactly when
the other is, and the verdict reads the downstream one: j is accepted iff
no ancestor of j is one of i's *rivals*, the competitors of i's
descendants. All candidates of one step are decided together, on the
graph as it stood before the step. This gives exactly the verdicts and
guard sets of a scan that adds each accepted edge before it checks the
next candidate. New paths through an edge j -> i all end in a descendant
of i, so ``closure[i]`` and i's rivals do not change within the step.
For a later candidate k, the upstream guard ``anc_comp[k] & closure[i]``
can only gain ``anc_comp[j] & closure[i]``, and the downstream guard
``rivals & closure[:, k]`` can only gain ``rivals & closure[:, j]``.
Those are j's own guards, which were empty when j was accepted, so no
guard reads differently in scan order.

A step builds both guard sides of its |C| candidates as one stacked
2|C| x n mask: the upstream rows from the conflict matrix ``anc_comp``
that the run's :class:`Selection` keeps, the downstream rows from i's
rivals. One sparse extraction of that mask gives the trace, and the
downstream counts give the verdicts. The step's accepted edges then take
one update: the closure rows of the accepted candidates' ancestors and
the ``anc_comp`` rows of i's descendants, each ORed with one row.

The trace holds each fact once. A :class:`StepTrace` records a
participant, its objective and, per candidate in scan order, the verdict
and both guard sets; a :class:`SelectionTrace` is the steps in processing
order. Potentials and candidate weights are read from the instance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Instance, UsageGraph, potentials


def _sparse(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entries per row, their columns in row order) of a boolean matrix."""
    columns = np.flatnonzero(mask) % mask.shape[1]
    return np.count_nonzero(mask, axis=1).astype(np.int32), columns.astype(np.int32)


@dataclass(frozen=True, eq=False)
class StepTrace:
    """One participant's step, as columns over its candidates in scan order.

    ``objective`` is the benefit i receives from its accepted candidates,
    summed in scan order; a candidate's weight is read from the instance as
    ``benefit[candidates, participant]``. ``guard_entries`` holds both guard
    sides sparsely, as ``(counts, nodes)`` over 2|C| rows: the number of
    guard nodes of each row, and all of them concatenated in row order,
    ascending within a row. The first |C| rows are the candidates' upstream
    guards and the rest their downstream guards, each in scan order.
    Accepts have none.
    """

    participant: int
    objective: float
    candidates: np.ndarray
    verdicts: np.ndarray  # True for an accepted candidate
    guard_entries: tuple[np.ndarray, np.ndarray]

    def guards(self, labels: np.ndarray | None = None) -> tuple[list[list], list[list]]:
        """Each candidate's upstream and downstream guard nodes, in scan
        order; given ``labels``, an array indexed by node, their labels."""
        counts, nodes = self.guard_entries
        items = (nodes if labels is None else labels[nodes]).tolist()
        ends = np.cumsum(counts).tolist()
        rows = [items[a:b] for a, b in zip([0, *ends], ends)]
        return rows[:len(self.candidates)], rows[len(self.candidates):]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepTrace):
            return NotImplemented
        return ((self.participant, self.objective) == (other.participant, other.objective)
                and all(map(np.array_equal, self._columns(), other._columns())))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.candidates, self.verdicts, *self.guard_entries)


@dataclass(frozen=True)
class SelectionTrace:
    """Full replayable record of a selection run: its steps in processing order."""

    steps: tuple[StepTrace, ...]

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(step.participant for step in self.steps)


def processing_order(instance: Instance) -> list[int]:
    """Participants sorted by nonincreasing potential, ties by index."""
    pot = potentials(instance)
    return sorted(range(instance.n), key=lambda k: (-pot[k], k))


def candidate_collaborators(instance: Instance, i: int) -> np.ndarray:
    """Nodes that benefit i and do not compete with it, best benefit first,
    as the index array that :func:`select_step` decides over.

    Ties are broken by ascending node index; comparisons are exact since
    the weights are inputs, not computed quantities. An i outside 0..n-1
    raises ``IndexError``.
    """
    i = instance.check_node(i)
    w = instance.benefit[:, i]  # the diagonal is zero, so i is never its own candidate
    js = np.flatnonzero((w > 0.0) & ~instance.competing[:, i])
    return js[np.argsort(-w[js], kind="stable")]


class Selection:
    """A run's state: the usage graph built so far and the conflict matrix
    ``_anc_comp``, true at [q, k] when k competes with an ancestor-or-self
    of q, so ``_anc_comp[j] & closure[i]`` is the upstream guard of j -> i.

    Both are private. A run starts empty and changes only through
    :func:`select_step`, so its graph stays conflict-free and ``_anc_comp``
    matches it. ``usage`` is a read-only view of the graph that follows
    every step: its ``x`` and ``closure`` are non-writeable, so an edge
    added from outside (``usage.add_edge``) raises instead of leaving
    ``_anc_comp`` stale.
    """

    __slots__ = ("instance", "_usage", "_anc_comp")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._usage = UsageGraph(instance.n)
        self._anc_comp = instance.competing.copy()  # the empty graph's closure is the identity

    @property
    def usage(self) -> UsageGraph:
        return self._usage.read_only()


def select_step(selection: Selection, i: int) -> StepTrace:
    """Greedily pick i's collaborators and add their edges to ``selection``."""
    instance, usage, anc_comp = selection.instance, selection._usage, selection._anc_comp
    i = instance.check_node(i)
    cand = candidate_collaborators(instance, i)
    clo, c = usage.closure, len(cand)
    # every guard reads the same on the graph before the step (module
    # docstring): rows [:c] are the upstream guards, rows [c:] the downstream
    # ones, and the downstream guard alone decides
    rivals = instance.competing[clo[i]].any(axis=0)
    guards = np.empty((2 * c, instance.n), dtype=bool)
    np.logical_and(anc_comp[cand], clo[i], out=guards[:c])
    np.logical_and(clo[:, cand].T, rivals, out=guards[c:])
    counts, nodes = _sparse(guards)
    verdicts = counts[c:] == 0
    # an edge authorized by an earlier step joins no competitors, so its
    # guards are empty, and it is accepted as it stands
    added = cand[verdicts & ~usage.x[cand, i]]
    if added.size:
        # the edges give every descendant of i the ancestors of the added
        # candidates, and so their competitors
        anc_comp[clo[i]] |= anc_comp[added].any(axis=0)
        # new by construction, so unchecked: ``added`` comes from flatnonzero
        # over i's benefit column, so its nodes are distinct and in range; the
        # column's diagonal is zero, so i is not among them; and the filter
        # ~x[cand, i] drops every edge already present
        usage._add_new(added, i)
    objective = 0.0
    for w in instance.benefit[cand[verdicts], i].tolist():  # summed in scan order
        objective += w
    return StepTrace(i, objective, cand, verdicts, (counts, nodes))


def select_collaborators(instance: Instance) -> tuple[UsageGraph, SelectionTrace]:
    """Run the full selection over all participants.

    Deterministic: two runs on the same instance produce identical usage
    graphs and traces. The returned graph, the run's final one, is always
    conflict-free.
    """
    selection = Selection(instance)
    steps = tuple(select_step(selection, i) for i in processing_order(instance))
    return selection._usage, SelectionTrace(steps)
