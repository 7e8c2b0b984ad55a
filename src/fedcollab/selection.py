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

A step decides its |C| candidates with one |C| x n AND; one more, on the
conflict matrix ``anc_comp`` that the run's :class:`Selection` keeps,
gives the upstream guards for the trace. The step's accepted edges then
take one update: the closure rows of the accepted candidates' ancestors
and the ``anc_comp`` rows of i's descendants, each ORed with one row.

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
    ``benefit[candidates, participant]``. ``upstream`` and ``downstream``
    hold the guard entries sparsely: the number of guard nodes of each
    candidate, and all of them concatenated in scan order, ascending within
    a candidate. Accepts have none.
    """

    participant: int
    objective: float
    candidates: np.ndarray
    verdicts: np.ndarray  # True for an accepted candidate
    upstream: tuple[np.ndarray, np.ndarray]
    downstream: tuple[np.ndarray, np.ndarray]

    def guards(self, labels: np.ndarray | None = None) -> tuple[list[list], list[list]]:
        """Each candidate's upstream and downstream guard nodes, in scan
        order; given ``labels``, an array indexed by node, their labels."""
        sides = []
        for counts, nodes in (self.upstream, self.downstream):
            items = (nodes if labels is None else labels[nodes]).tolist()
            ends = np.cumsum(counts).tolist()
            sides.append([items[a:b] for a, b in zip([0, *ends], ends)])
        return sides[0], sides[1]

    @property
    def accepted(self) -> tuple[int, ...]:
        return tuple(self.candidates[self.verdicts].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepTrace):
            return NotImplemented
        return ((self.participant, self.objective) == (other.participant, other.objective)
                and all(map(np.array_equal, self._columns(), other._columns())))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.candidates, self.verdicts, *self.upstream, *self.downstream)


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


def candidate_collaborators(instance: Instance, i: int) -> list[int]:
    """Nodes that benefit i and do not compete with it, best benefit first.

    Ties are broken by ascending node index; comparisons are exact since
    the weights are inputs, not computed quantities.
    """
    i = instance.check_node(i)
    w = instance.benefit[:, i]  # the diagonal is zero, so i is never its own candidate
    js = np.flatnonzero((w > 0.0) & ~instance.competing[:, i])
    return js[np.argsort(-w[js], kind="stable")].tolist()


class Selection:
    """A run's state: the usage graph built so far and the conflict matrix
    ``_anc_comp``, true at [q, k] when k competes with an ancestor-or-self
    of q, so ``_anc_comp[j] & closure[i]`` is the upstream guard of j -> i.
    A run starts empty and changes only through :func:`select_step`, so
    its graph stays conflict-free. Callers may read ``usage`` but must not
    write it: an edge added from outside (``usage.add_edge``) leaves
    ``_anc_comp`` stale, and later steps then trace wrong upstream guards.
    """

    __slots__ = ("instance", "usage", "_anc_comp")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self.usage = UsageGraph(instance.n)
        self._anc_comp = instance.competing.copy()  # the empty graph's closure is the identity


def select_step(selection: Selection, i: int) -> StepTrace:
    """Greedily pick i's collaborators and add their edges to ``selection``."""
    instance, usage, anc_comp = selection.instance, selection.usage, selection._anc_comp
    cand = np.array(candidate_collaborators(instance, i), dtype=np.intp)
    clo = usage.closure
    # every guard reads the same on the graph before the step (module
    # docstring), and the downstream guard alone decides
    rivals = instance.competing[clo[i]].any(axis=0)
    downstream = clo[:, cand].T & rivals
    verdicts = ~downstream.any(axis=1)
    upstream = anc_comp[cand] & clo[i]  # for the trace only
    # an edge authorized by an earlier step joins no competitors, so its
    # guards are empty, and it is accepted as it stands
    added = cand[verdicts & ~usage.x[cand, i]]
    if added.size:
        # the edges give every descendant of i the ancestors of the added
        # candidates, and so their competitors
        anc_comp[clo[i]] |= anc_comp[added].any(axis=0)
        usage.add_edges(added, i)
    objective = 0.0
    for w in instance.benefit[cand[verdicts], i].tolist():  # summed in scan order
        objective += w
    return StepTrace(int(i), objective, cand, verdicts, _sparse(upstream), _sparse(downstream))


def select_collaborators(instance: Instance) -> tuple[UsageGraph, SelectionTrace]:
    """Run the full selection over all participants.

    Deterministic: two runs on the same instance produce identical usage
    graphs and traces. The returned graph is always conflict-free.
    """
    selection = Selection(instance)
    steps = tuple(select_step(selection, i) for i in processing_order(instance))
    return selection.usage, SelectionTrace(steps)
