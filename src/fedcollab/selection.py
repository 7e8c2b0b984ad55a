"""Greedy conflict-free collaborator selection.

Participants are served in nonincreasing order of their potential (total
benefit offered to others). For each participant i, candidates — the
non-competing nodes whose data would benefit i — are taken in
nonincreasing benefit order, and a candidate k is accepted iff the edge
k -> i joins no competing pair. The result always satisfies the
conflict-freedom constraint.

An edge k -> i joins exactly the pairs (ancestor of k, descendant of i)
that compete. So k is rejected iff one of i's *rivals*, the competitors
of i's descendants, reaches k. All candidates of one step are decided
together, on the graph as it stood before the step: i's rivals are read
once, from the competition rows of the descendants that ``closure[i]``
marks, and each candidate's verdict from the rivals' closure rows. This
gives exactly the verdicts of a scan that adds each accepted edge before
it checks the next candidate. New paths through an edge j -> i all end
in a descendant of i, so ``closure[i]`` and i's rivals do not change
within the step, and a rival that reaches a later candidate k only
through j would reach j, which was accepted. The step's accepted edges
then take one update: the closure rows of the accepted candidates'
ancestors, each ORed with ``closure[i]``.

A reject records one reason, a competing pair (r, d) its edge would
join: r is the lowest-index rival of i that reaches k, and d the
lowest-index descendant of i that competes with r, so r ~> k -> i ~> d.
Both read the same in scan order, for the same reason as the verdicts.
A :class:`StepTrace` records a participant, its objective, its
candidates in scan order with their verdicts, and the (r, d) of each
reject; a :class:`SelectionTrace` is the steps in processing order.
Potentials and candidate weights are read from the instance.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graphs import Instance, UsageGraph, equal_fields, potentials


@dataclass(frozen=True, eq=False)
class StepTrace:
    """One participant's step, as columns over its candidates in scan order.

    ``objective`` is the benefit i receives from its accepted candidates,
    summed in scan order; a candidate's weight is read from the instance as
    ``benefit[candidates, participant]``. ``rivals`` and ``descendants``
    run over the rejected candidates in scan order: the reason (r, d) of
    each, a competing pair that its edge would join.
    """

    participant: int
    objective: float
    candidates: np.ndarray
    verdicts: np.ndarray  # True for an accepted candidate
    rivals: np.ndarray
    descendants: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepTrace):
            return NotImplemented
        return equal_fields(self, other, (f.name for f in fields(self)))


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
    js = ((w > 0.0) & ~instance.competing[:, i]).nonzero()[0]
    return js[np.argsort(-w[js], kind="stable")]


class Selection:
    """A run's state: the usage graph built so far.

    It is private. A run starts empty and changes only through
    :func:`select_step`, so its graph stays conflict-free. ``usage`` is
    one read-only view of the graph, made with it, that follows every
    step: its ``x`` and ``closure`` are non-writeable, so an edge added
    from outside (``usage.add_edge``) raises.
    """

    __slots__ = ("instance", "_usage", "usage")

    def __init__(self, instance: Instance) -> None:
        self.instance = instance
        self._usage = UsageGraph(instance.n)
        self.usage = self._usage.read_only()


def select_step(selection: Selection, i: int) -> StepTrace:
    """Greedily pick i's collaborators and add their edges to ``selection``."""
    instance, usage = selection.instance, selection._usage
    i = instance.check_node(i)
    cand = candidate_collaborators(instance, i)
    clo, competing = usage.closure, instance.competing
    # every verdict and reason reads the same on the graph before the step
    # (module docstring)
    below = clo[i]
    rivals = competing[below].any(axis=0).nonzero()[0]
    reach = clo[rivals][:, cand]
    rejected = reach.any(axis=0)
    r = d = rivals[:0]
    if rejected.any():  # the first rival of each rejected column, and its pair
        r = rivals[reach[:, rejected].argmax(axis=0)]
        d = (competing[r] & below).argmax(axis=1)
    verdicts = ~rejected
    # an edge authorized by an earlier step joins no competitors, so it is
    # accepted as it stands
    added = cand[verdicts & ~usage.x[cand, i]]
    if added.size:
        # new by construction, so unchecked: ``added`` comes from flatnonzero
        # over i's benefit column, so its nodes are distinct and in range; the
        # column's diagonal is zero, so i is not among them; and the filter
        # ~x[cand, i] drops every edge already present
        usage._add_new(added, i)
    objective = 0.0
    for w in instance.benefit[cand[verdicts], i].tolist():  # summed in scan order
        objective += w
    return StepTrace(i, objective, cand, verdicts, r, d)


def select_collaborators(instance: Instance) -> tuple[UsageGraph, SelectionTrace]:
    """Run the full selection over all participants.

    Deterministic: two runs on the same instance produce identical usage
    graphs and traces. The returned graph, the run's final one, is always
    conflict-free.
    """
    selection = Selection(instance)
    steps = tuple(select_step(selection, i) for i in processing_order(instance))
    return selection._usage, SelectionTrace(steps)
