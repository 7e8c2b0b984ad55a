"""Greedy conflict-free collaborator selection.

Participants are served in nonincreasing order of their potential (total
benefit offered to others). For each participant i, candidates — the
non-competing nodes whose data would benefit i — are scanned in
nonincreasing benefit order, and a candidate j is accepted iff both
conflict guards for the edge j -> i are empty against the current usage
graph. Accepted edges update the reachability closure immediately, so
later candidates of the same step see them. The result always satisfies
the conflict-freedom constraint.

Alongside the closure the engine keeps two conflict matrices (see
:func:`conflict_matrices`) that turn each guard check into two row ANDs.
A guard check is therefore O(n), and an accepted edge j -> i costs
O(n·|desc(i)| + n·|anc(j)|) to update the matrices on top of the O(n^2)
closure update.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Instance, UsageGraph, conflict_free, potentials


@dataclass(frozen=True)
class CandidateDecision:
    """One accept/reject verdict, with the guard sets seen at decision time."""

    candidate: int
    weight: float
    accepted: bool
    guard_upstream: tuple[int, ...]
    guard_downstream: tuple[int, ...]


@dataclass(frozen=True)
class StepTrace:
    participant: int
    potential: float
    decisions: tuple[CandidateDecision, ...]
    objective: float

    @property
    def accepted(self) -> tuple[int, ...]:
        return tuple(d.candidate for d in self.decisions if d.accepted)


@dataclass(frozen=True)
class SelectionTrace:
    """Full replayable record of a selection run."""

    order: tuple[int, ...]
    steps: tuple[StepTrace, ...]

    @property
    def objective(self) -> float:
        return sum(step.objective for step in self.steps)


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
    w = instance.benefit[:, i]
    js = [j for j in range(instance.n) if j != i and w[j] > 0.0 and not instance.competing[j, i]]
    return sorted(js, key=lambda j: (-w[j], j))


def conflict_matrices(instance: Instance, usage: UsageGraph) -> tuple[np.ndarray, np.ndarray]:
    """The two n x n boolean matrices behind the O(n) guard check.

    Returns ``(anc_comp, desc_comp)``: ``anc_comp[q, k]`` is true when k
    competes with an ancestor-or-self of q in ``usage``, ``desc_comp[q, k]``
    when k competes with a descendant-or-self of q. For the edge j -> i the
    guard sets of :func:`fedcollab.graphs.competitor_guards` are then
    ``anc_comp[j] & closure[i]`` (upstream) and ``desc_comp[i] & closure[:, j]``
    (downstream). On an empty usage graph both equal ``competing``.
    """
    comp = instance.competing.astype(np.float32)
    clo = usage.closure.astype(np.float32)
    # entries count witnesses, at most n, so float32 sums are exact
    return clo.T @ comp > 0, clo @ comp > 0


def select_step(instance: Instance, usage: UsageGraph, i: int,
                pot: np.ndarray | None = None,
                conflicts: tuple[np.ndarray, np.ndarray] | None = None) -> StepTrace:
    """Greedily pick i's collaborators, mutating `usage` in place.

    ``pot`` is the :func:`fedcollab.graphs.potentials` vector and
    ``conflicts`` the :func:`conflict_matrices` of ``usage``; both are
    computed when omitted. Passed-in conflict matrices are updated in place
    with every accepted edge, so a caller running several steps on one
    usage graph keeps them in step by passing the same pair each time.

    Requires a conflict-free usage graph on entry (guaranteed when driven
    by :func:`select_collaborators`); a violation here is a programming
    error, not an input condition, hence the hard failure.
    """
    if not conflict_free(instance, usage):
        raise RuntimeError("usage graph already violates conflict freedom before selection step")
    if pot is None:
        pot = potentials(instance)
    anc_comp, desc_comp = conflicts if conflicts is not None else conflict_matrices(instance, usage)
    w = instance.benefit[:, i]
    decisions = []
    objective = 0.0
    for j in candidate_collaborators(instance, i):
        # an edge authorized by an earlier step is accepted as it stands
        if not usage.x[j, i]:
            clo = usage.closure
            upstream = (anc_comp[j] & clo[i]).nonzero()[0]
            downstream = (desc_comp[i] & clo[:, j]).nonzero()[0]
            if upstream.size or downstream.size:
                decisions.append(CandidateDecision(
                    candidate=j,
                    weight=float(w[j]),
                    accepted=False,
                    guard_upstream=tuple(upstream.tolist()),
                    guard_downstream=tuple(downstream.tolist()),
                ))
                continue
            # the edge gives every descendant of i the ancestors of j, and
            # every ancestor of j the descendants of i; both masks are read
            # before the closure changes, each right-hand row before any write
            anc_comp[clo[i]] |= anc_comp[j]
            desc_comp[clo[:, j]] |= desc_comp[i]
            usage.add_edge(j, i)
        objective += float(w[j])
        decisions.append(CandidateDecision(j, float(w[j]), True, (), ()))
    return StepTrace(participant=i, potential=float(pot[i]),
                     decisions=tuple(decisions), objective=objective)


def select_collaborators(instance: Instance) -> tuple[UsageGraph, SelectionTrace]:
    """Run the full selection over all participants.

    Deterministic: two runs on the same instance produce identical usage
    graphs and traces. The returned graph is always conflict-free.
    """
    usage = UsageGraph(instance.n)
    order = processing_order(instance)
    pot = potentials(instance)
    conflicts = conflict_matrices(instance, usage)
    steps = tuple(select_step(instance, usage, i, pot, conflicts) for i in order)
    return usage, SelectionTrace(order=tuple(order), steps=steps)
