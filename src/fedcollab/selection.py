"""Greedy conflict-free collaborator selection.

Participants are served in nonincreasing order of their potential (total
benefit offered to others). For each participant i, candidates — the
non-competing nodes whose data would benefit i — are taken in
nonincreasing benefit order, and a candidate j is accepted iff both
conflict guards for the edge j -> i are empty against the usage graph.
The result always satisfies the conflict-freedom constraint.

All candidates of one step are decided together, on the graph as it
stood before the step. This gives exactly the verdicts and guard sets of
a scan that adds each accepted edge before it checks the next candidate.
New paths through an edge j -> i all end in a descendant of i, so i's
descendants ``closure[i]`` and ``desc_comp[i]`` do not change within the
step. For a later candidate k, the upstream guard ``anc_comp[k] &
closure[i]`` can only gain ``anc_comp[j] & closure[i]``, and the
downstream guard ``desc_comp[i] & closure[:, k]`` can only gain
``desc_comp[i] & closure[:, j]``. Those are j's own guards, which were
empty when j was accepted, so no guard reads differently in scan order.

Alongside the closure the engine keeps two conflict matrices (see
:func:`conflict_matrices`) that turn the guards into row ANDs. A step
therefore costs one |C| x n AND per guard for its |C| candidates, and one
update for all of its accepted edges: the closure and ``desc_comp`` rows
of the accepted candidates' ancestors and the ``anc_comp`` rows of i's
descendants, each ORed with one row.
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


def _sparse(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(entries per row, their columns in row order) of a boolean matrix."""
    columns = np.flatnonzero(mask) % mask.shape[1]
    return np.count_nonzero(mask, axis=1).astype(np.int32), columns.astype(np.int32)


@dataclass(frozen=True, eq=False)
class StepTrace:
    """One participant's step, as columns over its candidates in scan order.

    ``upstream`` and ``downstream`` hold the guard entries sparsely: the
    number of guard nodes of each candidate, and all of them concatenated
    in scan order, ascending within a candidate. Accepts have none.
    """

    participant: int
    potential: float
    objective: float
    candidates: np.ndarray
    weights: np.ndarray
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
    def decisions(self) -> tuple[CandidateDecision, ...]:
        return tuple(CandidateDecision(j, w, ok, tuple(up), tuple(down))
                     for j, w, ok, up, down in zip(self.candidates.tolist(),
                                                   self.weights.tolist(),
                                                   self.verdicts.tolist(), *self.guards()))

    @property
    def accepted(self) -> tuple[int, ...]:
        return tuple(self.candidates[self.verdicts].tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepTrace):
            return NotImplemented
        return ((self.participant, self.potential, self.objective)
                == (other.participant, other.potential, other.objective)
                and all(map(np.array_equal, self._columns(), other._columns())))

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.candidates, self.weights, self.verdicts, *self.upstream, *self.downstream)


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
    w = instance.benefit[:, i]  # the diagonal is zero, so i is never its own candidate
    js = np.flatnonzero((w > 0.0) & ~instance.competing[:, i])
    return js[np.argsort(-w[js], kind="stable")].tolist()


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
    with the accepted edges, so a caller running several steps on one
    usage graph keeps them in step by passing the same pair each time.

    Requires a conflict-free usage graph on entry; a violation here is a
    programming error, not an input condition, hence the hard failure. The
    check runs only when ``conflicts`` is omitted: matrices kept in step
    through :func:`select_collaborators` already rule a violation out.
    """
    if conflicts is None:
        if not conflict_free(instance, usage):
            raise RuntimeError("usage graph already violates conflict freedom "
                               "before selection step")
        conflicts = conflict_matrices(instance, usage)
    if pot is None:
        pot = potentials(instance)
    anc_comp, desc_comp = conflicts
    cand = np.array(candidate_collaborators(instance, i), dtype=np.intp)
    clo = usage.closure
    # every guard reads the same on the graph before the step (module docstring)
    upstream = anc_comp[cand] & clo[i]
    downstream = clo[:, cand].T & desc_comp[i]
    verdicts = ~(upstream.any(axis=1) | downstream.any(axis=1))
    # an edge authorized by an earlier step joins no competitors, so its
    # guards are empty, and it is accepted as it stands
    added = cand[verdicts & ~usage.x[cand, i]]
    if added.size:
        # the edges give every descendant of i the ancestors of the added
        # candidates, and each of those ancestors the descendants of i; every
        # right-hand row is read before the closure changes
        anc_comp[clo[i]] |= anc_comp[added].any(axis=0)
        desc_comp[clo[:, added].any(axis=1)] |= desc_comp[i]
        usage.add_edges(added, i)
    weights = instance.benefit[cand, i]
    objective = 0.0
    for w in weights[verdicts].tolist():  # summed in scan order
        objective += w
    return StepTrace(int(i), float(pot[i]), objective, cand, weights, verdicts,
                     _sparse(upstream), _sparse(downstream))


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
