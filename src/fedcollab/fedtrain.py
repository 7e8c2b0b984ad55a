"""Desk-scale federated training over the synthetic regression tasks.

The shared model is a linear head over the polynomial feature map
(x, x^2, ..., x^degree), trained by mini-batch SGD on the mean squared
error. Epochs walk the participant's own training split, so the number
of gradient steps per round scales with local sample count — the
mechanism through which quantity skew hurts small participants.

Every method is a *grouping*, and all of them run one round loop. Each
participant i has a *mixing row* (sources, coefs): every round, i starts
from sum(coefs[k] * model[sources[k]]) over the previous round's models
and trains ``local_epochs`` on its own data. ``run_experiment`` maps each
method to its grouping, which is either

* a tuple of groups, each averaged by training-set size: singletons for
  ``local``, the clique cover for ``fedavg`` and the coalitions (strongly
  connected components of the benefit graph inside each clique) for
  ``ce``. Groups are mixed once more after the last round, so every
  member ends with the group's model; or
* a UsageGraph, for ``fedcompetitors``: i itself and its authorized
  collaborators, weighted by their benefit values and i by the largest
  of them (nobody trusts a collaborator more than itself), normalized
  to sum 1.

Every participant draws shuffling randomness from its own seeded
stream, so a participant's trained model depends only on its own data
and the models that reach it through its mixing row.

The loop trains a list of distinct mixings (rows, mix_after) on a list
of tasks, the repetitions of one config, in lock step. Task r has its
own shuffle streams, seeded by its repetition seed, and every mixing of
a task sees the same minibatches. Participants with equal training-set
sizes form a size group. Each round and epoch, every member draws its
own permutation from its own stream in each task, as it would alone,
and its shuffled rows are gathered from the task's training rows. Each
minibatch index is then one batched gradient step for every mixing,
every task and every member of the group. Each model's arithmetic is
the same as a one-participant loop, so the results are bit-identical to
training each task, each mixing and each participant on its own.
``estimate_benefit`` makes one loop call for one task, and
``run_experiment`` one per block of repetitions, for the distinct
mixings of its methods; the tasks of a block hold at most
``MAX_SAMPLES`` samples in all.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .graphs import Instance, InvalidInstanceError, UsageGraph
from .partition import Partition, min_clique_cover, scc_coalitions
from .selection import select_collaborators
from .synthdata import (SyntheticConfig, SyntheticTask, competing_matrix,
                        generate_task, with_seed)

METHODS = ("local", "fedavg", "ce", "fedcompetitors")

AGGREGATION_RULE = "self-weight = max collaborator benefit, normalized to sum 1"

MAX_SAMPLES = 10_000_000
"""Largest total of the sample counts a config or report file may declare
(exit code 3 above): about 80 MB per float64 array drawn over all
participants, refused before any data is generated. ``run_experiment``
trains its repetitions in blocks whose tasks hold at most this many
samples in all. ``simulate`` holds under 2 copies of the feature matrix
at its peak: about 2.0 GB at this bound and ``formats.MAX_DEGREE``,
extrapolated and not run (see ``formats.MAX_DEGREE``).
"""


class TrainingDivergenceError(RuntimeError):
    """Raised when training produces non-finite parameters or losses."""


@dataclass(frozen=True)
class TrainConfig:
    rounds: int = 20
    local_epochs: int = 1
    learning_rate: float = 0.02
    batch_size: int = 32
    # relative improvement below which a cross-training gain is treated
    # as sampling noise rather than genuine benefit
    benefit_threshold: float = 0.1

    def __post_init__(self) -> None:
        if self.rounds < 1 or self.local_epochs < 1 or self.batch_size < 1:
            raise ValueError("rounds, local_epochs and batch_size must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.benefit_threshold < 0:
            raise ValueError("benefit_threshold must be nonnegative")


def mean_squared_error(theta: np.ndarray, phi: np.ndarray, y: np.ndarray) -> float:
    r = phi @ theta - y
    return float(r @ r / len(y))


def loss_gradient(theta: np.ndarray, phi: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of mean_squared_error with respect to theta.

    Leading axes broadcast: theta (..., d), phi (..., b, d) and y (..., b)
    give one gradient per stacked model, each computed as the 1-D call
    computes it.
    """
    r = np.matmul(phi, theta[..., None])[..., 0] - y
    return (2.0 / y.shape[-1]) * np.matmul(np.swapaxes(phi, -1, -2), r[..., None])[..., 0]


def _participant_streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(n)]


def aggregation_coefficients(usage: UsageGraph, benefit: np.ndarray,
                             i: int) -> tuple[list[int], np.ndarray]:
    """Personalized mixing weights for participant i: (collaborators, coefs).

    coefs[0] belongs to i itself and equals the largest collaborator
    benefit before normalization; coefs[1:] follow the collaborator
    list. Empty collaborator list means no mixing at all. A collaborator
    without positive benefit, or a sum past the float range, is refused.
    """
    collaborators = np.flatnonzero(usage.x[:, i])
    if not collaborators.size:
        return [], np.array([1.0])
    ws = np.array(benefit[collaborators, i], dtype=np.float64)
    refused = np.flatnonzero(~(ws > 0))  # NaN included
    if refused.size:
        k = refused[0]
        raise ValueError(f"usage edge ({collaborators[k]}, {i}) has benefit {ws[k]}, "
                         "which is not positive")
    raw = np.concatenate(([ws.max()], ws))
    with np.errstate(over="ignore"):
        total = raw.sum()
    if not np.isfinite(total):
        raise InvalidInstanceError(f"aggregation weights of participant v{i + 1} (index {i}) "
                                   "sum past the float range")
    return collaborators.tolist(), raw / total


# A mixing row (sources, coefs): a round starts from sum(coefs[k] * model[sources[k]]).
Mixing = tuple[tuple[int, ...], tuple[float, ...]]


def _singletons(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(n))


def _mixing(grouping, benefit: np.ndarray | None,
            sizes: list[int]) -> tuple[list[Mixing], bool]:
    """Each participant's mixing row for ``grouping``, a tuple of groups
    or a UsageGraph read with ``benefit``, and whether the models are
    mixed once more after the last round (some group has two members)."""
    if isinstance(grouping, UsageGraph):
        rows = []
        for i in range(len(sizes)):
            collaborators, coefs = aggregation_coefficients(grouping, benefit, i)
            rows.append(((i, *collaborators), tuple(coefs.tolist())))
        return rows, False
    rows = [None] * len(sizes)
    for group in grouping:
        weights = np.array([sizes[i] for i in group], dtype=np.float64)
        weights = tuple((weights / weights.sum()).tolist())
        for i in group:
            rows[i] = (tuple(group), weights)
    return rows, any(len(g) > 1 for g in grouping)


def _mix(thetas: np.ndarray, row: Mixing) -> np.ndarray:
    # an ordered Python sum, not a matrix product, so the rounding is fixed
    sources, coefs = row
    return sum(c * thetas[j] for c, j in zip(coefs, sources))


def _size_groups(sizes: list[int]) -> list[list[int]]:
    """Participant indices grouped by equal training-set size."""
    by_size: dict[int, list[int]] = {}
    for i, m in enumerate(sizes):
        by_size.setdefault(m, []).append(i)
    return list(by_size.values())


# Overflow in training shows up as non-finite models or losses, which
# the round loop, _scores and estimate_benefit report as divergence.
_UNCHECKED = np.errstate(over="ignore", invalid="ignore")


@_UNCHECKED
def _round_loop(tasks: list[SyntheticTask], seeds: list[int],
                mixings: list[tuple[list[Mixing], bool]], cfg: TrainConfig) -> np.ndarray:
    """The models after ``cfg.rounds`` rounds of each mixing (rows,
    mix_after) on each task, shape (len(tasks), len(mixings), n, degree).

    The tasks share their training-set sizes (repetitions of one config),
    and task r shuffles with the streams of ``seeds[r]``. Every model is
    trained in lock step, by size group, with the arithmetic of a
    one-participant loop. A call stops at the first round in which any of
    its models is non-finite, whichever task it belongs to.
    """
    sizes = [len(y) for _, y in tasks[0].train]
    groups = _size_groups(sizes)
    streams = [_participant_streams(seed, len(sizes)) for seed in seeds]
    # (mixing, participant, task, degree): a mixing row sums (task, degree) slices
    thetas = np.zeros((len(mixings), len(sizes), len(tasks), tasks[0].config.degree))
    for rnd in range(cfg.rounds):
        start = np.array([[_mix(models, row) for row in rows]
                          for models, (rows, _) in zip(thetas, mixings)])
        for members in groups:
            models = start[:, members]
            m = sizes[members[0]]
            for _ in range(cfg.local_epochs):
                # each (member, task) shuffles straight from the task's own rows
                phi_e = np.empty((len(members), len(tasks), m, thetas.shape[-1]))
                y_e = np.empty((len(members), len(tasks), m))
                for g, i in enumerate(members):
                    for r, task in enumerate(tasks):
                        order = streams[r][i].permutation(m)
                        phi, y = task.train[i]
                        np.take(phi, order, axis=0, out=phi_e[g, r])
                        np.take(y, order, out=y_e[g, r])
                for s in range(0, m, cfg.batch_size):
                    batch = slice(s, s + cfg.batch_size)
                    models -= cfg.learning_rate * loss_gradient(models, phi_e[:, :, batch],
                                                                y_e[:, :, batch])
            thetas[:, members] = models
        if not np.isfinite(thetas).all():
            raise TrainingDivergenceError(f"non-finite model parameters during round {rnd}")
    for models, (rows, mix_after) in zip(thetas, mixings):
        if mix_after:
            models[:] = [_mix(models, row) for row in rows]
    return np.moveaxis(thetas, 2, 0)


@_UNCHECKED
def _scores(thetas: np.ndarray, val_data) -> np.ndarray:
    scores = np.array([mean_squared_error(t, *val) for t, val in zip(thetas, val_data)])
    if not np.isfinite(scores).all():
        raise TrainingDivergenceError("non-finite validation loss")
    return scores


@_UNCHECKED
def estimate_benefit(task: SyntheticTask, train_config: TrainConfig = TrainConfig()) -> np.ndarray:
    """Cross-training benefit estimate.

    ``w[j, i]`` is the validation-MSE improvement participant i would
    see by adopting a model trained purely on j's data instead of its
    own, clamped to zero when the relative improvement is below the
    configured threshold (sampling noise, not signal). Local models are
    trained exactly as the ``local`` pipeline would with the task's seed.
    """
    cfg = train_config
    local = _mixing(_singletons(task.n), None, [len(y) for _, y in task.train])
    thetas = _round_loop([task], [task.config.seed], [local], cfg)[0, 0]

    # cross[j, i]: j's local model on i's validation data
    cross = np.array([[mean_squared_error(theta, *data) for data in task.val]
                      for theta in thetas])
    if not np.isfinite(cross).all():
        raise TrainingDivergenceError("non-finite validation loss during benefit estimation")
    base = cross.diagonal()
    gain = base - cross  # gain[j, i] = base[i] - cross[j, i], 0 on the diagonal
    return np.where(gain > cfg.benefit_threshold * base, gain, 0.0)


@dataclass
class ExperimentReport:
    """Per-method, per-participant validation MSE across repetitions."""

    methods: tuple[str, ...]
    reps: int
    mean: dict[str, tuple[float, ...]]
    std: dict[str, tuple[float, ...]]
    config: SyntheticConfig
    train_config: TrainConfig
    preset: str | None
    clique_cover: Partition
    coalitions: Partition
    usage: np.ndarray  # the n x n boolean edge matrix of the usage graph
    benefit: np.ndarray
    aggregation: str = AGGREGATION_RULE

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExperimentReport):
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray)
                    else mine == theirs):
                return False
        return True


def _rep_seed(base: int, rep: int) -> int:
    return int(np.random.SeedSequence([base, rep]).generate_state(1)[0])


def run_experiment(config: SyntheticConfig, competing_edges, *,
                   methods: tuple[str, ...] = METHODS,
                   train_config: TrainConfig = TrainConfig(),
                   reps: int = 10,
                   benefit: np.ndarray | None = None,
                   preset: str | None = None) -> ExperimentReport:
    """Full pipeline: estimate benefit, select collaborators, build the
    baseline partitions, then train every requested method over `reps`
    freshly drawn repetitions of the task.

    The benefit matrix, usage graph and partitions are computed once
    from the base-seed task (or taken from a user-supplied matrix) and
    held fixed across repetitions; repetitions redraw data and shuffle
    streams. They train in blocks, one round-loop call each, whose tasks
    hold at most ``MAX_SAMPLES`` samples in all, and a diverging
    repetition stops its block at that round.
    """
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected a subset of {METHODS}")
    if not methods:
        raise ValueError("'methods' needs at least one method")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must be distinct, got {methods}")
    if reps < 1:
        raise ValueError("reps must be positive")

    competing = competing_matrix(config.n, competing_edges)  # checked before the costly estimate
    if benefit is None:
        benefit = estimate_benefit(generate_task(config), train_config)
    instance = Instance(config.n, competing, benefit)
    usage, _ = select_collaborators(instance)
    cover = min_clique_cover(instance)
    coalitions = scc_coalitions(instance, cover)
    grouping = {"local": _singletons(config.n), "fedavg": cover.groups,
                "ce": coalitions.groups, "fedcompetitors": usage}

    block = max(1, MAX_SAMPLES // sum(config.samples))
    scores: dict[str, list[np.ndarray]] = {m: [] for m in methods}
    for first in range(0, reps, block):
        seeds = [_rep_seed(config.seed, rep) for rep in range(first, min(first + block, reps))]
        tasks = [generate_task(with_seed(config, seed)) for seed in seeds]
        sizes = [len(y) for _, y in tasks[0].train]
        keys = {}
        for m in methods:
            rows, mix_after = _mixing(grouping[m], instance.benefit, sizes)
            keys[m] = (tuple(rows), mix_after)
        # methods whose mixings coincide (ce on singleton coalitions and local,
        # say) train bit-identical models, so each distinct mixing trains once
        distinct = list(dict.fromkeys(keys.values()))
        for task, thetas in zip(tasks, _round_loop(tasks, seeds, distinct, train_config)):
            trained = {key: _scores(t, task.val) for key, t in zip(distinct, thetas)}
            for m in methods:
                scores[m].append(trained[keys[m]])

    mean = {m: tuple(float(v) for v in np.mean(scores[m], axis=0)) for m in methods}
    std = {m: tuple(float(v) for v in np.std(scores[m], axis=0)) for m in methods}
    return ExperimentReport(
        methods=tuple(methods), reps=reps, mean=mean, std=std, config=config,
        train_config=train_config, preset=preset, clique_cover=cover, coalitions=coalitions,
        usage=usage.x.copy(), benefit=instance.benefit,
    )
