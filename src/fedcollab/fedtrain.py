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
* an n x n edge matrix, the usage graph's for ``fedcompetitors``: i
  itself and the collaborators of its column, weighted by their benefit
  values and i by the largest of them (nobody trusts a collaborator more
  than itself), normalized to sum 1. ``aggregation_coefficients`` returns
  that mixing row.

A round mixes all participants of a mixing together, one array step per
term position: the rows are padded to the widest with zero-coefficient
terms, and each step adds every participant's k-th term, so each model
is rounded as the ordered sum over its own row would round it.

Every participant draws shuffling randomness from its own seeded
stream, so a participant's trained model depends only on its own data
and the models that reach it through its mixing row.

The loop trains a list of distinct mixings (rows, mix_after) on a list
of tasks, the repetitions of one config, in lock step. Each task has its
own shuffle streams, seeded by its repetition seed ``task.config.seed``,
and every mixing of a task sees the same minibatches. Participants with
equal training-set sizes form a size group. Each round and epoch, every
member draws its own permutation from its own stream in each task, as it
would alone, and its shuffled rows are gathered from the task's training
rows. Each minibatch index is then one batched gradient step for every
mixing, every task and every member of the group. Each model's
arithmetic is the same as a one-participant loop, so the results are
bit-identical to training each task, each mixing and each participant on
its own. ``estimate_benefit`` makes one loop call for one task, and
``run_experiment`` one per block of repetitions, for the distinct
mixings of its methods; the tasks of a block hold at most
``MAX_SAMPLES`` samples in all. The simulator's job limits live here:
``formats`` holds config and report files to ``MAX_SAMPLES`` and
``MAX_DEGREE``, and ``simulate`` to ``MAX_TRAINING_WORK`` by
``check_training_work``; ``run_experiment`` enforces none of them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .graphs import Instance, InvalidInstanceError, check_competing, equal_fields, node_label
from .partition import Partition, min_clique_cover, scc_coalitions
from .selection import select_collaborators
from .synthdata import PRESET_NAMES, SyntheticConfig, SyntheticTask, generate_task

METHODS = ("local", "fedavg", "ce", "fedcompetitors")

AGGREGATION_RULE = "self-weight = max collaborator benefit, normalized to sum 1"

MAX_SAMPLES = 10_000_000
"""Largest total of the sample counts a config or report file may declare
(exit code 3 above): about 80 MB per float64 array drawn over all
participants, refused before any data is generated. ``simulate``'s peak
memory at this bound is stated at ``MAX_DEGREE``.
"""

MAX_DEGREE = 10
"""Largest polynomial degree a config or report file may declare (exit
code 3 above). A sample's features are ``degree`` float64 values, so one
copy of the feature matrix of ``MAX_SAMPLES`` samples takes 800 MB at
this bound; a larger degree is refused before any data is generated.
``simulate`` holds under 2 such copies at its peak: the train and
validation rows of the repetitions it trains together, and one size
group's shuffled training rows for an epoch. Its ``ru_maxrss`` peak was
442 MB at 2 x 1,000,000 samples and degree 10 (one round, one repetition,
``local`` only), 30 MB of it the interpreter and imports and 256 MB the
drawing of the task, whose splits reorder each feature matrix in place.
Extrapolated linearly, not run: about 2.1 GB at ``MAX_SAMPLES`` samples.
"""

MAX_TRAINING_WORK = 1_000_000_000
"""Largest training job ``simulate`` runs (exit code 3 above), counted as
rounds x local_epochs x reps x the total sample count. Both presets at
``--reps 10`` count 1.7 and 3.2 million. On one core of a 2-vCPU
machine, all four methods together train them at 0.10-0.14 microseconds
per unit, the ten repetitions stacked in one loop call, and six
participants of 50-1600 samples at 100 rounds and ``--reps 10`` at
0.10-0.18. One participant of 1,000,000 samples at one repetition stacks
nothing and took 1.3 microseconds per unit, its benefit estimate
included. So the bound is about 2-20 minutes of training, and a job
that would take hours is refused before it starts.
"""


def check_training_work(rounds: int, local_epochs: int, reps: int, samples) -> None:
    """Raise InvalidInstanceError when a job exceeds MAX_TRAINING_WORK."""
    work = rounds * local_epochs * reps * sum(samples)
    if work > MAX_TRAINING_WORK:
        raise InvalidInstanceError(
            f"training {rounds} rounds x {local_epochs} local epochs x {reps} reps over "
            f"{sum(samples)} samples is {work} sample-epochs, above the limit of "
            f"{MAX_TRAINING_WORK}")


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
    return (2.0 / y.shape[-1]) * np.matmul(phi.swapaxes(-1, -2), r[..., None])[..., 0]


def _participant_streams(seed: int, n: int) -> list[np.random.Generator]:
    return [np.random.default_rng(np.random.SeedSequence([seed, i])) for i in range(n)]


# A mixing row (sources, coefs): a round starts from sum(coefs[k] * model[sources[k]]).
Mixing = tuple[tuple[int, ...], tuple[float, ...]]


def aggregation_coefficients(usage: np.ndarray, benefit: np.ndarray, i: int) -> Mixing:
    """Participant i's personalized mixing row ((i, *collaborators), coefs).

    coefs[0] is i's own weight, the largest collaborator benefit before
    normalization; no collaborator gives ((i,), (1.0,)). A collaborator
    without positive benefit, or a sum past the float range, is refused.
    """
    collaborators = np.flatnonzero(usage[:, i])
    if not collaborators.size:
        return (i,), (1.0,)
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
        raise InvalidInstanceError(f"aggregation weights of participant {node_label(i)} "
                                   f"(index {i}) sum past the float range")
    return (i, *collaborators.tolist()), tuple((raw / total).tolist())


def _singletons(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple((i,) for i in range(n))


def _mixing(grouping, benefit: np.ndarray | None,
            sizes: list[int]) -> tuple[tuple[Mixing, ...], bool]:
    """Each participant's mixing row for ``grouping``, a tuple of groups
    or an n x n edge matrix read with ``benefit``, and whether the models
    are mixed once more after the last round (some group has two members).
    The pair is hashable, so equal mixings compare and hash equal."""
    if isinstance(grouping, np.ndarray):
        return tuple(aggregation_coefficients(grouping, benefit, i)
                     for i in range(len(sizes))), False
    rows = [None] * len(sizes)
    for group in grouping:
        weights = np.array([sizes[i] for i in group], dtype=np.float64)
        weights = tuple((weights / weights.sum()).tolist())
        for i in group:
            rows[i] = (tuple(group), weights)
    return tuple(rows), any(len(g) > 1 for g in grouping)


def _mix_table(rows: tuple[Mixing, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(sources, coefs) as (n, width) arrays, each row padded to the widest
    with zero-coefficient terms on its own first source."""
    width = max(len(sources) for sources, _ in rows)
    sources = np.array([src + src[:1] * (width - len(src)) for src, _ in rows], dtype=np.intp)
    coefs = np.array([c + (0.0,) * (width - len(c)) for _, c in rows], dtype=np.float64)
    return sources, coefs


def _mix(thetas: np.ndarray, sources: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """Every participant's mixed model from ``thetas`` (n, ...), one array
    step per term position, each participant's terms added in row order:
    the rounding of ``sum(c * thetas[j] for c, j in zip(coefs, sources))``.
    The leading ``0.0 +`` is that sum's integer start, and a padded term
    adds +-0.0 to a running value that is never -0.0, for finite models."""
    c = coefs.reshape(coefs.shape + (1,) * (thetas.ndim - 1))
    out = 0.0 + c[:, 0] * thetas[sources[:, 0]]
    for k in range(1, c.shape[1]):
        out = out + c[:, k] * thetas[sources[:, k]]
    return out


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
def _round_loop(tasks: list[SyntheticTask], mixings: list[tuple[tuple[Mixing, ...], bool]],
                cfg: TrainConfig) -> np.ndarray:
    """The models after ``cfg.rounds`` rounds of each mixing (rows,
    mix_after) on each task, shape (len(tasks), len(mixings), n, degree).

    The tasks share their training-set sizes (repetitions of one config),
    and each task shuffles with the streams of ``task.config.seed``. Every
    model is trained in lock step, by size group, with the arithmetic of a
    one-participant loop. A call stops at the first round in which any of
    its models is non-finite, whichever task it belongs to.
    """
    sizes = [len(y) for _, y in tasks[0].train]
    groups = _size_groups(sizes)
    streams = [_participant_streams(task.config.seed, len(sizes)) for task in tasks]
    # (mixing, participant, task, degree): a mixing row sums (task, degree) slices
    thetas = np.zeros((len(mixings), len(sizes), len(tasks), tasks[0].config.degree))
    tables = [_mix_table(rows) for rows, _ in mixings]
    for rnd in range(cfg.rounds):
        start = np.array([_mix(models, *table) for models, table in zip(thetas, tables)])
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
                        phi.take(order, axis=0, out=phi_e[g, r])
                        y.take(order, out=y_e[g, r])
                for s in range(0, m, cfg.batch_size):
                    batch = slice(s, s + cfg.batch_size)
                    models -= cfg.learning_rate * loss_gradient(models, phi_e[:, :, batch],
                                                                y_e[:, :, batch])
            thetas[:, members] = models
        if not np.isfinite(thetas).all():
            raise TrainingDivergenceError(f"non-finite model parameters during round {rnd}")
    for models, table, (_, mix_after) in zip(thetas, tables, mixings):
        if mix_after:
            models[:] = _mix(models, *table)
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
    thetas = _round_loop([task], [local], cfg)[0, 0]

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
        return equal_fields(self, other, (f.name for f in fields(self)))


def _rep_seed(base: int, rep: int) -> int:
    return int(np.random.SeedSequence([base, rep]).generate_state(1)[0])


def run_experiment(config: SyntheticConfig, competing: np.ndarray, *,
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
    repetition stops its block at that round. ``preset`` only labels the
    report, and is None or a name of ``PRESET_NAMES``: a report writes it
    as it is and must read it back.
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
    if preset is not None and preset not in PRESET_NAMES:
        raise ValueError(f"preset must be None or one of {PRESET_NAMES}, got {preset!r}")

    competing = check_competing(config.n, competing)  # before the costly estimate
    if benefit is None:
        benefit = estimate_benefit(generate_task(config), train_config)
    instance = Instance(config.n, competing, benefit)
    usage = select_collaborators(instance)[0].x
    cover = min_clique_cover(instance)
    coalitions = scc_coalitions(instance, cover)
    grouping = {"local": _singletons(config.n), "fedavg": cover.groups,
                "ce": coalitions.groups, "fedcompetitors": usage}

    block = max(1, MAX_SAMPLES // sum(config.samples))
    scores: dict[str, list[np.ndarray]] = {m: [] for m in methods}
    for first in range(0, reps, block):
        tasks = [generate_task(replace(config, seed=_rep_seed(config.seed, rep)))
                 for rep in range(first, min(first + block, reps))]
        sizes = [len(y) for _, y in tasks[0].train]
        keys = {m: _mixing(grouping[m], instance.benefit, sizes) for m in methods}
        # methods whose mixings coincide (ce on singleton coalitions and local,
        # say) train bit-identical models, so each distinct mixing trains once
        distinct = list(dict.fromkeys(keys.values()))
        for task, thetas in zip(tasks, _round_loop(tasks, distinct, train_config)):
            trained = {key: _scores(t, task.val) for key, t in zip(distinct, thetas)}
            for m in methods:
                scores[m].append(trained[keys[m]])

    mean = {m: tuple(float(v) for v in np.mean(scores[m], axis=0)) for m in methods}
    std = {m: tuple(float(v) for v in np.std(scores[m], axis=0)) for m in methods}
    return ExperimentReport(
        methods=tuple(methods), reps=reps, mean=mean, std=std, config=config,
        train_config=train_config, preset=preset, clique_cover=cover, coalitions=coalitions,
        usage=usage, benefit=instance.benefit,
    )
