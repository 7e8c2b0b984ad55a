"""Synthetic non-IID polynomial regression tasks.

Each participant i holds scalar features x ~ U[-1, 1] and labels

    y = s_i * sum_l u[i, l] * x^l + eps,   l = 1..degree,

where the ground-truth weights u[i, l] = v[l] + r[i, l] share a base
v ~ U[0, 1] drawn once for the whole task and differ by per-participant
perturbations r[i, l] ~ N(0, rho^2); eps ~ N(0, noise_std^2) and
s_i = -1 for label-flipped participants. rho controls how non-IID the
feature-to-label maps are; flips create outright conflicting tasks. A
task hands out each participant's train and validation rows of the
powers (x, x^2, ..., x^degree) its labels were computed from, with those
labels; the split is taken once, as the task is drawn, and no index
arrays are kept. The features x themselves are the first column, and
the powers are a running product, x^k = x^(k-1) * x, so they are the
same bits whatever SIMD code numpy picks for the host.

Two fixed eight-participant presets are bundled, one row each of the
``PRESETS`` table (samples, flips, competing pairs) that :func:`preset`
reads, returning the pairs as their matrix (:func:`competing_matrix`):

* ``weak_noniid`` — rho = 0.01, quantity skew (participants 1, 2, 5, 6
  hold 2000 samples, the rest 100), no flips; the two large blocks
  compete across, and each small participant competes with one large one.
* ``strong_noniid`` — no skew (2000 samples each), labels flipped for
  participants 5..8; competition makes {1,2} vs {3,4} and {5,6} vs {7,8}
  enemies inside two otherwise independent halves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import InvalidInstanceError, node_label

# Unordered competing pairs, 0-based.
WEAK_COMPETING_EDGES: tuple[tuple[int, int], ...] = (
    (0, 4), (0, 5), (1, 4), (1, 5),  # large vs large across the blocks
    (0, 6), (1, 7), (2, 4), (3, 5),  # each small vs one large
)
STRONG_COMPETING_EDGES: tuple[tuple[int, int], ...] = (
    (0, 2), (0, 3), (1, 2), (1, 3),
    (4, 6), (4, 7), (5, 6), (5, 7),
)

# name -> (samples, flipped, competing pairs); every preset has rho = 0.01
PRESETS: dict[str, tuple[tuple[int, ...], tuple[bool, ...], tuple[tuple[int, int], ...]]] = {
    "weak_noniid": ((2000, 2000, 100, 100, 2000, 2000, 100, 100), (False,) * 8,
                    WEAK_COMPETING_EDGES),
    "strong_noniid": ((2000,) * 8, (False,) * 4 + (True,) * 4, STRONG_COMPETING_EDGES),
}
PRESET_NAMES = tuple(PRESETS)


@dataclass(frozen=True)
class SyntheticConfig:
    n: int
    samples: tuple[int, ...]
    flipped: tuple[bool, ...]
    rho: float = 0.01
    degree: int = 3
    noise_std: float = 0.1
    seed: int = 0
    val_fraction: float = 0.2

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one participant")
        if len(self.samples) != self.n or any(m < 1 for m in self.samples):
            raise ValueError("samples must list a positive count per participant")
        if len(self.flipped) != self.n:
            raise ValueError("flipped must list a flag per participant")
        if self.rho < 0 or self.noise_std < 0:
            raise ValueError("rho and noise_std must be nonnegative")
        if self.degree < 1:
            raise ValueError("degree must be positive")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError("val_fraction must be in (0, 1)")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class SyntheticTask:
    """Ground truth and the split: ``train[i]`` and ``val[i]`` are participant
    i's (features, labels) rows, a one-sample participant's row in both; the
    two feature arrays are views of one buffer."""

    config: SyntheticConfig
    weights: np.ndarray  # (n, degree) ground-truth coefficients
    train: list[tuple[np.ndarray, np.ndarray]]
    val: list[tuple[np.ndarray, np.ndarray]]

    @property
    def n(self) -> int:
        return self.config.n


def polynomial_features(x: np.ndarray, degree: int) -> np.ndarray:
    """Feature map (x, x^2, ..., x^degree) as an (m, degree) matrix, a
    running product written column by column: x^k is x^(k-1) * x, k - 1
    IEEE multiplies, so the features are the same bits on every host and
    at every SIMD level (numpy's vectorized ``pow`` is neither)."""
    phi = np.empty((len(x), degree))
    phi[:, 0] = x
    for k in range(1, degree):
        np.multiply(phi[:, k - 1], x, out=phi[:, k])
    return phi


_BLOCK = 1 << 16  # rows moved at a time by _split_rows


def _split_rows(phi: np.ndarray, val_idx: np.ndarray,
                train_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(phi[val_idx], phi[train_idx])`` as the front and the back of
    ``phi``'s own buffer, for sorted indices that hold every row once, so
    the rows are never held twice. The train rows move back in place, a
    block at a time from the last: train row k comes from row
    ``train_idx[k] <= len(val_idx) + k``, below every row a later block
    writes. The validation rows, copied out first, then fill the front."""
    n_val = len(val_idx)
    val_rows = phi[val_idx]
    for end in range(len(train_idx), 0, -_BLOCK):
        start = max(0, end - _BLOCK)
        phi[n_val + start:n_val + end] = phi[train_idx[start:end]]
    phi[:n_val] = val_rows
    return phi[:n_val], phi[n_val:]


def generate_task(config: SyntheticConfig) -> SyntheticTask:
    """Draw a task deterministically from config.seed.

    The shared base weights use one seed stream and every participant
    has its own substream, so one participant's data does not depend on
    another's sample count.
    """
    root = np.random.SeedSequence(config.seed)
    shared, *per_part = root.spawn(config.n + 1)
    base = np.random.default_rng(shared).uniform(0.0, 1.0, size=config.degree)

    train, val = [], []
    weights = np.empty((config.n, config.degree))
    for i in range(config.n):
        rng = np.random.default_rng(per_part[i])
        u = weights[i] = base + rng.normal(0.0, config.rho, size=config.degree)
        m = config.samples[i]
        x = rng.uniform(-1.0, 1.0, size=m)
        noise = rng.normal(0.0, config.noise_std, size=m)
        sign = -1.0 if config.flipped[i] else 1.0
        phi = polynomial_features(x, config.degree)
        # (sign * phi) @ u would copy phi; negating is exact, so the labels are unchanged
        with np.errstate(over="ignore", invalid="ignore"):
            y = sign * (phi @ u) + noise
        if not np.isfinite(y).all():
            raise InvalidInstanceError(f"labels of participant {node_label(i)} (index {i}) "
                                       "are not finite")
        perm = rng.permutation(m)
        n_val = max(1, min(int(round(m * config.val_fraction)), m - 1))
        val_idx = np.sort(perm[:n_val])
        # a one-sample holder's single sample serves both roles
        train_idx = np.sort(perm[n_val:]) if m > 1 else val_idx
        val_phi, train_phi = _split_rows(phi, val_idx, train_idx) if m > 1 else (phi, phi)
        val.append((val_phi, y[val_idx]))
        train.append((train_phi, y[train_idx]))
    return SyntheticTask(config=config, weights=weights, train=train, val=val)


def preset(name: str, seed: int = 0) -> tuple[SyntheticConfig, np.ndarray]:
    """Bundled (config, competing matrix) pair for a named preset."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESET_NAMES}")
    samples, flipped, edges = PRESETS[name]
    n = len(samples)
    return SyntheticConfig(n, samples, flipped, rho=0.01, seed=seed), competing_matrix(n, edges)


def competing_matrix(n: int, edges) -> np.ndarray:
    """Symmetric boolean adjacency from unordered index pairs, each checked
    to be two distinct ints in 0..n-1 (numpy would wrap a negative one)."""
    s = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        if a == b or not all(isinstance(k, (int, np.integer)) and 0 <= k < n for k in (a, b)):
            raise ValueError(f"competing pair {(a, b)} is not two distinct nodes of n={n}")
        s[a, b] = s[b, a] = True
    return s
