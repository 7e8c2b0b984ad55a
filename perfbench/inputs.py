"""Seeded inputs for the benchmark workloads.

Everything here is written by the benchmark itself from ``--seed``; the
program only ever sees the resulting text files. Edge counts are fixed
per input shape (only which pairs get them depends on the seed), so the
number of selection decisions, guard checks and oracle calls is the same
for every seed and the work per pass barely moves between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RandomInstance:
    """One generated problem: symmetric competition, nonnegative benefit."""

    n: int
    competing: np.ndarray  # (n, n) bool, symmetric, zero diagonal
    benefit: np.ndarray  # (n, n) float, zero off the benefit support

    def text(self) -> str:
        lines = [f"n {self.n}"]
        a_idx, b_idx = np.nonzero(np.triu(self.competing))
        lines += [f"competing v{a + 1} v{b + 1}" for a, b in zip(a_idx.tolist(), b_idx.tolist())]
        j_idx, i_idx = np.nonzero(self.benefit)
        lines += [f"benefit v{j + 1} v{i + 1} {float(self.benefit[j, i])!r}"
                  for j, i in zip(j_idx.tolist(), i_idx.tolist())]
        return "\n".join(lines) + "\n"


def random_instance(rng: np.random.Generator, n: int, competing_pairs: int,
                    benefit_share: float) -> RandomInstance:
    """Exactly ``competing_pairs`` competing pairs, and benefit on exactly
    ``round(benefit_share * free)`` of the ``free`` ordered non-competing
    pairs, with weights uniform in [0.05, 1)."""
    upper = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    competing = np.zeros(n * n, dtype=bool)
    competing[rng.choice(upper, competing_pairs, replace=False)] = True
    competing = competing.reshape(n, n)
    competing |= competing.T
    free = np.flatnonzero(~competing & ~np.eye(n, dtype=bool))
    benefit = np.zeros(n * n)
    chosen = rng.choice(free, int(round(benefit_share * free.size)), replace=False)
    benefit[chosen] = rng.uniform(0.05, 1.0, chosen.size)
    return RandomInstance(n, competing, benefit.reshape(n, n))


def pair_count(n: int, share: float) -> int:
    return int(round(share * n * (n - 1) / 2))


# select_random: three sizes, each at a sparse competition density (most
# candidates accepted) and a dense one (most rejected).
SELECT_SIZES = (40, 100, 160)
COMPETITION_SHARES = {"sparse": 0.01, "dense": 0.15}
BENEFIT_SHARE = 0.3

# verify_audit: two large instances whose select outputs are audited as
# written and with one rejected edge added back, plus small instances for
# which verify also runs the path-enumeration oracle (n <= 12).
VERIFY_LARGE_N = 200
VERIFY_SMALL_N = 12
VERIFY_SMALL_COUNT = 6
VERIFY_SMALL_COMPETING = 10
VERIFY_SMALL_BENEFIT_SHARE = 0.36  # 40 of the 112 free ordered pairs

# simulate_presets: both bundled presets, all four methods.
SIMULATE_REPS = 2


@dataclass(frozen=True)
class PresetSpec:
    """The bundled presets as the synthdata module documents them."""

    samples: tuple[int, ...]
    flipped: tuple[bool, ...]
    competing: tuple[tuple[int, int], ...]  # 0-based unordered pairs
    rho: float = 0.01
    degree: int = 3
    noise_std: float = 0.1
    val_fraction: float = 0.2

    @property
    def n(self) -> int:
        return len(self.samples)


PRESETS = {
    "weak_noniid": PresetSpec(
        samples=(2000, 2000, 100, 100, 2000, 2000, 100, 100),
        flipped=(False,) * 8,
        competing=((0, 4), (0, 5), (1, 4), (1, 5), (0, 6), (1, 7), (2, 4), (3, 5)),
    ),
    "strong_noniid": PresetSpec(
        samples=(2000,) * 8,
        flipped=(False,) * 4 + (True,) * 4,
        competing=((0, 2), (0, 3), (1, 2), (1, 3), (4, 6), (4, 7), (5, 6), (5, 7)),
    ),
}


def competing_matrix(n: int, pairs) -> np.ndarray:
    s = np.zeros((n, n), dtype=bool)
    for a, b in pairs:
        s[a, b] = s[b, a] = True
    return s
