"""Output checks computed apart from the program.

Nothing here imports fedcollab: reachability comes from repeated boolean
squaring of the written edges, and the ``local`` MSE from a short SGD
written against the data model the synthdata and fedtrain docstrings
describe. Each checker returns a list of problems; an empty list means
the output is correct.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import PresetSpec, competing_matrix

# The reference SGD does the same arithmetic as the program, so results
# agree to the last bits today; this leaves room for a reordered sum.
MSE_RTOL = 1e-6
OBJECTIVE_RTOL = 1e-9

# verify also runs the path-enumeration oracle up to this many participants
PATH_ORACLE_MAX_N = 12

TRAIN_ROUNDS = 20
TRAIN_LR = 0.02
TRAIN_BATCH = 32


def node(label: str) -> int:
    if not (label[:1] == "v" and label[1:].isdigit() and int(label[1:]) >= 1):
        raise ValueError(f"bad participant label {label!r}")
    return int(label[1:]) - 1


def content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if fields:
            out.append(fields)
    return out


def closure(n: int, edges) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean squaring."""
    reach = np.eye(n)
    for j, i in edges:
        reach[j, i] = 1.0
    while True:
        squared = (reach @ reach > 0).astype(float)
        if np.array_equal(squared, reach):
            return reach > 0
        reach = squared


# ---------------------------------------------------------------------------
# select


def check_selection(competing: np.ndarray, benefit: np.ndarray, text: str) -> list[str]:
    n = competing.shape[0]
    problems: list[str] = []
    edges: list[tuple[int, int]] = []
    closure_lines: set[tuple[int, int]] = set()
    steps: dict[int, float] = {}
    decisions: list[tuple[int, int, float, bool]] = []
    declared_n = None
    for fields in content_lines(text):
        key = fields[0]
        if key == "n":
            declared_n = int(fields[1])
        elif key == "edge":
            edges.append((node(fields[1]), node(fields[2])))
        elif key == "closure":
            closure_lines.add((node(fields[1]), node(fields[2])))
        elif key == "step":
            steps[node(fields[1])] = float(fields[3])
        elif key == "decision":
            decisions.append((node(fields[1]), node(fields[2]), float(fields[3]),
                              fields[4] == "accept"))
    if declared_n != n:
        return [f"output declares n={declared_n}, instance has n={n}"]
    if sorted(steps) != list(range(n)):
        problems.append("not every participant has exactly one step")

    reach = closure(n, edges)
    expected = {(j, i) for j, i in zip(*(a.tolist() for a in np.nonzero(reach))) if j != i}
    if closure_lines != expected:
        problems.append(f"closure lines differ from the closure of the edges: "
                        f"{len(closure_lines - expected)} extra, {len(expected - closure_lines)} missing")
    joined = competing & reach  # competing pairs (a, b) with a path a -> b
    if joined.any():
        a, b = (int(v[0]) for v in np.nonzero(joined))
        problems.append(f"competing pair v{a + 1} -> v{b + 1} is joined")
    for j, i in edges:
        if benefit[j, i] <= 0.0:
            problems.append(f"edge v{j + 1} v{i + 1} lies outside the benefit support")

    accepted = {(j, i) for i, j, _, ok in decisions if ok}
    if accepted != set(edges):
        problems.append("accepted decisions and written edges differ")
    objective = dict.fromkeys(steps, 0.0)
    for i, j, weight, ok in decisions:
        if weight != benefit[j, i]:
            problems.append(f"decision v{i + 1} v{j + 1} has weight {weight!r}, "
                            f"the instance says {benefit[j, i]!r}")
        if ok:
            objective[i] = objective.get(i, 0.0) + weight
        elif not competing[np.ix_(reach[:, j], reach[i, :])].any():
            # reachability only grows, so a safe edge at decision time
            # would still be safe against the final graph
            problems.append(f"rejected v{j + 1} -> v{i + 1} joins no competing pair")
    for i, value in steps.items():
        if not math.isclose(value, objective[i], rel_tol=OBJECTIVE_RTOL, abs_tol=1e-12):
            problems.append(f"step v{i + 1} objective {value!r} != accepted weights "
                            f"{objective[i]!r}")
    return problems


def selection_edges(text: str) -> list[tuple[int, int]]:
    return [(node(f[1]), node(f[2])) for f in content_lines(text) if f[0] == "edge"]


def rejected_decisions(text: str) -> list[tuple[int, int]]:
    """(candidate, participant) of every rejected decision, in file order."""
    return [(node(f[2]), node(f[1])) for f in content_lines(text)
            if f[0] == "decision" and f[4] == "reject"]


# ---------------------------------------------------------------------------
# verify


def check_verify(competing: np.ndarray, usage_edges, exit_code: int, text: str) -> list[str]:
    n = competing.shape[0]
    problems: list[str] = []
    reach = closure(n, usage_edges)
    joined = competing & reach
    conflict = bool(joined.any())
    if exit_code != (1 if conflict else 0):
        problems.append(f"exit code {exit_code}, expected {1 if conflict else 0}")
    lines = content_lines(text)
    verdicts = [f[1] for f in lines if f[0] == "verdict"]
    if verdicts != ["conflict" if conflict else "conflict-free"]:
        problems.append(f"verdict {verdicts}, expected {'conflict' if conflict else 'conflict-free'}")
    closure_checks = [f[1] for f in lines if f[0] == "closure_check"]
    if closure_checks != ["fail" if conflict else "pass"]:
        problems.append(f"closure_check {closure_checks} disagrees with the closure")
    path_checks = [f[1] for f in lines if f[0] == "path_check"]
    if n <= PATH_ORACLE_MAX_N and path_checks != ["fail" if conflict else "pass"]:
        problems.append(f"path_check {path_checks} disagrees with the closure")

    edge_set = set(usage_edges)
    witnessed = set()
    for f in lines:
        if f[0] != "violation":
            continue
        j, i = node(f[1]), node(f[2])
        path = [node(t) for t in f[4:]]
        witnessed.add((j, i))
        if not competing[j, i]:
            problems.append(f"witness for non-competing pair v{j + 1} v{i + 1}")
        if len(path) < 2 or path[0] != j or path[-1] != i:
            problems.append(f"witness path for v{j + 1} v{i + 1} has wrong endpoints")
        if any((a, b) not in edge_set for a, b in zip(path, path[1:])):
            problems.append(f"witness path for v{j + 1} v{i + 1} uses a non-edge")
    expected = set(zip(*(a.tolist() for a in np.nonzero(joined))))
    if witnessed != expected:
        problems.append(f"witnessed pairs differ from joined competing pairs: "
                        f"{len(witnessed - expected)} extra, {len(expected - witnessed)} missing")
    return problems


# ---------------------------------------------------------------------------
# simulate


def reference_local_mse(spec: PresetSpec, seed: int, reps: int) -> np.ndarray:
    """Mean validation MSE of purely local SGD, per participant.

    Data: per repetition r the task seed is the first word of
    SeedSequence([seed, r]); that sequence spawns one stream for the
    shared base weights and one per participant. Training: each
    participant shuffles from SeedSequence([task_seed, i]) and runs
    ``TRAIN_ROUNDS`` epochs of minibatch SGD on the MSE over the
    features (x, x^2, ..., x^degree).
    """
    powers = np.arange(1, spec.degree + 1, dtype=np.float64)
    scores = np.empty((reps, spec.n))
    for rep in range(reps):
        task_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
        shared, *parts = np.random.SeedSequence(task_seed).spawn(spec.n + 1)
        base = np.random.default_rng(shared).uniform(0.0, 1.0, size=spec.degree)
        for i, m in enumerate(spec.samples):
            rng = np.random.default_rng(parts[i])
            u = base + rng.normal(0.0, spec.rho, size=spec.degree)
            x = rng.uniform(-1.0, 1.0, size=m)
            noise = rng.normal(0.0, spec.noise_std, size=m)
            phi = x[:, None] ** powers
            y = (-1.0 if spec.flipped[i] else 1.0) * phi @ u + noise
            perm = rng.permutation(m)
            n_val = min(max(1, int(round(m * spec.val_fraction))), m - 1)
            val, train = np.sort(perm[:n_val]), np.sort(perm[n_val:])
            shuffle = np.random.default_rng(np.random.SeedSequence([task_seed, i]))
            theta = np.zeros(spec.degree)
            for _ in range(TRAIN_ROUNDS):
                order = train[shuffle.permutation(train.size)]
                for s in range(0, train.size, TRAIN_BATCH):
                    idx = order[s:s + TRAIN_BATCH]
                    residual = phi[idx] @ theta - y[idx]
                    theta = theta - TRAIN_LR * ((2.0 / idx.size) * (phi[idx].T @ residual))
            residual = phi[val] @ theta - y[val]
            scores[rep, i] = residual @ residual / val.size
    return scores.mean(axis=0)


def check_report(spec: PresetSpec, local_reference: np.ndarray, text: str) -> list[str]:
    n = spec.n
    problems: list[str] = []
    usage: list[tuple[int, int]] = []
    cover: list[list[int]] = []
    coalitions: list[list[int]] = []
    mse: dict[str, dict[int, float]] = {}
    for fields in content_lines(text):
        key = fields[0]
        if key == "usage_edge":
            usage.append((node(fields[1]), node(fields[2])))
        elif key == "cover":
            cover.append([node(t) for t in fields[1:]])
        elif key == "coalition":
            coalitions.append([node(t) for t in fields[1:]])
        elif key == "mse":
            mse.setdefault(fields[1], {})[node(fields[2])] = float(fields[3])

    competing = competing_matrix(n, spec.competing)
    if (competing & closure(n, usage)).any():
        problems.append("usage edges join a competing pair")
    if sorted(k for g in cover for k in g) != list(range(n)):
        problems.append("cover groups do not partition the participants")
    for g in cover:
        if competing[np.ix_(g, g)].any():
            problems.append(f"cover group {g} holds a competing pair")
    if sorted(k for g in coalitions for k in g) != list(range(n)):
        problems.append("coalitions do not partition the participants")
    for g in coalitions:
        if not any(set(g) <= set(c) for c in cover):
            problems.append(f"coalition {g} is not inside one cover group")

    for method in ("local", "fedavg", "ce", "fedcompetitors"):
        values = mse.get(method, {})
        if sorted(values) != list(range(n)):
            problems.append(f"report lacks MSE rows for {method}")
            continue
        bad = [i for i, v in values.items() if not (math.isfinite(v) and v > 0.0)]
        if bad:
            problems.append(f"{method} MSE not finite and positive for {bad}")
    local = mse.get("local", {})
    for i in range(n):
        if i in local and not math.isclose(local[i], local_reference[i], rel_tol=MSE_RTOL):
            problems.append(f"local MSE of v{i + 1} is {local[i]!r}, reference SGD gives "
                            f"{local_reference[i]!r}")
    return problems
