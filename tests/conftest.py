"""Shared random-object generators and independent reference algorithms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_array

from fedcollab import formats
from fedcollab.graphs import Instance, UsageGraph


def make_instance(rng: np.random.Generator, n: int | None = None, *,
                  edge_prob: float = 0.2, density: float = 0.5) -> Instance:
    """Random instance; resamples the competition graph if it comes out complete."""
    if n is None:
        n = int(rng.integers(2, 11))
    while True:
        s = rng.random((n, n)) < edge_prob
        s = np.triu(s, 1)
        s = s | s.T
        if n == 1 or s.sum() < n * (n - 1):
            break
    w = np.where(rng.random((n, n)) < density, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return Instance(n, s, w)


def make_usage(rng: np.random.Generator, n: int, max_edges: int | None = None,
               allowed: np.ndarray | None = None) -> UsageGraph:
    """Random usage graph built by incremental edge additions.

    When `allowed` (a boolean matrix) is given, edges are drawn from its
    support only — used to respect the benefit-subset invariant.
    """
    usage = UsageGraph(n)
    if allowed is None:
        pool = [(j, i) for j in range(n) for i in range(n) if j != i]
    else:
        pool = [(int(j), int(i)) for j, i in np.transpose(np.nonzero(allowed)) if j != i]
    if not pool:
        return usage
    rng.shuffle(pool)
    limit = len(pool) if max_edges is None else min(max_edges, len(pool))
    for j, i in pool[: rng.integers(0, limit + 1)]:
        usage.add_edge(j, i)
    return usage


def benefit_text(instance: Instance) -> str:
    """A benefit file: the instance file without its 'competing' lines."""
    return "".join(line for line in formats.serialize_instance(instance).splitlines(True)
                   if not line.startswith("competing"))


# "\t" and "\x1f" split fields but break no line; "edges" and "benefit2" are
# a key word with a suffix, "edge\t" and "benefit\t" one followed by a tab
ODD = ["v01", "V2", "３", "v²", "1_0", "+1", "-0.0", "nan", "1e400", "#", "\x0b", "\x85", "\r",
       "\t", "\x1f", "edges", "benefit2", "edge\t", "benefit\t"]


@st.composite
def mutated(draw, text):
    """``text`` with a few lines edited: a field swapped for an odd token,
    a field dropped or inserted, a line repeated, 'n' moved or repeated."""
    lines = text.split("\n")
    n_line = next(line for line in lines if line.startswith("n "))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(lines) - 1))
        fields = lines[k].split(" ")
        op = draw(st.sampled_from(["swap", "drop", "insert", "repeat", "move n", "repeat n"]))
        if op == "swap":
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD))
        elif op == "drop":
            del fields[draw(st.integers(0, len(fields) - 1))]
        elif op == "insert":
            fields.insert(draw(st.integers(0, len(fields))), draw(st.sampled_from(ODD + ["v1"])))
        lines[k] = " ".join(fields)
        if op == "repeat":
            lines.insert(k, lines[k])
        elif op == "move n" and n_line in lines:
            lines.remove(n_line)
            lines.insert(k, n_line)
        elif op == "repeat n":
            lines.insert(k, n_line)
    return "\n".join(lines)


def closure_by_squaring(x: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by repeated boolean matrix squaring."""
    n = x.shape[0]
    reach = x | np.eye(n, dtype=bool)
    while True:
        nxt = reach | (reach @ reach)
        if np.array_equal(nxt, reach):
            return reach
        reach = nxt


def closure_by_floyd_warshall(x: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by the classic triple loop."""
    n = x.shape[0]
    reach = (x | np.eye(n, dtype=bool)).copy()
    for k in range(n):
        for a in range(n):
            if reach[a, k]:
                for b in range(n):
                    if reach[k, b]:
                        reach[a, b] = True
    return reach


def bfs_reachable(x: np.ndarray, start: int) -> set[int]:
    """Nodes reachable from start over off-diagonal x-edges, plus start."""
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for v in np.flatnonzero(x[u]).tolist():
            if v != u and v not in seen:
                seen.add(v)
                frontier.append(v)
    return seen


def competitor_guards(instance: Instance, usage: UsageGraph,
                      i: int, j: int) -> tuple[frozenset[int], frozenset[int]]:
    """Guard sets that must be empty for the edge j -> i to be safe.

    Returns ``(upstream, downstream)``: upstream holds competitors of
    nodes that reach j which are already reachable from i; downstream
    holds competitors of nodes reachable from i which already reach j.
    They are the two ends of the competing pairs (ancestor of j,
    descendant of i), so on any usage graph each is empty exactly when
    the other is. This direct O(n^2) scan is the reference for the
    selection engine's verdicts and for the (rival, descendant) reason it
    records per reject: the rival is in the downstream set and the
    descendant in the upstream set.
    """
    i, j = instance.check_node(i), instance.check_node(j)
    if i == j:
        raise ValueError("guard sets are defined for distinct nodes only")
    comp, clo = instance.competing, usage.closure
    # row k of comp & clo[:, j] is nonempty iff k competes with an ancestor
    # of j; competing is symmetric, so the same holds for descendants of i
    upstream = (comp & clo[:, j]).any(axis=1) & clo[i]
    downstream = (comp & clo[i]).any(axis=1) & clo[:, j]
    return (frozenset(np.flatnonzero(upstream).tolist()),
            frozenset(np.flatnonzero(downstream).tolist()))


def ilp_optimum(instance: Instance, usage: UsageGraph,
                weights: np.ndarray) -> tuple[float, np.ndarray]:
    """The paper's integer linear program, solved exactly by HiGHS.

    A binary x_pq per benefit-support pair, fixed to 1 on ``usage``'s edges,
    and a continuous r_pq in [0, 1] per ordered pair with r_pq >= x_pq and
    r_pq >= r_pk + x_kq - 1, so a path of chosen edges from p to q forces
    r_pq to 1; r is 0 on every competing pair, in both directions. Returns
    the most ``weights[p, q] * x_pq`` summed over a feasible x, and that x
    as a boolean matrix. A status other than optimal raises.
    """
    n = instance.n
    support = instance.benefit > 0.0
    if (usage.x & ~support).any():
        raise ValueError("usage has an edge outside the benefit support")
    sp, sq = np.nonzero(support)
    m = len(sp)  # x_e is variable e; r_pq is variable m + p * n + q
    # r_pq >= x_e for e = (p, q)
    rows = [np.arange(m)] * 2
    cols = [m + sp * n + sq, np.arange(m)]
    data = [np.ones(m), -np.ones(m)]
    # r_pq >= r_pk + x_e - 1 for e = (k, q) and every p other than k and q
    p, e = np.repeat(np.arange(n), m), np.tile(np.arange(m), n)
    keep = (p != sp[e]) & (p != sq[e])
    p, e = p[keep], e[keep]
    t = len(p)
    rows += [m + np.arange(t)] * 3
    cols += [m + p * n + sq[e], m + p * n + sp[e], e]
    data += [np.ones(t), -np.ones(t), -np.ones(t)]
    matrix = coo_array((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                       (m + t, m + n * n))
    constraint = LinearConstraint(matrix, np.concatenate([np.zeros(m), -np.ones(t)]), np.inf)
    lower = np.concatenate([usage.x[sp, sq], np.zeros(n * n)])
    upper = np.concatenate([np.ones(m), (~instance.competing & ~np.eye(n, dtype=bool)).ravel()])
    res = milp(np.concatenate([-weights[sp, sq], np.zeros(n * n)]),
               integrality=np.concatenate([np.ones(m), np.zeros(n * n)]),
               bounds=Bounds(lower, upper), constraints=constraint,
               options={"mip_rel_gap": 0.0})  # HiGHS would stop within 1e-4 of the optimum
    if res.status != 0:
        raise RuntimeError(f"the ILP was not solved to optimality: {res.message}")
    chosen = res.x[:m] > 0.5
    x = np.zeros((n, n), dtype=bool)
    x[sp[chosen], sq[chosen]] = True
    return float(weights[x].sum()), x


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
