import ast
from pathlib import Path

import numpy as np
import pytest

from fedcollab import oracle
from fedcollab.graphs import Instance, UsageGraph, conflict_free
from fedcollab.oracle import (OracleSizeError, _candidate_list, _reached, conflict_free_by_paths,
                              optimal_step)
from fedcollab.selection import (Selection, candidate_collaborators, processing_order,
                                 select_collaborators, select_step)

from conftest import ilp_optimum, make_instance, make_usage


def adjacency(n, edges):
    adj = np.zeros((n, n), bool)
    for a, b in edges:
        adj[a, b] = True
    return adj


class TestReaches:
    def test_follows_paths_of_any_length(self):
        adj = adjacency(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)])
        assert _reached(adj, 0).tolist() == [False, True, True, True]
        assert _reached(adj, 1).tolist() == [False, False, True, True]
        assert not _reached(adj, 3).any() and not _reached(adj, 2)[1]

    def test_no_path_from_sink(self):
        assert not _reached(adjacency(2, [(0, 1)]), 1).any()

    def test_cycle_without_the_target_ends_false(self):
        adj = adjacency(5, [(0, 1), (1, 2), (2, 0), (2, 1), (4, 0)])
        assert _reached(adj, 0).tolist() == [True, True, True, False, False]
        assert not _reached(adj, 1)[3]
        assert _reached(adj, 4)[2]

    def test_matches_the_closure(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            usage = make_usage(rng, n, max_edges=2 * n)
            for a in range(n):
                reached = _reached(usage.x, a)
                for b in range(n):
                    if a != b:
                        assert reached[b] == usage.closure[a, b]


class TestConflictFreeByPaths:
    def test_identity_usage_feasible(self, rng):
        inst = make_instance(rng, 6, edge_prob=0.4)
        assert conflict_free_by_paths(inst, UsageGraph(6))

    def test_fully_selected_enemy_path_detected(self):
        s = np.zeros((3, 3), bool)
        s[0, 2] = s[2, 0] = True
        w = np.zeros((3, 3))
        w[2, 1] = w[1, 0] = 1.0  # benefit path 2 -> 1 -> 0 between competitors
        inst = Instance(3, s, w)
        usage = UsageGraph(3).add_edge(2, 1).add_edge(1, 0)
        assert not conflict_free_by_paths(inst, usage)

    def test_agrees_with_closure_check(self, rng):
        agreements = 0
        for _ in range(200):
            inst = make_instance(rng, int(rng.integers(2, 9)), edge_prob=0.35, density=0.6)
            usage = make_usage(rng, inst.n, allowed=inst.benefit > 0)
            assert conflict_free_by_paths(inst, usage) == conflict_free(inst, usage)
            agreements += 1
        assert agreements == 200


class TestOptimalStep:
    def test_no_competition_takes_all_candidates(self, rng):
        w = rng.uniform(0.1, 1, (5, 5))
        inst = Instance(5, np.zeros((5, 5), bool), w)
        value, chosen = optimal_step(inst, UsageGraph(5), 1)
        assert chosen == tuple(sorted(candidate_collaborators(inst, 1).tolist()))
        assert value == pytest.approx(inst.benefit[:, 1].sum(), abs=1e-12)
        assert select_step(Selection(inst), 1).objective == pytest.approx(value, abs=1e-12)

    def test_single_node(self):
        inst = Instance(1, np.zeros((1, 1), bool), np.zeros((1, 1)))
        assert optimal_step(inst, UsageGraph(1), 0) == (0.0, ())

    def test_oversize_guard(self, rng):
        inst = make_instance(rng, 13)
        with pytest.raises(OracleSizeError):
            optimal_step(inst, UsageGraph(13), 0)

    def test_infeasible_prior_state_rejected(self):
        s = np.zeros((3, 3), bool)
        s[0, 1] = s[1, 0] = True
        inst = Instance(3, s, np.ones((3, 3)))
        with pytest.raises(ValueError, match="conflict"):
            optimal_step(inst, UsageGraph(3).add_edge(0, 1), 1)

    def test_domination_and_greedy_feasibility(self):
        rng = np.random.default_rng(23)
        gaps = []
        for _ in range(100):
            inst = make_instance(rng, 6, edge_prob=0.3)
            selection = Selection(inst)
            for i in processing_order(inst):
                value, _ = optimal_step(inst, selection.usage, i)
                step = select_step(selection, i)  # advance the real state
                assert conflict_free_by_paths(inst, selection.usage)
                assert step.objective <= value + 1e-12
                gap = step.objective / value if value else 1.0
                assert 0.0 <= gap <= 1.0 + 1e-12
                gaps.append(gap)
        assert gaps and min(gaps) >= 0.0

    def test_matches_the_ilp_on_tiny_instances(self):
        rng = np.random.default_rng(29)
        checked = 0
        while checked < 25:
            inst = make_instance(rng, int(rng.integers(2, 6)), edge_prob=0.3, density=0.5)
            usage = make_usage(rng, inst.n, max_edges=2, allowed=inst.benefit > 0)
            if not conflict_free(inst, usage):
                continue
            free_edges = int(((inst.benefit > 0) & ~usage.x).sum())
            if free_edges > 14:
                continue
            i = int(rng.integers(0, inst.n))
            column, _ = optimal_step(inst, usage, i)
            assert column == pytest.approx(_ilp_step(inst, usage, i), abs=1e-12)
            checked += 1


def _ilp_step(instance, usage, i):
    """The ILP optimum of participant i's step: benefit into i alone is weighed."""
    weights = np.zeros_like(instance.benefit)
    weights[:, i] = instance.benefit[:, i]
    return ilp_optimum(instance, usage, weights)[0]


class TestIlpOptimum:
    @pytest.mark.parametrize("n,seed", [(13, 1), (13, 2), (14, 1), (14, 2)])
    def test_greedy_steps_are_optimal_past_the_enumerators_cap(self, n, seed):
        # optimal_step refuses n > 12; the ILP has no cap
        inst = make_instance(np.random.default_rng(seed), n)
        selection = Selection(inst)
        for i in processing_order(inst):
            value = _ilp_step(inst, selection.usage, i)
            assert select_step(selection, i).objective == pytest.approx(value, abs=1e-12)

    def test_total_benefit_optimum_is_conflict_free_and_dominates_the_greedy(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            inst = make_instance(rng, int(rng.integers(4, 10)))
            value, x = ilp_optimum(inst, UsageGraph(inst.n), inst.benefit)
            assert conflict_free_by_paths(inst, UsageGraph.from_edges(x))
            usage, _ = select_collaborators(inst)
            assert value >= inst.benefit[usage.x].sum() - 1e-12

    def test_an_infeasible_prior_state_raises_instead_of_a_value(self):
        s = np.zeros((3, 3), bool)
        s[0, 1] = s[1, 0] = True
        inst = Instance(3, s, np.ones((3, 3)))
        with pytest.raises(RuntimeError, match="not solved to optimality"):
            ilp_optimum(inst, UsageGraph(3).add_edge(0, 1), inst.benefit)


def test_candidates_match_the_engine():
    # weights from {0, 0.5, 1} so that ties occur in every instance
    rng = np.random.default_rng(37)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        s = np.triu(rng.random((n, n)) < 0.2, 1)
        if n > 1 and s.sum() == n * (n - 1) // 2:
            continue  # complete competition is not a valid instance
        w = rng.choice([0.0, 0.5, 1.0], (n, n))
        np.fill_diagonal(w, 0.0)
        inst = Instance(n, s | s.T, w)
        for i in range(n):
            assert _candidate_list(inst, i) == candidate_collaborators(inst, i).tolist()


def _assert_imports_nothing_from_selection(path) -> None:
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "fedcollab" if node.level else ""
            module = ".".join(filter(None, [base, node.module]))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "fedcollab.graphs" in imported
    assert not any(m == "fedcollab.selection" or m.startswith("fedcollab.selection.")
                   for m in imported)


def test_oracle_imports_nothing_from_selection():
    # the referee shares no code with the engine it checks
    _assert_imports_nothing_from_selection(oracle.__file__)


def test_ilp_referee_imports_nothing_from_selection():
    # nor does the ILP, nor anything else in the module that holds it
    _assert_imports_nothing_from_selection(Path(__file__).with_name("conftest.py"))
