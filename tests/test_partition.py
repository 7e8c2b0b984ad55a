from itertools import combinations

import numpy as np
import pytest

from fedcollab.graphs import Instance
from fedcollab.partition import (Partition, min_clique_cover, scc_coalitions,
                                 strongly_connected_components)
from fedcollab.synthdata import (STRONG_COMPETING_EDGES, WEAK_COMPETING_EDGES,
                                 competing_matrix)

from conftest import closure_by_squaring, make_instance


def instance_from_edges(n, edges, benefit=None):
    w = np.ones((n, n)) if benefit is None else benefit
    return Instance(n, competing_matrix(n, edges), w)


def brute_force_min_cover_size(instance) -> int:
    """Minimum number of complement-cliques over all set partitions,
    enumerated via restricted growth strings."""
    n = instance.n
    best = n

    def valid(groups):
        return all(not instance.competing[a, b]
                   for g in groups for a, b in combinations(g, 2))

    def extend(assign, num_groups):
        nonlocal best
        v = len(assign)
        if num_groups >= best:
            return
        if v == n:
            groups = [[i for i, g in enumerate(assign) if g == k] for k in range(num_groups)]
            if valid(groups):
                best = min(best, num_groups)
            return
        for g in range(num_groups + 1):
            extend(assign + [g], max(num_groups, g + 1))

    extend([], 0)
    return best


class TestMinCliqueCover:
    def test_weak_topology_cover(self):
        inst = instance_from_edges(8, WEAK_COMPETING_EDGES)
        cover = min_clique_cover(inst)
        assert cover.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert cover.mode == "exact"

    def test_strong_topology_cover(self):
        inst = instance_from_edges(8, STRONG_COMPETING_EDGES)
        cover = min_clique_cover(inst)
        assert cover.groups == ((0, 1, 4, 5), (2, 3, 6, 7))
        assert cover.mode == "exact"

    def test_empty_competition_single_group(self):
        inst = instance_from_edges(5, [])
        assert min_clique_cover(inst).groups == (tuple(range(5)),)

    def test_groups_are_complement_cliques(self, rng):
        for _ in range(40):
            inst = make_instance(rng, edge_prob=0.4)
            cover = min_clique_cover(inst)
            cover.validate_cover(inst)

    def test_exact_size_matches_brute_force(self, rng):
        for _ in range(25):
            inst = make_instance(rng, int(rng.integers(2, 8)), edge_prob=0.4)
            cover = min_clique_cover(inst)
            assert len(cover.groups) == brute_force_min_cover_size(inst)

    def test_greedy_mode_beyond_exact_limit(self, rng):
        inst = make_instance(rng, 20, edge_prob=0.2)
        cover = min_clique_cover(inst)
        assert cover.mode == "greedy"
        cover.validate_cover(inst)

    def test_deterministic(self, rng):
        inst = make_instance(rng, 10, edge_prob=0.4)
        assert min_clique_cover(inst) == min_clique_cover(inst)


class TestSccCoalitions:
    def test_empty_benefit_gives_singletons(self):
        inst = instance_from_edges(4, [(0, 1)], benefit=np.zeros((4, 4)))
        cover = min_clique_cover(inst)
        coalitions = scc_coalitions(inst, cover)
        assert all(len(g) == 1 for g in coalitions.groups)
        assert coalitions.mode is None

    def test_benefit_cycle_within_clique_groups_together(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 2] = w[2, 0] = 1.0
        inst = instance_from_edges(3, [], benefit=w)
        coalitions = scc_coalitions(inst, min_clique_cover(inst))
        assert coalitions.groups == ((0, 1, 2),)

    def test_one_way_benefit_keeps_receivers_separate(self):
        # quantity-skew shape: providers benefit receivers but not back,
        # so receivers end up alone
        w = np.zeros((4, 4))
        w[0, 2] = w[0, 3] = w[1, 2] = w[1, 3] = 1.0
        w[0, 1] = w[1, 0] = 1.0
        inst = instance_from_edges(4, [], benefit=w)
        coalitions = scc_coalitions(inst, min_clique_cover(inst))
        assert coalitions.groups == ((0, 1), (2,), (3,))

    def test_refines_input_partition(self, rng):
        for _ in range(30):
            inst = make_instance(rng, edge_prob=0.3)
            cover = min_clique_cover(inst)
            coalitions = scc_coalitions(inst, cover)
            for group in coalitions.groups:
                assert any(set(group) <= set(clique) for clique in cover.groups)

    def test_matches_mutual_reachability_fixed_point(self, rng):
        for _ in range(30):
            inst = make_instance(rng, edge_prob=0.3, density=0.4)
            cover = min_clique_cover(inst)
            coalitions = scc_coalitions(inst, cover)
            adj = inst.benefit > 0
            for group in coalitions.groups:
                clique = next(c for c in cover.groups if group[0] in c)
                # mutual reachability restricted to the clique subgraph
                sub = adj.copy()
                mask = np.zeros(inst.n, bool)
                mask[list(clique)] = True
                sub[~mask] = False
                sub[:, ~mask] = False
                sub_reach = closure_by_squaring(sub)
                sub_mutual = sub_reach & sub_reach.T
                assert set(group) == {k for k in clique if sub_mutual[group[0], k]}

    def test_refining_its_own_coalitions_returns_them_unchanged(self, rng):
        # coalitions are non-competing cliques covering 0..n-1, so they are a
        # valid cover to refine, and each is already strongly connected
        for _ in range(30):
            inst = make_instance(rng, edge_prob=0.3, density=0.4)
            coalitions = scc_coalitions(inst, min_clique_cover(inst))
            assert scc_coalitions(inst, coalitions) == coalitions

    @pytest.mark.parametrize("groups,message", [
        (((0, 1), (1, 2)), "node 1 appears in two groups"),
        (((0, 2), (1,)), r"competing pair \(0, 2\) grouped together"),
        (((0,), (1,)), "groups do not cover all nodes"),
        (((0,), (1,), (2,), (5,)), "groups do not cover all nodes"),
        # a node that is not an index in 0..n-1 is named before any pair is read
        (((-2, 0, 2), (1,)), r"exactly: node -2 is not in 0\.\.2$"),
        (((0, 5), (1, 2)), r"exactly: node 5 is not in 0\.\.2$"),
        (((0, 1.0), (2,)), r"exactly: node 1\.0 is not in 0\.\.2$"),
    ])
    def test_rejects_a_clique_cover_that_is_not_one(self, groups, message):
        inst = instance_from_edges(3, [(0, 2)])
        cover = Partition(groups, "exact")
        with pytest.raises(ValueError, match=message):
            scc_coalitions(inst, cover)

    def test_reports_the_first_competing_pair_in_group_order(self):
        # pairs (a, b) with a < b are read with a, then b, in the group's order
        inst = instance_from_edges(5, [(0, 2), (1, 3), (2, 4)])
        cover = Partition(((4,), (3, 1, 0, 2)), "exact")
        with pytest.raises(ValueError, match=r"competing pair \(1, 3\) grouped together"):
            cover.validate_cover(inst)


class TestComponentsOfHandBuiltGraphs:
    def test_two_cycles_bridge(self):
        adj = np.zeros((5, 5), bool)
        for a, b in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 4), (4, 2)]:
            adj[a, b] = True
        sccs = strongly_connected_components(adj, list(range(5)))
        assert sccs == [(0, 1), (2, 3, 4)]

    def test_respects_node_restriction(self):
        adj = np.zeros((3, 3), bool)
        adj[0, 1] = adj[1, 0] = True
        sccs = strongly_connected_components(adj, [0, 2])
        assert sccs == [(0,), (2,)]


class TestStronglyConnectedComponents:
    def test_matches_mutual_reachability_on_unsorted_subsets(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 61))
            adj = rng.random((n, n)) < rng.choice([0.01, 0.03, 0.1, 0.3])
            nodes = rng.permutation(n)[:int(rng.integers(0, n + 1))].tolist()
            sub = adj[np.ix_(nodes, nodes)]
            reach = closure_by_squaring(sub)
            mutual = reach & reach.T
            expected = sorted({tuple(sorted(nodes[b] for b in np.flatnonzero(mutual[a])))
                               for a in range(len(nodes))})
            assert strongly_connected_components(adj, nodes) == expected

    def test_long_cycle_and_long_path_do_not_recurse(self):
        n = 3000
        cycle = np.zeros((n, n), bool)
        cycle[np.arange(n), (np.arange(n) + 1) % n] = True
        assert strongly_connected_components(cycle, list(range(n))) == [tuple(range(n))]
        path = cycle.copy()
        path[n - 1, 0] = False
        assert strongly_connected_components(path, list(range(n))) == [(v,) for v in range(n)]
