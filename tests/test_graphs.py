import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcollab import formats
from fedcollab.graphs import (Instance, InvalidInstanceError, PathWitness, UsageGraph,
                              conflict_free, conflict_violations, potentials)
from fedcollab.fedtrain import TrainConfig, run_experiment
from fedcollab.selection import select_collaborators
from fedcollab.synthdata import SyntheticConfig

from conftest import (bfs_reachable, closure_by_floyd_warshall, closure_by_squaring,
                      competitor_guards, make_instance, make_usage)


def instance_no_competition(w: np.ndarray) -> Instance:
    n = w.shape[0]
    return Instance(n, np.zeros((n, n), dtype=bool), w)


class TestInstanceValidation:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(InvalidInstanceError):
            Instance(0, np.zeros((0, 0), bool), np.zeros((0, 0)))

    @pytest.mark.parametrize("competing,benefit,message", [
        ((3, 2), (3, 3), r"competing adjacency must be 3x3, got \(3, 2\)"),
        ((3, 3), (2, 3), r"benefit matrix must be 3x3, got \(2, 3\)"),
    ])
    def test_rejects_wrongly_shaped_matrices(self, competing, benefit, message):
        with pytest.raises(InvalidInstanceError, match=message):
            Instance(3, np.zeros(competing, bool), np.zeros(benefit))

    def test_rejects_asymmetric_competition(self):
        s = np.zeros((3, 3), bool)
        s[0, 1] = True
        with pytest.raises(InvalidInstanceError, match="symmetric"):
            Instance(3, s, np.zeros((3, 3)))

    def test_rejects_competition_self_loops(self):
        s = np.eye(3, dtype=bool)
        with pytest.raises(InvalidInstanceError, match="diagonal"):
            Instance(3, s, np.zeros((3, 3)))

    def test_rejects_complete_competition(self):
        s = ~np.eye(2, dtype=bool)
        with pytest.raises(InvalidInstanceError, match="complete"):
            Instance(2, s, np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_rejects_bad_weights(self, bad):
        w = np.zeros((2, 2))
        w[0, 1] = bad
        with pytest.raises(InvalidInstanceError):
            Instance(2, np.zeros((2, 2), bool), w)

    @pytest.mark.parametrize("pairs,who", [
        ([(0, 1), (0, 2)], "offered by participant v1 (index 0)"),
        ([(0, 2), (1, 2)], "received by participant v3 (index 2)"),
    ])
    def test_rejects_weights_whose_sums_overflow(self, pairs, who):
        w = np.zeros((3, 3))
        for j, i in pairs:
            w[j, i] = 1e308
        with pytest.raises(InvalidInstanceError) as exc:
            Instance(3, np.zeros((3, 3), bool), w)
        assert str(exc.value) == f"benefit {who} sums past the float range"
        # the diagonal is dropped before the sums are read
        w = np.zeros((3, 3))
        w[0, 0] = w[0, 1] = w[1, 1] = 1e308
        assert potentials(Instance(3, np.zeros((3, 3), bool), w)).tolist() == [1e308, 0.0, 0.0]

    def test_benefit_diagonal_ignored(self):
        w = np.full((2, 2), 3.0)
        inst = Instance(2, np.zeros((2, 2), bool), w)
        assert inst.benefit[0, 0] == 0.0 and inst.benefit[1, 1] == 0.0

    def test_arrays_frozen(self, rng):
        inst = make_instance(rng, 4)
        with pytest.raises(ValueError):
            inst.competing[0, 1] = True
        with pytest.raises(ValueError):
            inst.benefit[0, 1] = 2.0


class TestPotentials:
    def test_empty_benefit(self):
        assert potentials(instance_no_competition(np.zeros((3, 3)))).tolist() == [0, 0, 0]

    def test_single_edge(self):
        w = np.zeros((2, 2))
        w[0, 1] = 2.5
        assert potentials(instance_no_competition(w)).tolist() == [2.5, 0.0]

    def test_matches_row_sum_oracle(self):
        rng = np.random.default_rng(7)
        w = rng.uniform(0, 1, (5, 5))
        inst = instance_no_competition(w)
        expected = [sum(inst.benefit[i, j] for j in range(5) if j != i) for i in range(5)]
        assert potentials(inst).tolist() == pytest.approx(expected, abs=0)


class TestReachability:
    def test_identity(self):
        assert np.array_equal(UsageGraph(4).closure, np.eye(4, dtype=bool))

    def test_rejects_an_empty_graph(self):
        with pytest.raises(ValueError, match="at least one node"):
            UsageGraph(0)

    def test_chain(self):
        usage = UsageGraph(3).add_edge(0, 1).add_edge(1, 2)
        assert usage.closure.tolist() == [[True, True, True], [False, True, True],
                                          [False, False, True]]

    def test_random_matches_bfs(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            usage = make_usage(rng, n, max_edges=2 * n)
            for i in range(n):
                assert set(np.flatnonzero(usage.closure[i]).tolist()) == bfs_reachable(usage.x, i)
                assert (set(np.flatnonzero(usage.closure[:, i]).tolist())
                        == bfs_reachable(usage.x.T, i))


class TestCompetitorGuards:
    def test_empty_competition_gives_empty_guards(self, rng):
        inst = make_instance(rng, 5, edge_prob=0.0)
        usage = make_usage(rng, 5, max_edges=8)
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert competitor_guards(inst, usage, i, j) == (frozenset(), frozenset())

    def test_competing_pair_worked_case(self):
        # competitors 0 and 1 plus an isolated third node
        s = np.zeros((3, 3), bool)
        s[0, 1] = s[1, 0] = True
        w = np.zeros((3, 3))
        w[0, 1] = 1.0
        inst = Instance(3, s, w)
        upstream, downstream = competitor_guards(inst, UsageGraph(3), i=1, j=0)
        # node 1 competes with 0 (which trivially reaches itself as j's
        # only ancestor) and is reachable from i=1
        assert upstream == frozenset({1})
        assert downstream == frozenset({0})

    def test_definitional_and_intersection_forms_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            inst = make_instance(rng, 6, edge_prob=0.3)
            usage = make_usage(rng, 6, max_edges=10)
            c, s = usage.closure, inst.competing
            for i in range(6):
                for j in range(6):
                    if i == j:
                        continue
                    # definitional: competitors of ancestors/descendants, filtered
                    ancestors_j = {k for k in range(6) if c[k, j]}
                    comp_of_anc = {k for k in range(6) if any(s[k, p] for p in ancestors_j)}
                    upstream_def = frozenset(k for k in comp_of_anc if c[i, k])
                    descendants_i = {k for k in range(6) if c[i, k]}
                    comp_of_desc = {k for k in range(6) if any(s[p, k] for p in descendants_i)}
                    downstream_def = frozenset(k for k in comp_of_desc if c[k, j])
                    # intersection: descendants/ancestors intersected with them
                    upstream_int = frozenset(descendants_i & comp_of_anc)
                    downstream_int = frozenset(ancestors_j & comp_of_desc)
                    assert upstream_def == upstream_int
                    assert downstream_def == downstream_int
                    assert competitor_guards(inst, usage, i, j) == (upstream_def, downstream_def)

    def test_distinct_node_requirement(self, rng):
        inst = make_instance(rng, 3)
        with pytest.raises(ValueError):
            competitor_guards(inst, UsageGraph(3), 1, 1)
        with pytest.raises(IndexError):
            competitor_guards(inst, UsageGraph(3), 0, 5)


class TestConflictFree:
    def test_identity_always_free(self, rng):
        inst = make_instance(rng, 6, edge_prob=0.5)
        assert conflict_free(inst, UsageGraph(6))

    def test_enemy_of_friend_pattern(self):
        s = np.zeros((3, 3), bool)
        s[0, 2] = s[2, 0] = True
        w = np.ones((3, 3))
        inst = Instance(3, s, w)
        usage = UsageGraph(3).add_edge(0, 1).add_edge(1, 2)
        assert not conflict_free(inst, usage)
        violations = conflict_violations(inst, usage)
        assert (0, 2) in [(j, i) for j, i, _ in violations]
        witness = [wit for j, i, wit in violations if (j, i) == (0, 2)][0]
        assert witness.nodes == (0, 1, 2)

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            inst = make_instance(rng, n, edge_prob=0.4)
            usage = make_usage(rng, n, max_edges=2 * n)
            perm = rng.permutation(n)
            inst_p = Instance(n, inst.competing[np.ix_(perm, perm)],
                              inst.benefit[np.ix_(perm, perm)])
            usage_p = UsageGraph.from_edges(usage.x[np.ix_(perm, perm)])
            assert conflict_free(inst, usage) == conflict_free(inst_p, usage_p)


class TestClosureMaintenance:
    def test_single_edge_closure_delta(self):
        usage = UsageGraph(3).add_edge(0, 1)
        expected = np.eye(3, dtype=bool)
        expected[0, 1] = True
        assert np.array_equal(usage.closure, expected)

    def test_chain_transitivity(self):
        usage = UsageGraph(3).add_edge(0, 1).add_edge(1, 2)
        assert usage.closure[0, 2]

    def test_random_insertions_match_floyd_warshall(self):
        rng = np.random.default_rng(19)
        usage = UsageGraph(8)
        pool = [(j, i) for j in range(8) for i in range(8) if j != i]
        rng.shuffle(pool)
        for j, i in pool[:50]:
            usage.add_edge(j, i)
            assert np.array_equal(usage.closure, closure_by_floyd_warshall(usage.x))

    def test_self_and_duplicate_edges_rejected(self):
        usage = UsageGraph(3).add_edge(0, 1)
        with pytest.raises(ValueError, match="self"):
            usage.add_edge(1, 1)
        with pytest.raises(ValueError, match="already"):
            usage.add_edge(0, 1)

    def test_refused_edges_change_nothing(self):
        usage = UsageGraph(4).add_edge(0, 1)
        for j, i, error, match in ((1, 1, ValueError, "self"), (0, 1, ValueError, "already"),
                                   (4, 1, IndexError, "range"), (2, -1, IndexError, "range")):
            x, closure = usage.x.copy(), usage.closure.copy()
            with pytest.raises(error, match=match):
                usage.add_edge(j, i)
            assert np.array_equal(usage.x, x) and np.array_equal(usage.closure, closure)

    def test_first_of_several_offenders_wins(self):
        # one edge: i is read before j, also past the range of an index array
        usage = UsageGraph(4)
        for (j, i), message in (((9, 8), "node index 8"), ((-1, 2), "node index -1"),
                                ((3, -2), "node index -2"), ((2**64, 5), "node index 5"),
                                ((0, 2**64), f"node index {2**64}")):
            with pytest.raises(IndexError, match=message):
                usage.add_edge(j, i)
        assert usage == UsageGraph(4)

    def test_from_edges_refuses_a_bad_pair(self):
        # a matrix that is not square and boolean, or sets a diagonal cell
        # (the lowest is named); nothing is built
        x = np.zeros((4, 4), dtype=bool)
        x[0, 1] = x[3, 3] = x[2, 2] = True
        for matrix, message in (
                (np.zeros((4, 3), dtype=bool), "an edge matrix is square and boolean"),
                (np.zeros(4, dtype=bool), "an edge matrix is square and boolean"),
                (np.zeros((4, 4), dtype=int), "an edge matrix is square and boolean"),
                (x, "self-edge (2, 2) is not a collaboration")):
            with pytest.raises(ValueError) as exc:
                UsageGraph.from_edges(matrix)
            assert str(exc.value).startswith(message)

    def test_from_edges_without_edges(self):
        for n in (1, 4):
            x = np.zeros((n, n), dtype=bool)
            usage = UsageGraph.from_edges(x)
            assert usage == UsageGraph(n)
            assert np.array_equal(usage.closure, np.eye(n, dtype=bool))
            x[:] = True  # the graph holds a copy
            assert not usage.x.any()
        with pytest.raises(ValueError, match="self-edge"):
            UsageGraph.from_edges(np.ones((1, 1), dtype=bool))

    def test_x_is_the_edge_set(self, rng):
        # x holds the selected edges only: its diagonal is never set, while
        # the closure stays reflexive
        for n in (1, 2, 6):
            graphs = [UsageGraph(n), UsageGraph.from_edges(np.zeros((n, n), dtype=bool)),
                      select_collaborators(make_instance(rng, n, density=1.0))[0]]
            if n > 1:
                cycle, star = np.zeros((2, n, n), dtype=bool)
                cycle[0, 1] = cycle[1, 0] = True
                star[1:, 0] = True
                graphs += [UsageGraph.from_edges(cycle), UsageGraph(n).add_edge(1, 0),
                           UsageGraph.from_edges(star)]
            for usage in graphs:
                assert not usage.x.diagonal().any()
                assert usage.closure.diagonal().all()

    @pytest.mark.parametrize("n", [1, 3])
    def test_every_self_edge_refusal_keeps_its_message(self, n):
        usage = UsageGraph(n)
        x = np.zeros((n, n), dtype=bool)
        x[n - 1, n - 1] = True
        for refuse in (lambda: usage.add_edge(n - 1, n - 1), lambda: UsageGraph.from_edges(x)):
            with pytest.raises(ValueError) as exc:
                refuse()
            assert str(exc.value) == f"self-edge ({n - 1}, {n - 1}) is not a collaboration"
        assert usage == UsageGraph(n)
        with pytest.raises(formats.FileFormatError) as exc:
            formats.parse_usage(f"n {n}\nedge v{n} v{n}\n")
        assert str(exc.value) == f"line 2, column 1: self-edge (v{n}, v{n}) is not a collaboration"


@st.composite
def edge_sequences(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pool = [(j, i) for j in range(n) for i in range(n) if j != i]
    picks = draw(st.lists(st.sampled_from(pool), max_size=len(pool), unique=True))
    return n, picks


@settings(max_examples=60, deadline=None)
@given(edge_sequences())
def test_closure_exact_after_any_edge_sequence(seq):
    n, picks = seq
    usage = UsageGraph(n)
    for j, i in picks:
        usage.add_edge(j, i)
    from conftest import closure_by_squaring

    assert np.array_equal(usage.closure, closure_by_squaring(usage.x))


@settings(max_examples=80, deadline=None)
@given(edge_sequences(), st.randoms(use_true_random=False))
def test_bulk_closure_matches_per_edge_updates(seq, random):
    # the edges in any order, cycles included, added per edge, per target
    # through the unchecked update that the selection step makes, through
    # from_edges and through parse_usage
    n, picks = seq
    one_by_one = UsageGraph(n)
    for j, i in picks:
        one_by_one.add_edge(j, i)
    targets = sorted({i for _, i in picks})
    random.shuffle(targets)
    per_target = UsageGraph(n)
    for i in targets:
        per_target._add_new(np.array([j for j, k in picks if k == i]), i)
    x = np.zeros((n, n), dtype=bool)
    x[[j for j, _ in picks], [i for _, i in picks]] = True
    text = "n %d\n" % n + "".join(f"edge v{j + 1} v{i + 1}\n" for j, i in picks)
    expected = closure_by_squaring(one_by_one.x)
    for usage in (one_by_one, per_target, UsageGraph.from_edges(x),
                  formats.parse_usage(text)):
        assert usage == one_by_one
        assert np.array_equal(usage.closure, expected)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=20), st.floats(min_value=0.0, max_value=0.6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_conflict_free_matches_the_two_sided_check(n, density, seed):
    # on any usage graph, cycles and conflicts included, the one AND with
    # the closure agrees with the closure and its transpose read together
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, n, edge_prob=density)
    usage = make_usage(rng, n, max_edges=2 * n)
    c = usage.closure
    assert conflict_free(inst, usage) == (not (inst.competing & (c | c.T)).any())


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_unreachable_in_benefit_stays_unreachable_in_usage(seed):
    # usage graphs restricted to the benefit support can never connect
    # nodes the benefit graph does not connect
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, int(rng.integers(2, 8)), density=0.4)
    benefit_support = inst.benefit > 0
    usage = make_usage(rng, inst.n, allowed=benefit_support)
    from conftest import closure_by_squaring

    benefit_reach = closure_by_squaring(benefit_support)
    assert not (usage.closure & ~benefit_reach).any()


class TestPathWitness:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathWitness((1,))
        with pytest.raises(ValueError):
            PathWitness((1, 2, 1))
        assert PathWitness((0, 2, 1)).nodes == (0, 2, 1)

    def test_witness_is_a_selected_path(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 9))
            usage = make_usage(rng, n, max_edges=2 * n)
            for j in range(n):
                for i in range(n):
                    if i == j:
                        continue
                    witness = usage.path_witness(j, i)
                    if usage.closure[j, i]:
                        assert witness is not None
                        assert witness.nodes[0] == j and witness.nodes[-1] == i
                        for a, b in zip(witness.nodes, witness.nodes[1:]):
                            assert usage.x[a, b]
                    else:
                        assert witness is None

    def test_witness_is_as_short_as_a_level_search(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            usage = make_usage(rng, n, max_edges=3 * n)
            edges = usage.x & ~np.eye(n, dtype=bool)
            for j in range(n):
                # distance from j by whole levels: nodes first reached after k steps
                dist, level, seen = {j: 0}, np.eye(n, dtype=bool)[j], np.eye(n, dtype=bool)[j]
                for k in range(1, n):
                    level = edges[level].any(axis=0) & ~seen
                    seen |= level
                    dist.update((int(v), k) for v in np.flatnonzero(level))
                for i in range(n):
                    if i != j and i in dist:
                        assert len(usage.path_witness(j, i).nodes) - 1 == dist[i]

    def test_an_unreachable_target_raises_key_error(self):
        # 0 -> 1 and 2 -> 0: 2 reaches 0, but 0 does not reach 2, whose parent
        # stays -1, so following parents from it would never arrive at 0
        x = np.zeros((3, 3), dtype=bool)
        x[0, 1] = x[2, 0] = True
        usage = UsageGraph.from_edges(x)
        assert usage._witnesses(0, [1]) == [PathWitness((0, 1))]
        with pytest.raises(KeyError) as exc:
            usage._witnesses(0, [1, 2])
        assert exc.value.args == (2,)

    def test_violations_carry_the_pair_witness(self, rng):
        found = 0
        for _ in range(30):
            n = int(rng.integers(2, 12))
            inst = make_instance(rng, n, edge_prob=0.3)
            usage = make_usage(rng, n, max_edges=3 * n)
            violations = conflict_violations(inst, usage)
            assert [[j, i] for j, i, _ in violations] == \
                np.argwhere(inst.competing & usage.closure).tolist()
            for j, i, witness in violations:
                assert witness == usage.path_witness(j, i)
            found += len(violations)
        assert found > 30  # the draws do reach competitors


def reference_witnesses(x: np.ndarray, j: int, targets: list[int]) -> list[PathWitness]:
    """The node-at-a-time breadth-first search that ``UsageGraph._witnesses``
    replaced: frontier nodes in discovery order, each one's edges in index
    order, a node's parent the first frontier node to reach it."""
    parent = {j: -1}
    frontier, missing = [j], set(targets)
    while missing and frontier:
        nxt = []
        for u in frontier:
            for v in np.flatnonzero(x[u]).tolist():
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        missing.difference_update(nxt)
        frontier = nxt
    witnesses = []
    for t in targets:
        path = [t]
        while path[-1] != j:
            path.append(parent[path[-1]])
        witnesses.append(PathWitness(tuple(reversed(path))))
    return witnesses


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=16), st.floats(min_value=0.05, max_value=0.5),
       st.floats(min_value=0.2, max_value=0.9), st.integers(min_value=0, max_value=2**32 - 1))
def test_witnesses_match_the_node_at_a_time_search(n, edge_prob, competing_prob, seed):
    # random graphs with a cycle through some nodes and dense competition,
    # so most sources have several targets at several depths
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, n, edge_prob=competing_prob)
    x = rng.random((n, n)) < edge_prob
    cycle = rng.permutation(n)[:int(rng.integers(2, n + 1))]
    x[cycle, np.roll(cycle, -1)] = True
    np.fill_diagonal(x, False)
    usage = UsageGraph.from_edges(x)
    hits = inst.competing & usage.closure
    expected = [(j, i, w) for j in np.flatnonzero(hits.any(axis=1)).tolist()
                for i, w in zip(np.flatnonzero(hits[j]).tolist(),
                                reference_witnesses(x, j, np.flatnonzero(hits[j]).tolist()))]
    assert conflict_violations(inst, usage) == expected
    for j, i in np.argwhere(usage.closure & ~np.eye(n, dtype=bool)).tolist():
        assert usage.path_witness(j, i) == reference_witnesses(x, j, [i])[0]


def _small_instance() -> Instance:
    competing = np.zeros((3, 3), dtype=bool)
    competing[0, 2] = competing[2, 0] = True
    benefit = np.array([[0.0, 0.75, 0.0], [0.25, 0.0, 0.0], [0.0, 1.5, 0.0]])
    return Instance(3, competing, benefit)


def _widest_step():
    return max(select_collaborators(_small_instance())[1].steps, key=lambda s: s.candidates.size)


def _small_report():
    inst = _small_instance()
    config = SyntheticConfig(n=3, samples=(20, 20, 20), flipped=(False,) * 3, seed=1)
    return run_experiment(config, inst.competing, train_config=TrainConfig(rounds=1), reps=1,
                          benefit=inst.benefit)


@pytest.mark.parametrize("make,array,cell", [
    (_small_instance, "benefit", (0, 1)),
    (lambda: select_collaborators(_small_instance())[0], "x", (0, 1)),
    (_widest_step, "candidates", 1),
    (_small_report, "usage", (2, 0)),
], ids=["Instance", "UsageGraph", "StepTrace", "ExperimentReport"])
def test_array_holding_values_compare_by_value(make, array, cell):
    value = make()
    twin = copy.deepcopy(value)
    assert twin == value and not twin != value
    cells = getattr(twin, array).copy()
    cells[cell] = ~cells[cell] if cells.dtype == bool else cells[cell] + 1
    object.__setattr__(twin, array, cells)  # slots and frozen dataclasses alike
    assert twin != value and value != twin
    for foreign in (object(), 3):
        assert value.__eq__(foreign) is NotImplemented
        assert value != foreign and not value == foreign


def test_instance_repr_counts_edges():
    assert repr(_small_instance()) == "Instance(n=3, competing_edges=1, benefit_edges=3)"
