import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcollab import formats
from fedcollab.cli import main
from fedcollab.graphs import Instance, UsageGraph, competitor_guards, conflict_free
from fedcollab.oracle import conflict_free_by_paths
from fedcollab.selection import (candidate_collaborators, conflict_matrices, processing_order,
                                 select_collaborators, select_step)
from fedcollab.synthdata import (STRONG_COMPETING_EDGES, WEAK_COMPETING_EDGES,
                                 competing_matrix)

from conftest import make_instance, make_usage


def no_competition(w):
    n = w.shape[0]
    return Instance(n, np.zeros((n, n), bool), w)


class TestCandidates:
    def test_empty_benefit_gives_no_candidates(self):
        inst = no_competition(np.zeros((3, 3)))
        assert all(candidate_collaborators(inst, i) == [] for i in range(3))

    def test_sorted_by_weight_then_index(self):
        w = np.zeros((3, 3))
        w[1, 0] = 0.2
        w[2, 0] = 0.9
        assert candidate_collaborators(no_competition(w), 0) == [2, 1]

    def test_equal_weights_break_by_index(self):
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 0] = 0.5
        assert candidate_collaborators(no_competition(w), 0) == [1, 2]

    def test_competitor_excluded_despite_benefit(self):
        # participant 8 (index 7) competes with participant 2 (index 1)
        # in the weak quantity-skew topology
        s = competing_matrix(8, WEAK_COMPETING_EDGES)
        w = np.zeros((8, 8))
        w[1, 7] = 5.0
        w[0, 7] = 1.0
        inst = Instance(8, s, w)
        assert candidate_collaborators(inst, 7) == [0]


class TestProcessingOrder:
    def test_sorted_by_potential_with_index_ties(self):
        w = np.zeros((3, 3))
        w[1, 0] = 1.0  # potential 1 for node 1
        w[2, 1] = 1.0  # potential 1 for node 2
        inst = Instance(3, np.zeros((3, 3), bool), w)
        assert processing_order(inst) == [1, 2, 0]


class TestSelectStep:
    def test_accepts_everything_without_competition(self, rng):
        w = rng.uniform(0.1, 1, (5, 5))
        inst = no_competition(w)
        usage = UsageGraph(5)
        step = select_step(inst, usage, 2)
        assert step.accepted == tuple(candidate_collaborators(inst, 2))
        assert step.objective == pytest.approx(sum(inst.benefit[j, 2] for j in step.accepted))

    def test_three_node_cascade_rejection(self):
        # 0 and 2 compete; 1 benefits 0, 2 benefits 1. Serving 1 first
        # adds 2 -> 1, after which 1 -> 0 would let 2 reach its
        # competitor 0, so 0's only candidate is rejected.
        s = np.zeros((3, 3), bool)
        s[0, 2] = s[2, 0] = True
        w = np.zeros((3, 3))
        w[1, 0] = 1.0
        w[2, 1] = 1.0
        inst = Instance(3, s, w)
        usage, trace = select_collaborators(inst)
        assert trace.order == (1, 2, 0)
        assert usage.edges() == [(2, 1)]
        step0 = trace.steps[2]
        assert step0.participant == 0
        (decision,) = step0.decisions
        assert decision.candidate == 1 and not decision.accepted
        assert decision.guard_upstream == (0,)
        assert decision.guard_downstream == (2,)
        assert step0.objective == 0.0

    def test_precondition_violation_is_contract_error(self):
        s = np.zeros((3, 3), bool)
        s[0, 1] = s[1, 0] = True
        w = np.ones((3, 3))
        # a usage graph that already connects the competitors
        inst = Instance(3, s, w)
        usage = UsageGraph(3).add_edge(0, 1)
        with pytest.raises(RuntimeError, match="conflict"):
            select_step(inst, usage, 0)


class TestSelectAll:
    def test_single_participant(self):
        inst = Instance(1, np.zeros((1, 1), bool), np.zeros((1, 1)))
        usage, trace = select_collaborators(inst)
        assert usage.x.tolist() == [[True]]
        assert trace.order == (0,)
        assert trace.steps[0].decisions == ()

    def test_no_competition_dense_benefit_selects_everything(self, rng):
        w = rng.uniform(0.1, 1.0, (6, 6))
        inst = no_competition(w)
        usage, _ = select_collaborators(inst)
        assert np.array_equal(usage.x, np.ones((6, 6), bool))

    def test_deterministic(self, rng):
        inst = make_instance(rng, 8, edge_prob=0.3)
        u1, t1 = select_collaborators(inst)
        u2, t2 = select_collaborators(inst)
        assert np.array_equal(u1.x, u2.x)
        assert t1 == t2

    def test_benefit_scaling_leaves_selection_unchanged(self, rng):
        for _ in range(20):
            inst = make_instance(rng)
            scaled = Instance(inst.n, inst.competing, inst.benefit * 37.5)
            u1, t1 = select_collaborators(inst)
            u2, t2 = select_collaborators(scaled)
            assert np.array_equal(u1.x, u2.x)
            assert t1.order == t2.order

    def test_always_conflict_free(self, rng):
        for _ in range(150):
            inst = make_instance(rng)
            usage, _ = select_collaborators(inst)
            assert conflict_free(inst, usage)

    def test_conflict_free_by_path_enumeration_small(self, rng):
        for _ in range(40):
            inst = make_instance(rng, int(rng.integers(2, 8)), edge_prob=0.35)
            usage, _ = select_collaborators(inst)
            assert conflict_free_by_paths(inst, usage)

    def test_rejections_justified_by_guards(self, rng):
        # every rejection records a non-empty guard, and force-adding the
        # rejected edge into the final graph either breaks conflict
        # freedom or was blocked by guards that later edges explain
        for _ in range(40):
            inst = make_instance(rng, edge_prob=0.35)
            usage, trace = select_collaborators(inst)
            for step in trace.steps:
                for decision in step.decisions:
                    if decision.accepted:
                        assert decision.guard_upstream == ()
                        assert decision.guard_downstream == ()
                        continue
                    has_guard = decision.guard_upstream or decision.guard_downstream
                    forced = usage.copy().add_edge(decision.candidate, step.participant)
                    assert has_guard or not conflict_free(inst, forced)
                    assert has_guard

    def test_selected_edges_respect_benefit_and_competition(self, rng):
        for _ in range(40):
            inst = make_instance(rng)
            usage, _ = select_collaborators(inst)
            for j, i in usage.edges():
                assert inst.benefit[j, i] > 0
                assert not inst.competing[j, i]

    @pytest.mark.parametrize("edges", [WEAK_COMPETING_EDGES, STRONG_COMPETING_EDGES])
    def test_fixed_topologies_reach_per_step_optimum(self, edges):
        # with seeded random benefits over the preset competition graphs,
        # every step's realized value equals the exhaustive optimum
        from fedcollab.oracle import optimal_step
        from fedcollab.selection import processing_order

        w = np.random.default_rng(31).uniform(0.1, 1.0, (8, 8))
        np.fill_diagonal(w, 0.0)
        inst = Instance(8, competing_matrix(8, edges), w)
        usage = UsageGraph(8)
        for i in processing_order(inst):
            verdict = optimal_step(inst, usage, i)
            step = select_step(inst, usage, i)
            assert step.objective == pytest.approx(verdict.optimal_value, abs=1e-12)
            assert conflict_free(inst, usage)


class TestConflictMatrices:
    def test_match_definition(self, rng):
        # arbitrary usage graphs, cycles and conflicts included
        for _ in range(30):
            inst = make_instance(rng, edge_prob=0.3)
            n = inst.n
            usage = make_usage(rng, n, max_edges=2 * n)
            c, s = usage.closure, inst.competing
            anc_comp, desc_comp = conflict_matrices(inst, usage)
            for q in range(n):
                for k in range(n):
                    assert anc_comp[q, k] == any(c[a, q] and s[a, k] for a in range(n))
                    assert desc_comp[q, k] == any(c[q, d] and s[d, k] for d in range(n))

    def test_passed_matrices_track_the_usage_graph(self, rng):
        for _ in range(30):
            inst = make_instance(rng, edge_prob=0.3)
            usage = UsageGraph(inst.n)
            conflicts = conflict_matrices(inst, usage)
            for i in processing_order(inst):
                select_step(inst, usage, i, conflicts=conflicts)
                for kept, fresh in zip(conflicts, conflict_matrices(inst, usage)):
                    assert np.array_equal(kept, fresh)

    def test_steps_without_matrices_match_full_run(self, rng):
        for _ in range(20):
            inst = make_instance(rng, edge_prob=0.3)
            usage, trace = select_collaborators(inst)
            replay = UsageGraph(inst.n)
            steps = tuple(select_step(inst, replay, i) for i in trace.order)
            assert steps == trace.steps
            assert replay == usage


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_recorded_guards_match_reference_scan(n, density, seed):
    # replay the accepted edges and, at every decision, recompute the guard
    # sets with the direct scan on the usage graph as it stood then
    inst = make_instance(np.random.default_rng(seed), n, edge_prob=density)
    usage, trace = select_collaborators(inst)
    replay = UsageGraph(n)
    for step in trace.steps:
        i = step.participant
        for d in step.decisions:
            if replay.x[d.candidate, i]:
                assert d.accepted and d.guard_upstream == d.guard_downstream == ()
                continue
            upstream, downstream = competitor_guards(inst, replay, i, d.candidate)
            assert d.guard_upstream == tuple(sorted(upstream))
            assert d.guard_downstream == tuple(sorted(downstream))
            assert d.accepted == (not upstream and not downstream)
            if d.accepted:
                replay.add_edge(d.candidate, i)
    assert replay == usage


def seeded_instance(seed: int, n: int, competition: float, benefit: float = 0.3) -> Instance:
    rng = np.random.default_rng(seed)
    s = np.triu(rng.random((n, n)) < competition, 1)
    s = s | s.T
    w = np.where(rng.random((n, n)) < benefit, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return Instance(n, s, w)


# SHA-256 of `fedcollab select` output as written by the direct-scan engine
# (before the conflict matrices); any byte drift in the output fails here.
GOLDEN_SELECT = [
    (11, 40, 0.02, "42842fe197246703dcd3adaec9f9da3f367edce7f2a69ea334e81e3a821d3f27"),
    (12, 40, 0.15, "4033ab343a4279941863f1faddf05cb114980a2d595414c68fe046fc40f63da4"),
    (13, 160, 0.01, "de179f418560fdbb9bb90d768b176488a1fc89af061a71c152ef2c4f3f081a7c"),
    (14, 160, 0.15, "bb8fa67b7a48a46d98ed85b14c82f21a559b58c192c13d49fff73665150575dd"),
]


@pytest.mark.parametrize("seed,n,competition,digest", GOLDEN_SELECT)
def test_select_output_is_byte_stable(tmp_path, seed, n, competition, digest):
    src, out = tmp_path / "instance.txt", tmp_path / "selection.txt"
    src.write_text(formats.serialize_instance(seeded_instance(seed, n, competition)))
    assert main(["select", "--instance", str(src), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
