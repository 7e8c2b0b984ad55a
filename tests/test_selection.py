import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcollab import formats
from fedcollab.cli import main
from fedcollab.graphs import Instance, UsageGraph, conflict_free
from fedcollab.oracle import conflict_free_by_paths
from fedcollab.selection import (Selection, StepTrace, candidate_collaborators,
                                 processing_order, select_collaborators, select_step)
from fedcollab.synthdata import (STRONG_COMPETING_EDGES, WEAK_COMPETING_EDGES,
                                 competing_matrix)

from conftest import competitor_guards, make_instance, make_usage


def sequential_select(instance, usage, i):
    """The per-candidate scan that the batched step replaced, kept as its
    reference: each candidate's guards are read by the direct scan
    :func:`competitor_guards` on the graph as the accepts before it in scan
    order left it, and each accepted edge updates the closure (one outer
    product) on the spot. A reject's reason is the lowest node r of its
    downstream guard and the lowest node of its upstream guard that
    competes with r. Returns the step's columns, as :func:`columns` reads
    them from a step."""
    n, w = instance.n, instance.benefit[:, i]
    scan = sorted((j for j in range(n) if j != i and w[j] > 0.0 and not instance.competing[j, i]),
                  key=lambda j: (-w[j], j))
    verdicts, rivals, descendants, objective = [], [], [], 0.0
    for j in scan:
        upstream = downstream = frozenset()
        if not usage.x[j, i]:
            upstream, downstream = competitor_guards(instance, usage, i, j)
            if not (upstream or downstream):
                usage.x[j, i] = True
                usage.closure |= np.outer(usage.closure[:, j], usage.closure[i])
        accepted = not (upstream or downstream)
        if accepted:
            objective += float(w[j])
        else:
            r = min(downstream)
            rivals.append(r)
            descendants.append(min(d for d in upstream if instance.competing[r, d]))
        verdicts.append(accepted)
    return i, objective, scan, verdicts, rivals, descendants


def columns(step):
    """A step's participant, objective, candidates, verdicts and reasons
    as plain Python values."""
    return (step.participant, step.objective, step.candidates.tolist(),
            step.verdicts.tolist(), step.rivals.tolist(), step.descendants.tolist())


def no_competition(w):
    n = w.shape[0]
    return Instance(n, np.zeros((n, n), bool), w)


class TestCandidates:
    def test_empty_benefit_gives_no_candidates(self):
        inst = no_competition(np.zeros((3, 3)))
        assert all(candidate_collaborators(inst, i).tolist() == [] for i in range(3))

    def test_sorted_by_weight_then_index(self):
        w = np.zeros((3, 3))
        w[1, 0] = 0.2
        w[2, 0] = 0.9
        assert candidate_collaborators(no_competition(w), 0).tolist() == [2, 1]

    def test_equal_weights_break_by_index(self):
        w = np.zeros((3, 3))
        w[1, 0] = w[2, 0] = 0.5
        assert candidate_collaborators(no_competition(w), 0).tolist() == [1, 2]

    def test_competitor_excluded_despite_benefit(self):
        # participant 8 (index 7) competes with participant 2 (index 1)
        # in the weak quantity-skew topology
        s = competing_matrix(8, WEAK_COMPETING_EDGES)
        w = np.zeros((8, 8))
        w[1, 7] = 5.0
        w[0, 7] = 1.0
        inst = Instance(8, s, w)
        assert candidate_collaborators(inst, 7).tolist() == [0]

    def test_out_of_range_participant_raises(self):
        # without the check, -1 would read the last column
        w = np.zeros((3, 3))
        w[0, 2] = 1.0
        inst = no_competition(w)
        for i in (-1, 3):
            with pytest.raises(IndexError, match=f"node index {i} out of range for n=3"):
                candidate_collaborators(inst, i)

    def test_each_step_decides_over_the_candidates(self, rng):
        for _ in range(20):
            inst = make_instance(rng, edge_prob=0.3)
            selection = Selection(inst)
            for i in processing_order(inst):
                expected = candidate_collaborators(inst, i)
                step = select_step(selection, i)
                assert np.array_equal(step.candidates, expected)


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
        step = select_step(Selection(inst), 2)
        assert step.verdicts.all()
        assert np.array_equal(step.candidates, candidate_collaborators(inst, 2))
        assert step.objective == pytest.approx(inst.benefit[step.candidates, 2].sum())

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
        assert np.argwhere(usage.x).tolist() == [[2, 1]]
        # the reason: rival 2 reaches the candidate 1 and competes with 0 itself
        assert columns(trace.steps[2]) == (0, 0.0, [1], [False], [2], [0])


class TestSelectAll:
    def test_single_participant(self):
        inst = Instance(1, np.zeros((1, 1), bool), np.zeros((1, 1)))
        usage, trace = select_collaborators(inst)
        assert usage.x.tolist() == [[False]]
        assert trace.order == (0,)
        assert columns(trace.steps[0]) == (0, 0.0, [], [], [], [])

    def test_no_competition_dense_benefit_selects_everything(self, rng):
        w = rng.uniform(0.1, 1.0, (6, 6))
        inst = no_competition(w)
        usage, _ = select_collaborators(inst)
        assert np.array_equal(usage.x, ~np.eye(6, dtype=bool))

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

    def test_conflict_free_by_path_search_past_the_enumerators_cap(self, rng):
        # the path referee has no size cap, and it sees one competing pair
        # joined by a benefit edge break the selection
        for n in range(13, 61):
            inst = make_instance(rng, n, edge_prob=float(rng.uniform(0.1, 0.5)))
            usage, _ = select_collaborators(inst)
            assert conflict_free_by_paths(inst, usage)
            x = usage.x.copy()
            x[tuple(np.argwhere(inst.competing & (inst.benefit > 0))[0])] = True
            assert not conflict_free_by_paths(inst, UsageGraph.from_edges(x))

    def test_rejections_justified_by_guards(self, rng):
        # every rejection records a competing pair (r, d), and force-adding
        # the rejected edge into the final graph joins that pair
        for _ in range(40):
            inst = make_instance(rng, edge_prob=0.35)
            usage, trace = select_collaborators(inst)
            for step in trace.steps:
                rejected = step.candidates[~step.verdicts].tolist()
                assert len(rejected) == len(step.rivals) == len(step.descendants)
                for k, r, d in zip(rejected, step.rivals.tolist(), step.descendants.tolist()):
                    assert inst.competing[r, d]
                    x = usage.x.copy()
                    x[k, step.participant] = True
                    forced = UsageGraph.from_edges(x)
                    assert forced.closure[r, d] and not conflict_free(inst, forced)

    def test_selected_edges_respect_benefit_and_competition(self, rng):
        for _ in range(40):
            inst = make_instance(rng)
            usage, _ = select_collaborators(inst)
            for j, i in np.argwhere(usage.x).tolist():
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
        selection = Selection(inst)
        for i in processing_order(inst):
            value, _ = optimal_step(inst, selection.usage, i)
            step = select_step(selection, i)
            assert step.objective == pytest.approx(value, abs=1e-12)
            assert conflict_free(inst, selection.usage)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_recorded_guards_match_reference_scan(n, density, seed):
    # replay the accepted edges and, at every decision, recompute the guard
    # sets with the direct scan on the usage graph as it stood then: the
    # verdict is their emptiness, and a reject's reason (r, d) is a competing
    # pair joined through its edge, r ~> k -> i ~> d on the graph before the
    # step, r the lowest node of the downstream guard and d in the upstream
    # one; for n <= 12 the path oracle sees the edge break the final graph
    inst = make_instance(np.random.default_rng(seed), n, edge_prob=density)
    usage, trace = select_collaborators(inst)
    replay = UsageGraph(n)
    for step in trace.steps:
        i = step.participant
        before = replay.closure.copy()
        reasons = iter(zip(step.rivals.tolist(), step.descendants.tolist()))
        for k, accepted in zip(step.candidates.tolist(), step.verdicts.tolist()):
            if replay.x[k, i]:
                assert accepted
                continue
            upstream, downstream = competitor_guards(inst, replay, i, k)
            assert accepted == (not upstream and not downstream)
            if accepted:
                replay.add_edge(k, i)
                continue
            r, d = next(reasons)
            assert before[r, k] and before[i, d] and inst.competing[r, d]
            assert r == min(downstream) and d in upstream
            if n <= 12:
                x = usage.x.copy()
                x[k, i] = True
                forced = UsageGraph.from_edges(x)
                assert not conflict_free_by_paths(inst, forced)
        assert next(reasons, None) is None
    assert replay == usage


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=60), st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_batched_step_matches_sequential_scan(n, density, seed):
    # participants are served in a random order and some are served twice,
    # so later steps meet edges that are already present
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, n, edge_prob=density)
    perm = rng.permutation(n).tolist()
    served = perm + perm[:int(rng.integers(0, n + 1))]
    ref, selection = UsageGraph(n), Selection(inst)
    for i in served:
        expected = sequential_select(inst, ref, i)
        assert columns(select_step(selection, i)) == expected
        assert np.array_equal(selection.usage.x, ref.x)
        assert np.array_equal(selection.usage.closure, ref.closure)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_unchecked_update_builds_a_valid_graph(n, density, seed):
    # the step adds its edges without the checks of UsageGraph.add_edge;
    # after every step the checked path must accept the engine's edge list
    # and rebuild the same edges and closure from it
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, n, edge_prob=density)
    perm = rng.permutation(n).tolist()
    selection = Selection(inst)
    for i in perm + perm[:int(rng.integers(0, n + 1))]:
        select_step(selection, i)
        rebuilt = UsageGraph.from_edges(selection.usage.x)
        assert np.array_equal(rebuilt.x, selection.usage.x)
        assert np.array_equal(rebuilt.closure, selection.usage.closure)


class TestSelectionState:
    @staticmethod
    def state(selection):
        usage = selection.usage
        return usage.x.copy(), usage.closure.copy()

    def test_out_of_range_participant_leaves_the_selection_unchanged(self, rng):
        inst = make_instance(rng, 8, edge_prob=0.3)
        selection = Selection(inst)
        select_step(selection, processing_order(inst)[0])
        before = self.state(selection)
        for i in (-1, 8):
            with pytest.raises(IndexError, match=f"node index {i} out of range for n=8"):
                select_step(selection, i)
            assert all(map(np.array_equal, self.state(selection), before))

    def test_usage_refuses_writes(self, rng):
        n = 10
        inst = make_instance(rng, n, edge_prob=0.2)
        order = processing_order(inst)
        ref, selection = UsageGraph(n), Selection(inst)
        for k, i in enumerate(order):
            if k == n // 2:
                usage = selection.usage
                j, t = np.argwhere(~usage.x & ~np.eye(n, dtype=bool))[0].tolist()
                with pytest.raises(ValueError):
                    usage.add_edge(j, t)
                with pytest.raises(ValueError):
                    usage.x[j, t] = True
                with pytest.raises(ValueError):
                    usage.closure[j] = True
                assert np.array_equal(selection.usage.x, ref.x)
                assert np.array_equal(selection.usage.closure, ref.closure)
            assert columns(select_step(selection, i)) == sequential_select(inst, ref, i)
            assert np.array_equal(selection.usage.x, ref.x)
            assert np.array_equal(selection.usage.closure, ref.closure)

    def test_usage_is_one_view_that_follows_every_step(self, rng):
        n = 12
        inst = make_instance(rng, n, edge_prob=0.2)
        ref, selection = UsageGraph(n), Selection(inst)
        usage = selection.usage
        assert not usage.x.flags.writeable and not usage.closure.flags.writeable
        for i in processing_order(inst):
            assert columns(select_step(selection, i)) == sequential_select(inst, ref, i)
            assert selection.usage is usage
            assert np.array_equal(usage.x, ref.x)
            assert np.array_equal(usage.closure, ref.closure)
        assert usage.x.any()  # the steps added edges, and the view shows them
        j, t = np.argwhere(~usage.x & ~np.eye(n, dtype=bool))[0].tolist()
        with pytest.raises(ValueError):
            usage.add_edge(j, t)
        assert np.array_equal(usage.x, ref.x)


def _all_rejected_step():
    # 0 competes with 3, which benefits 1 and 2: once 3 -> 1 and 3 -> 2 are
    # in, either of 0's candidates 1 and 2 would let 3 reach 0
    s = np.zeros((4, 4), bool)
    s[0, 3] = s[3, 0] = True
    w = np.zeros((4, 4))
    w[3, 1] = w[3, 2] = 1.0
    w[1, 0], w[2, 0] = 0.5, 0.4
    selection = Selection(Instance(4, s, w))
    select_step(selection, 1)
    select_step(selection, 2)
    return select_step(selection, 0)


STEPS = {  # a step, and its reasons (rivals, descendants) as recorded
    "n=1": (lambda: select_step(Selection(no_competition(np.zeros((1, 1)))), 0), ([], [])),
    "zero column": (lambda: select_step(Selection(no_competition(np.eye(3)[::-1] * 0.5)), 1),
                    ([], [])),
    "all rejected": (_all_rejected_step, ([3, 3], [0, 0])),
    "all accepted": (lambda: select_step(Selection(no_competition(np.ones((4, 4)))), 2),
                     ([], [])),
}


@pytest.mark.parametrize("case", list(STEPS))
def test_step_trace_equality_reads_every_column(case):
    make, expected = STEPS[case]
    step = make()
    assert (step.rivals.tolist(), step.descendants.tolist()) == expected
    assert len(step.rivals) == np.count_nonzero(~step.verdicts)
    cols = [step.candidates, step.verdicts, step.rivals, step.descendants]
    assert StepTrace(step.participant, step.objective, *map(np.copy, cols)) == step
    # one more entry in any column differs
    for k in range(4):
        changed = list(cols)
        changed[k] = np.append(cols[k], 0)
        assert StepTrace(step.participant, step.objective, *changed) != step


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=20), st.floats(min_value=0.0, max_value=0.6),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_guard_sets_are_empty_together(n, density, seed):
    # the fact the one-row verdict rests on: on any usage graph, cycles and
    # conflicts included, the upstream and downstream guards of j -> i are
    # the two ends of the same competing pairs, so neither is empty alone
    rng = np.random.default_rng(seed)
    inst = make_instance(rng, n, edge_prob=density)
    usage = make_usage(rng, n, max_edges=2 * n)
    for i in range(n):
        for j in range(n):
            if i != j:
                upstream, downstream = competitor_guards(inst, usage, i, j)
                assert bool(upstream) == bool(downstream)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=30), st.floats(min_value=0.0, max_value=0.5),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_accepts_are_the_empty_guard_candidates_before_the_step(n, density, seed):
    # the lemma behind the batched step: within a step, a candidate is
    # accepted iff its edge is present or both of its guard sets are empty
    # on the graph as it stood before the step
    inst = make_instance(np.random.default_rng(seed), n, edge_prob=density)
    selection = Selection(inst)
    for i in processing_order(inst):
        before = UsageGraph.from_edges(selection.usage.x)
        expected = {j for j in candidate_collaborators(inst, i).tolist()
                    if before.x[j, i] or competitor_guards(inst, before, i, j) == (set(), set())}
        step = select_step(selection, i)
        assert set(step.candidates[step.verdicts].tolist()) == expected


def seeded_instance(seed: int, n: int, competition: float, benefit: float = 0.3) -> Instance:
    rng = np.random.default_rng(seed)
    s = np.triu(rng.random((n, n)) < competition, 1)
    s = s | s.T
    w = np.where(rng.random((n, n)) < benefit, rng.uniform(0.05, 1.0, (n, n)), 0.0)
    np.fill_diagonal(w, 0.0)
    return Instance(n, s, w)


def _select_output(tmp_path, seed, n, competition) -> bytes:
    src, out = tmp_path / "instance.txt", tmp_path / "selection.txt"
    src.write_text(formats.serialize_instance(seeded_instance(seed, n, competition)))
    assert main(["select", "--instance", str(src), "--out", str(out)]) == 0
    return out.read_bytes()


# SHA-256 of `fedcollab select` output as written since a reject records
# one reason (r, d); any byte drift in the output fails here.
GOLDEN_SELECT = [
    (11, 40, 0.02, "90fde6e1271b595fd2eb9ea9e399a0d4a17f626357111418c5e8ccaf15cd84e3"),
    (12, 40, 0.15, "bb0b0c0bcd0097894390e1131f18f17332972803df9455bf3fe5f9e1d725b321"),
    (13, 160, 0.01, "6ce0a256e723be6b12533977ffe7f6f884e1559dedc2f0a9e1f475cab2c8d383"),
    (14, 160, 0.15, "907bb491e52799c3f87edb8c2855726ef8d207ff1ceebadf9b1c98e5f27f86fe"),
]


@pytest.mark.parametrize("seed,n,competition,digest", GOLDEN_SELECT)
def test_select_output_is_byte_stable(tmp_path, seed, n, competition, digest):
    output = _select_output(tmp_path, seed, n, competition)
    assert hashlib.sha256(output).hexdigest() == digest


# SHA-256 of the same outputs with every `decision` line cut to its first
# five fields (key, participant, candidate, weight, verdict), as written
# by every engine since the direct scan: the graph, the order, the
# objectives and the verdicts, without the reasons.
GOLDEN_SELECT_VERDICTS = [
    (11, 40, 0.02, "a8f919ebce6f153d5ee83fc97d11c97e2592ff5f350d54650c678a8652e8cac9"),
    (12, 40, 0.15, "72970656c59e790d36ee78d2052143ac50439ae02009d04603fe3536464c0276"),
    (13, 160, 0.01, "4e1224f6d59269a6c52d739b1d2cea11d61b0bfa8078fa909c49e5c8b10bcf66"),
    (14, 160, 0.15, "c7821f928ab6fe27f670988ae2cd544f47d3e7c06a75b24a564d2343cb7800a1"),
]


@pytest.mark.parametrize("seed,n,competition,digest", GOLDEN_SELECT_VERDICTS)
def test_select_verdicts_are_byte_stable(tmp_path, seed, n, competition, digest):
    lines = _select_output(tmp_path, seed, n, competition).split(b"\n")
    cut = [b" ".join(line.split(b" ")[:5]) if line.startswith(b"decision ") else line
           for line in lines]
    assert hashlib.sha256(b"\n".join(cut)).hexdigest() == digest


# SHA-256 of `fedcollab verify` output on n=12 select outputs, where the
# path oracle also runs, as written and with the first rejected edge added
# back; recorded while the oracle enumerated simple paths.
GOLDEN_VERIFY = [
    (31, 0.1, "9b287f1da1b8480f017ccf58d71408f65c097ebd268c403ce5c02a67459404ee",
     "e2e46aca57a1d61b862100313a1a272a94d33b009c807a401444e1233b6ea05d"),
    (32, 0.2, "9b287f1da1b8480f017ccf58d71408f65c097ebd268c403ce5c02a67459404ee",
     "e64cfce80b33eac183dcc877fab05f6c2bb83a0470575d957a6a1e9ce786fec7"),
    (33, 0.3, "9b287f1da1b8480f017ccf58d71408f65c097ebd268c403ce5c02a67459404ee",
     "6c1ac55e98f20e01a27b4d3385d1b4b5864956899785b7027c7989be70c67e26"),
]


@pytest.mark.parametrize("seed,competition,clean_digest,conflict_digest", GOLDEN_VERIFY)
def test_verify_output_is_byte_stable(tmp_path, seed, competition, clean_digest,
                                      conflict_digest):
    inst = seeded_instance(seed, 12, competition, benefit=0.4)
    src, selection = tmp_path / "instance.txt", tmp_path / "selection.txt"
    src.write_text(formats.serialize_instance(inst))
    assert main(["select", "--instance", str(src), "--out", str(selection)]) == 0
    _, trace = select_collaborators(inst)
    j, i = next((j, step.participant) for step in trace.steps
                for j, ok in zip(step.candidates.tolist(), step.verdicts.tolist()) if not ok)
    conflict = tmp_path / "conflict.txt"
    conflict.write_text(selection.read_text()
                        + f"edge {formats.node_label(j)} {formats.node_label(i)}\n")
    out = tmp_path / "verdict.txt"
    for usage, code, digest in ((selection, 0, clean_digest), (conflict, 1, conflict_digest)):
        assert main(["verify", "--instance", str(src), "--usage", str(usage),
                     "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of serialize_sim_config on both presets with the default
# TrainConfig and reps, as written while it sorted the pairs it was given.
GOLDEN_SIM_CONFIG = [
    ("weak_noniid", "a33b545f37114bd3e41cbc430f979e8ab0fc22b58b44efeed31f3987db5fe771"),
    ("strong_noniid", "849892cace8845fa5b14803459e10ec6e93aa7ce988c9317e72e892f11ed690e"),
]


@pytest.mark.parametrize("preset_name,digest", GOLDEN_SIM_CONFIG)
def test_sim_config_writer_is_byte_stable(preset_name, digest):
    from fedcollab.fedtrain import TrainConfig
    from fedcollab.synthdata import preset

    config, edges = preset(preset_name)
    text = formats.serialize_sim_config(config, edges, TrainConfig(), reps=3)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
