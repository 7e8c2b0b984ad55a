import warnings

import numpy as np
import pytest

from fedcollab import fedtrain
from fedcollab.fedtrain import (METHODS, TrainConfig, TrainingDivergenceError,
                                aggregation_coefficients, estimate_benefit,
                                loss_gradient, mean_squared_error, run_experiment,
                                _mixing, _participant_streams,
                                _rep_seed, _round_loop, _scores, _singletons)
from fedcollab.graphs import InvalidInstanceError, UsageGraph
from fedcollab.synthdata import (SyntheticConfig, generate_task, preset,
                                 polynomial_features, with_seed)

FAST = TrainConfig(rounds=5, local_epochs=1)


def trained(task, grouping, cfg, seed, benefit=None):
    """Per-participant validation MSE after training one grouping, by the
    path run_experiment takes: _round_loop over _mixing, then _scores."""
    mixing = _mixing(grouping, benefit, [len(y) for _, y in task.train])
    return _scores(_round_loop([task], [seed], [mixing], cfg)[0, 0], task.val)


def small_task(n=2, samples=(60, 60), flipped=None, rho=0.01, seed=0):
    flipped = (False,) * n if flipped is None else flipped
    return generate_task(SyntheticConfig(n=n, samples=samples, flipped=flipped,
                                         rho=rho, seed=seed))


class TestLossAndGradient:
    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            m, p = 40, 3
            phi = rng.normal(size=(m, p))
            y = rng.normal(size=m)
            theta = rng.normal(size=p)
            grad = loss_gradient(theta, phi, y)
            eps = 1e-6
            for k in range(p):
                step = np.zeros(p)
                step[k] = eps
                numeric = (mean_squared_error(theta + step, phi, y)
                           - mean_squared_error(theta - step, phi, y)) / (2 * eps)
                assert grad[k] == pytest.approx(numeric, rel=1e-4, abs=1e-8)


class TestAggregationWeights:
    def test_sum_to_one_and_self_rule(self):
        usage = UsageGraph(4).add_edge(1, 0).add_edge(2, 0)
        w = np.zeros((4, 4))
        w[1, 0], w[2, 0] = 0.3, 0.9
        collaborators, coefs = aggregation_coefficients(usage, w, 0)
        assert collaborators == [1, 2]
        assert coefs.sum() == pytest.approx(1.0, abs=1e-15)
        # self weight equals the best collaborator weight before normalizing
        assert coefs[0] == pytest.approx(0.9 / (0.9 + 0.3 + 0.9))
        assert coefs[0] == max(coefs)

    def test_no_collaborators(self):
        collaborators, coefs = aggregation_coefficients(UsageGraph(3), np.zeros((3, 3)), 1)
        assert collaborators == [] and coefs.tolist() == [1.0]

    @pytest.mark.parametrize("weight,shown", [(0.0, "0.0"), (np.nan, "nan"), (-1.0, "-1.0")])
    def test_collaborator_without_benefit_is_refused_before_dividing(self, weight, shown):
        # a zero sum would give NaN weights, and NaN passes the sum guard
        usage = UsageGraph(3).add_edge(0, 1).add_edge(2, 1)
        w = np.zeros((3, 3))
        w[0, 1], w[2, 1] = 0.5, weight
        message = rf"usage edge \(2, 1\) has benefit {shown}, which is not positive"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                aggregation_coefficients(usage, w, 1)
            with pytest.raises(ValueError, match=r"usage edge \(0, 1\) has benefit 0.0"):
                _mixing(UsageGraph(3).add_edge(0, 1), np.zeros((3, 3)), [30, 30, 30])

    def test_overflowing_weights_fail_the_sum_guard(self):
        # each weight is finite, but the self weight doubles their sum past the float range
        usage = UsageGraph(3).add_edge(0, 1)
        w = np.zeros((3, 3))
        w[0, 1] = 1e308
        message = r"aggregation weights of participant v2 \(index 1\) sum past the float range"
        with pytest.raises(InvalidInstanceError, match=message):
            _mixing(usage, w, [30, 30, 30])


class TestTrainContracts:
    def test_divergence_raises(self):
        # the overflow itself warns nothing: every warning fails the suite
        for rounds, message in ((3, "non-finite validation loss$"),
                                (20, "non-finite model parameters during round")):
            cfg = TrainConfig(rounds=rounds, learning_rate=1e30)
            with pytest.raises(TrainingDivergenceError, match=message):
                trained(small_task(), _singletons(2), cfg, seed=0)
        with pytest.raises(TrainingDivergenceError, match="during benefit estimation"):
            estimate_benefit(small_task(), TrainConfig(rounds=3, learning_rate=1e30))

    @pytest.mark.parametrize("field,value,message", [
        ("learning_rate", 0.0, "learning_rate must be positive"),
        ("learning_rate", -0.5, "learning_rate must be positive"),
        ("benefit_threshold", -1e-9, "benefit_threshold must be nonnegative"),
    ])
    def test_config_rejects_out_of_range_values(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})

    def test_deterministic(self):
        task = small_task(seed=3)
        a = trained(task, _singletons(2), FAST, seed=11)
        b = trained(task, _singletons(2), FAST, seed=11)
        assert np.array_equal(a, b)


class TestSingleParticipant:
    def test_all_methods_collapse_to_local(self):
        task = small_task(n=1, samples=(80,))
        # local, fedavg and ce all group the one participant alone
        for grouping in (_singletons(1), UsageGraph(1)):
            scores = trained(task, grouping, FAST, seed=5, benefit=np.zeros((1, 1)))
            assert np.array_equal(scores, trained_alone(task, FAST, 5))

    @pytest.mark.parametrize("method", ["fedavg", "ce", "fedcompetitors"])
    def test_self_only_mixing_is_local_bit_for_bit(self, method):
        # n = 4, singleton groups or no usage edges: nobody mixes in another model
        task = small_task(n=4, samples=(90, 70, 50, 30), seed=4)
        benefit = np.full((4, 4), 0.5)
        np.fill_diagonal(benefit, 0.0)
        grouping = UsageGraph(4) if method == "fedcompetitors" else _singletons(4)
        scores = trained(task, grouping, FAST, seed=9, benefit=benefit)
        assert np.array_equal(scores, trained_alone(task, FAST, 9))

    def test_singleton_rows_are_exactly_self_only(self):
        # a group of one weighs its member by size / size, which is exactly 1.0
        rows, mix_after = _mixing(_singletons(3), None, [49, 1, 104])
        assert rows == [((0,), (1.0,)), ((1,), (1.0,)), ((2,), (1.0,))] and not mix_after


def sgd_epochs(theta, phi, y, epochs, lr, batch, rng):
    """Sequential reference: one participant's minibatch SGD from theta."""
    out = theta.copy()
    m = len(y)
    for _ in range(epochs):
        order = rng.permutation(m)
        for s in range(0, m, batch):
            idx = order[s:s + batch]
            out -= lr * loss_gradient(out, phi[idx], y[idx])
    return out


def trained_alone(task, cfg, seed):
    """Reference local training: each participant continues SGD from its
    own previous model every round, with no mixing step at all."""
    streams = _participant_streams(seed, task.n)
    scores = []
    for i in range(task.n):
        theta = np.zeros(task.config.degree)
        for _ in range(cfg.rounds):
            theta = sgd_epochs(theta, *task.train[i], cfg.local_epochs, cfg.learning_rate,
                               cfg.batch_size, streams[i])
        scores.append(mean_squared_error(theta, *task.val[i]))
    return np.array(scores)


def shared_model_fedavg(task, groups, cfg, seed):
    """Reference FedAvg with one shared model per group: every round each
    member trains from the group's model, which then becomes the members'
    sample-count weighted average, summed in group order."""
    streams = _participant_streams(seed, task.n)
    thetas = np.zeros((task.n, task.config.degree))
    for group in groups:
        shared = np.zeros(task.config.degree)
        sizes = np.array([len(task.train[i][1]) for i in group], dtype=np.float64)
        weights = sizes / sizes.sum()
        for _ in range(cfg.rounds):
            updates = [sgd_epochs(shared, *task.train[i], cfg.local_epochs,
                                  cfg.learning_rate, cfg.batch_size, streams[i])
                       for i in group]
            shared = sum(w * u for w, u in zip(weights, updates))
        for i in group:
            thetas[i] = shared
    return np.array([mean_squared_error(thetas[i], *task.val[i]) for i in range(task.n)])


class TestFedAvgReference:
    @pytest.mark.parametrize("groups", [((0, 1, 2, 3),), ((0, 2), (1, 3))])
    def test_mixing_rows_match_shared_model(self, groups):
        task = small_task(n=4, samples=(90, 70, 50, 30), rho=0.2, seed=2)
        cfg = TrainConfig(rounds=6, local_epochs=2, batch_size=16)
        scores = trained(task, groups, cfg, seed=13)
        assert np.array_equal(scores, shared_model_fedavg(task, groups, cfg, 13))


def sequential_models(task, rows, mix_after, cfg, seed):
    """Reference round loop: participant after participant, minibatch
    after minibatch, each starting from its ordered mixing-row sum."""
    def mix(thetas, row):
        return sum(c * thetas[j] for c, j in zip(row[1], row[0]))

    streams = _participant_streams(seed, task.n)
    thetas = np.zeros((task.n, task.config.degree))
    for _ in range(cfg.rounds):
        thetas = np.array([sgd_epochs(mix(thetas, row), *task.train[i], cfg.local_epochs,
                                      cfg.learning_rate, cfg.batch_size, streams[i])
                           for i, row in enumerate(rows)])
    if mix_after:
        thetas = np.array([mix(thetas, row) for row in rows])
    return thetas


class TestLockStep:
    def test_batched_gradient_equals_each_1d_call(self):
        rng = np.random.default_rng(3)
        theta = rng.normal(size=(4, 5, 3))
        phi, y = rng.normal(size=(5, 7, 3)), rng.normal(size=(5, 7))
        batched = loss_gradient(theta, phi, y)
        assert batched.shape == (4, 5, 3)
        for k in range(4):
            for g in range(5):
                assert np.array_equal(batched[k, g], loss_gradient(theta[k, g], phi[g], y[g]))

    def test_one_loop_call_matches_each_mixing_alone_and_sequential(self):
        # training sets of 49, 1, 49, 104 and 20: v1 and v3 share a size group,
        # batches of 10 leave a partial last batch, and v2 trains on one sample;
        # three repetitions of the task, each with its own shuffle seed
        seeds = [21, 22, 40]
        tasks = [small_task(n=5, samples=(61, 1, 61, 130, 25), rho=0.2, seed=seed)
                 for seed in (3, 4, 5)]
        sizes = [len(y) for _, y in tasks[0].train]
        assert sizes == [49, 1, 49, 104, 20]
        cfg = TrainConfig(rounds=4, local_epochs=2, batch_size=10)
        cover = ((0, 2, 3), (1, 4))
        coalitions = ((0, 2), (1, 4), (3,))
        usage = UsageGraph(5).add_edge(2, 0).add_edge(3, 0).add_edge(0, 1).add_edge(4, 3)
        benefit = np.zeros((5, 5))
        benefit[2, 0], benefit[3, 0], benefit[0, 1], benefit[4, 3] = 0.3, 0.8, 0.5, 0.2
        grouping = {"local": _singletons(5), "fedavg": cover, "ce": coalitions,
                    "fedcompetitors": usage}
        mixings = [_mixing(grouping[m], benefit, sizes) for m in METHODS]
        assert len({(tuple(rows), after) for rows, after in mixings}) == len(METHODS)

        together = _round_loop(tasks, seeds, mixings, cfg)
        assert together.shape == (3, len(METHODS), 5, tasks[0].config.degree)
        for task, seed, models in zip(tasks, seeds, together):
            assert np.array_equal(models, _round_loop([task], [seed], mixings, cfg)[0])
            for k, (rows, mix_after) in enumerate(mixings):
                alone = _round_loop([task], [seed], [(rows, mix_after)], cfg)
                assert np.array_equal(models[k], alone[0, 0])
                assert np.array_equal(models[k],
                                      sequential_models(task, rows, mix_after, cfg, seed))


def zero_labels(task, i):
    """Replace participant i's train and validation labels by zeros."""
    for rows in (task.train, task.val):
        rows[i] = (rows[i][0], np.zeros_like(rows[i][1]))


class TestUsageGating:
    def test_unreachable_data_cannot_influence_model(self):
        # chain 0 -> 1 (1 uses 0); node 2 is unreachable to both
        cfg = SyntheticConfig(n=3, samples=(50, 50, 50), flipped=(False,) * 3, seed=6)
        usage = UsageGraph(3).add_edge(0, 1)
        w = np.zeros((3, 3))
        w[0, 1] = 0.5

        def run(task):
            return trained(task, usage, FAST, seed=6, benefit=w)

        base_scores = run(generate_task(cfg))
        poisoned = generate_task(cfg)
        zero_labels(poisoned, 2)
        poisoned_scores = run(poisoned)
        assert poisoned_scores[0] == base_scores[0]  # bit-identical
        assert poisoned_scores[1] == base_scores[1]
        assert poisoned_scores[2] != base_scores[2]

        # zeroing a node that IS upstream of 1 must change 1's result
        poisoned2 = generate_task(cfg)
        zero_labels(poisoned2, 0)
        changed = run(poisoned2)
        assert changed[1] != base_scores[1]


class TestEstimateBenefit:
    def test_identical_distributions_are_symmetric(self):
        # same task, independent equally sized samples: neither direction
        # can claim a real improvement, so the estimates agree closely
        task = small_task(n=2, samples=(2000, 2000), rho=0.0, seed=5)
        w = estimate_benefit(task)
        assert abs(w[0, 1] - w[1, 0]) <= 1e-2
        assert w[0, 1] >= 0.0 and w[1, 0] >= 0.0

    def test_flipped_labels_yield_no_benefit(self):
        task = small_task(n=2, samples=(2000, 2000), flipped=(False, True), seed=5)
        w = estimate_benefit(task)
        assert w[0, 1] == 0.0 and w[1, 0] == 0.0

    def test_quantity_skew_is_one_directional(self):
        task = small_task(n=2, samples=(2000, 100), seed=5)
        w = estimate_benefit(task)
        assert w[0, 1] > 0.0  # data-rich helps data-poor
        assert w[1, 0] == 0.0  # not the other way around

    def test_diagonal_is_zero(self):
        w = estimate_benefit(small_task(seed=2))
        assert w[0, 0] == 0.0 and w[1, 1] == 0.0


class TestBaselineSanity:
    def test_grand_coalition_fedavg_beats_local_under_iid(self):
        # same distribution and sample counts everywhere: pooling data can
        # only help; averaged over reps the ordering is strict per node
        cfg = SyntheticConfig(n=4, samples=(240,) * 4, flipped=(False,) * 4,
                              rho=0.0, seed=1, val_fraction=0.5)
        tc = TrainConfig(rounds=40, local_epochs=5, learning_rate=0.05)
        grand = (tuple(range(4)),)
        locals_, fedavgs = [], []
        for rep in range(12):
            seed = _rep_seed(cfg.seed, rep)
            task = generate_task(with_seed(cfg, seed))
            locals_.append(trained(task, _singletons(4), tc, seed))
            fedavgs.append(trained(task, grand, tc, seed))
        assert (np.mean(fedavgs, axis=0) <= np.mean(locals_, axis=0)).all()


class TestRunExperiment:
    CFG = SyntheticConfig(n=3, samples=(200, 200, 60), flipped=(False,) * 3, seed=8)

    def test_report_shape_and_determinism(self):
        report = run_experiment(self.CFG, [(0, 1)], train_config=FAST, reps=3)
        assert report.methods == METHODS
        assert report.config.n == 3 and report.reps == 3
        for m in METHODS:
            assert len(report.mean[m]) == 3
            assert all(s >= 0 for s in report.std[m])
        report2 = run_experiment(self.CFG, [(0, 1)], train_config=FAST, reps=3)
        assert report == report2

    @pytest.mark.parametrize("pair", [(-1, 2), (0, 3), (1, 1)])
    def test_refuses_a_competing_pair_outside_the_nodes(self, pair):
        with pytest.raises(ValueError, match=r"competing pair .* is not two distinct nodes of n=3"):
            run_experiment(self.CFG, [(0, 1), pair], train_config=FAST, reps=1)

    def test_equality_reads_every_field(self):
        from dataclasses import fields, replace

        def bumped(scores):
            return {m: tuple(v + 1.0 for v in vs) for m, vs in scores.items()}

        report = run_experiment(self.CFG, [(0, 1)], train_config=FAST, reps=1)
        changed = {
            "methods": report.methods[::-1], "reps": report.reps + 1,
            "mean": bumped(report.mean), "std": bumped(report.std),
            "config": with_seed(report.config, report.config.seed + 1),
            "train_config": replace(report.train_config, rounds=report.train_config.rounds + 1),
            "preset": "weak_noniid", "clique_cover": report.coalitions,
            "coalitions": report.clique_cover, "usage": ~report.usage,
            "benefit": report.benefit + 1.0, "aggregation": report.aggregation + " ",
        }
        # a field added to the report must be given a changed value here
        assert sorted(changed) == sorted(f.name for f in fields(report))
        assert report == replace(report, benefit=report.benefit.copy())
        for name, value in changed.items():
            assert report != replace(report, **{name: value}), name

    def test_user_supplied_benefit_bypasses_estimation(self):
        w = np.zeros((3, 3))
        w[0, 2] = 0.7
        report = run_experiment(self.CFG, [(0, 1)], train_config=FAST, reps=2,
                                benefit=w, methods=("fedcompetitors",))
        assert np.argwhere(report.usage).tolist() == [[0, 2]]
        assert np.array_equal(report.benefit, w)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method"):
            run_experiment(self.CFG, [], methods=("magic",), train_config=FAST, reps=1)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps must be positive"):
            run_experiment(self.CFG, [], train_config=FAST, reps=0)

    def test_rejects_no_methods_before_estimating_benefit(self, monkeypatch):
        def fail(*args):
            raise AssertionError("benefit estimated for an experiment that cannot run")

        monkeypatch.setattr(fedtrain, "estimate_benefit", fail)
        with pytest.raises(ValueError, match="'methods' needs at least one method"):
            run_experiment(self.CFG, [], methods=(), train_config=FAST, reps=1)

    def test_rejects_repeated_method(self):
        # a report listing a method twice would not parse back
        with pytest.raises(ValueError, match="methods must be distinct"):
            run_experiment(self.CFG, [], methods=("local", "local"), train_config=FAST, reps=1)

    @pytest.mark.parametrize("methods,mutual,trained", [
        # no usage edges and singleton coalitions: ce and fedcompetitors are local
        (METHODS, False, ["local", "fedavg"]),
        (("ce", "fedcompetitors", "fedavg"), False, ["ce", "fedavg"]),
        # v1 and v3 benefit each other: the coalitions equal the cover {v1, v3}, {v2}
        (METHODS, True, ["local", "fedavg", "fedcompetitors"]),
    ])
    def test_each_distinct_mixing_trains_once_per_rep(self, monkeypatch, methods,
                                                      mutual, trained):
        calls = []

        def counting_loop(tasks, seeds, mixings, cfg):
            calls.append((len(tasks), list(mixings)))
            return _round_loop(tasks, seeds, mixings, cfg)

        w = np.zeros((3, 3))
        if mutual:
            w[0, 2], w[2, 0] = 0.5, 0.4
        monkeypatch.setattr(fedtrain, "_round_loop", counting_loop)
        report = run_experiment(self.CFG, [(0, 1)], methods=methods, benefit=w,
                                train_config=FAST, reps=2)
        usage = UsageGraph.from_edges(report.usage)
        grouping = {"local": _singletons(3), "fedavg": report.clique_cover.groups,
                    "ce": report.coalitions.groups, "fedcompetitors": usage}
        sizes = [len(y) for _, y in generate_task(self.CFG).train]
        expected = [(tuple(rows), after)
                    for rows, after in (_mixing(grouping[m], w, sizes) for m in trained)]
        # one loop call holding both repetitions, training each distinct mixing once
        assert calls == [(2, expected)]
        monkeypatch.undo()
        for m in methods:  # the reused scores are the ones m trains on its own
            assert report.mean[m] == run_experiment(self.CFG, [(0, 1)], methods=(m,),
                                                    benefit=w, train_config=FAST,
                                                    reps=2).mean[m]

    def test_repetitions_train_in_blocks_capped_by_max_samples(self, monkeypatch):
        calls = []

        def counting_loop(tasks, seeds, mixings, cfg):
            calls.append(len(tasks))
            return _round_loop(tasks, seeds, mixings, cfg)

        whole = run_experiment(self.CFG, [(0, 1)], train_config=FAST, reps=5)
        monkeypatch.setattr(fedtrain, "_round_loop", counting_loop)
        # room for two repetitions' samples per loop call, not three
        monkeypatch.setattr(fedtrain, "MAX_SAMPLES", 3 * sum(self.CFG.samples) - 1)
        blocked = run_experiment(self.CFG, [(0, 1)], train_config=FAST, reps=5)
        # the benefit estimate trains one task, then the blocks of 2, 2 and 1
        assert calls == [1, 2, 2, 1]
        assert blocked == whole


class TestPresetQualitative:
    def test_strong_noniid_orderings(self):
        cfg, edges = preset("strong_noniid", seed=7)
        report = run_experiment(cfg, edges, reps=3, preset="strong_noniid")
        local = np.array(report.mean["local"])
        fedavg = np.array(report.mean["fedavg"])
        fcomp = np.array(report.mean["fedcompetitors"])
        assert (fedavg >= 10 * local).all()
        assert (fcomp <= local).all()

    def test_weak_noniid_small_participants_gain(self):
        cfg, edges = preset("weak_noniid", seed=7)
        report = run_experiment(cfg, edges, reps=3, preset="weak_noniid",
                                methods=("local", "fedcompetitors"))
        local = np.array(report.mean["local"])
        fcomp = np.array(report.mean["fedcompetitors"])
        for i in (2, 3, 6, 7):
            assert fcomp[i] <= 0.5 * local[i]
