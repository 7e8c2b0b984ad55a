import warnings
from dataclasses import fields

import numpy as np
import pytest

from fedcollab import synthdata
from fedcollab.graphs import InvalidInstanceError
from fedcollab.synthdata import (PRESET_NAMES, PRESETS, STRONG_COMPETING_EDGES,
                                 WEAK_COMPETING_EDGES, SyntheticConfig, SyntheticTask,
                                 competing_matrix, generate_task, polynomial_features, preset)


class TestConfigValidation:
    def test_sample_count_mismatch(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n=2, samples=(10,), flipped=(False, False))

    @pytest.mark.parametrize("kwargs,message", [
        (dict(n=0, samples=(), flipped=()), "need at least one participant"),
        (dict(n=2, samples=(10, 10), flipped=(False,)), "flipped must list a flag"),
        (dict(n=1, samples=(10,), flipped=(False,), degree=0), "degree must be positive"),
    ])
    def test_rejects_bad_shape(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SyntheticConfig(**kwargs)

    def test_negative_rho(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n=1, samples=(10,), flipped=(False,), rho=-0.1)

    def test_bad_val_fraction(self):
        with pytest.raises(ValueError):
            SyntheticConfig(n=1, samples=(10,), flipped=(False,), val_fraction=1.5)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SyntheticConfig(n=1, samples=(10,), flipped=(False,), seed=-1)


class TestPresets:
    def test_weak_preset_values(self):
        cfg, competing = preset("weak_noniid", seed=3)
        assert cfg.rho == 0.01
        assert cfg.samples == (2000, 2000, 100, 100, 2000, 2000, 100, 100)
        assert cfg.flipped == (False,) * 8
        assert cfg.seed == 3
        assert np.count_nonzero(np.triu(competing)) == 8

    def test_strong_preset_values(self):
        cfg, competing = preset("strong_noniid")
        assert cfg.samples == (2000,) * 8
        assert cfg.flipped == (False,) * 4 + (True,) * 4
        assert np.count_nonzero(np.triu(competing)) == 8

    @pytest.mark.parametrize("name,samples,flipped,pairs", [
        ("weak_noniid", (2000, 2000, 100, 100, 2000, 2000, 100, 100), (False,) * 8,
         ((0, 4), (0, 5), (1, 4), (1, 5), (0, 6), (1, 7), (2, 4), (3, 5))),
        ("strong_noniid", (2000,) * 8, (False,) * 4 + (True,) * 4,
         ((0, 2), (0, 3), (1, 2), (1, 3), (4, 6), (4, 7), (5, 6), (5, 7))),
    ])
    def test_preset_is_its_table_row(self, name, samples, flipped, pairs):
        for seed in (0, 7):
            cfg, competing = preset(name, seed)
            assert cfg == SyntheticConfig(n=8, samples=samples, flipped=flipped, rho=0.01,
                                          seed=seed)
            assert competing.dtype == bool
            assert np.array_equal(competing, competing_matrix(8, pairs))
            assert pairs == PRESETS[name][2]
        assert PRESET_NAMES == tuple(PRESETS) == ("weak_noniid", "strong_noniid")
        assert (PRESETS["weak_noniid"][2], PRESETS["strong_noniid"][2]) == (
            WEAK_COMPETING_EDGES, STRONG_COMPETING_EDGES)

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset("nope")

    def test_competing_matrix_symmetric(self):
        _, s = preset("strong_noniid")
        assert np.array_equal(s, s.T) and not s.diagonal().any()

    @pytest.mark.parametrize("pair", [(-1, 2), (0, 4), (1, 1), (0, 1.0)])
    def test_competing_matrix_refuses_a_pair_outside_the_nodes(self, pair):
        # (-1, 2) would wrap to the pair (2, 3) and (0, 4) is out of numpy's range
        with pytest.raises(ValueError, match=r"is not two distinct nodes of n=4"):
            competing_matrix(4, [(0, 1), pair])


class TestGeneration:
    def test_zero_rho_no_flips_shares_weights(self):
        cfg = SyntheticConfig(n=4, samples=(50,) * 4, flipped=(False,) * 4, rho=0.0, seed=1)
        task = generate_task(cfg)
        for i in range(1, 4):
            assert np.array_equal(task.weights[i], task.weights[0])

    def test_deterministic_in_seed(self):
        cfg, _ = preset("weak_noniid", seed=5)
        t1, t2 = generate_task(cfg), generate_task(cfg)
        for i in range(8):
            for part in ("train", "val"):
                (phi1, y1), (phi2, y2) = getattr(t1, part)[i], getattr(t2, part)[i]
                assert np.array_equal(phi1, phi2)
                assert np.array_equal(y1, y2)
        assert np.array_equal(t1.weights, t2.weights)

    def test_different_seed_changes_data(self):
        t1 = generate_task(preset("weak_noniid", seed=5)[0])
        t2 = generate_task(preset("weak_noniid", seed=6)[0])
        assert not np.array_equal(t1.train[0][0][:, 0], t2.train[0][0][:, 0])

    def test_split_sizes_and_feature_range(self):
        task = generate_task(preset("strong_noniid", seed=2)[0])
        for i in range(8):
            m = task.config.samples[i]
            (phi_t, y_t), (phi_v, y_v) = task.train[i], task.val[i]
            assert len(phi_v) == len(y_v) == round(0.2 * m)
            assert len(phi_t) == len(y_t) == m - round(0.2 * m)
            x = np.concatenate([phi_t[:, 0], phi_v[:, 0]])
            assert len(np.unique(x)) == m  # the split loses and repeats no sample
            assert np.abs(x).max() <= 1.0

    def test_labels_match_generative_model(self):
        cfg = SyntheticConfig(n=2, samples=(4000, 4000), flipped=(False, True),
                              rho=0.05, seed=9)
        task = generate_task(cfg)
        for i, sign in ((0, 1.0), (1, -1.0)):
            phi = np.concatenate([task.train[i][0], task.val[i][0]])
            y = np.concatenate([task.train[i][1], task.val[i][1]])
            clean = sign * polynomial_features(phi[:, 0], 3) @ task.weights[i]
            residual = y - clean
            assert abs(residual.mean()) < 0.01
            assert abs(residual.std() - cfg.noise_std) < 0.01

    @pytest.mark.parametrize("degree", [1, 2, 5])
    def test_features_are_a_running_product(self, degree):
        # x^k is x^(k-1) * x, one IEEE multiply each, not numpy's pow
        x = np.random.default_rng(4).uniform(-1.0, 1.0, size=1000)
        phi = polynomial_features(x, degree)
        expected = [x]
        for _ in range(degree - 1):
            expected.append(expected[-1] * x)
        assert phi.shape == (1000, degree) and phi.flags.c_contiguous
        assert np.array_equal(phi, np.stack(expected, axis=1))

    def test_single_sample_participant(self):
        cfg = SyntheticConfig(n=1, samples=(1,), flipped=(False,), seed=0)
        task = generate_task(cfg)
        (phi_t, y_t), (phi_v, y_v) = task.train[0], task.val[0]
        assert phi_t.shape == (1, 3) and y_t.shape == (1,)
        assert np.array_equal(phi_t, phi_v) and np.array_equal(y_t, y_v)

    def test_task_holds_rows_only(self):
        assert [f.name for f in fields(SyntheticTask)] == ["config", "weights", "train", "val"]

    # seed 0 happens to draw no noise past the float range for v1
    @pytest.mark.parametrize("field,first", [("rho", 0), ("noise_std", 1)])
    def test_non_finite_labels_are_refused(self, field, first):
        cfg = SyntheticConfig(n=2, samples=(50, 50), flipped=(False, False),
                              **{field: 1e308})
        message = rf"labels of participant v{first + 1} \(index {first}\) are not finite"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInstanceError, match=message):
                generate_task(cfg)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_split_rows_are_the_indexed_rows_in_the_buffer(self, monkeypatch, block):
        # small blocks, so the moves cross block boundaries as 65536-row blocks do
        monkeypatch.setattr(synthdata, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for m in range(2, 40):
            phi = rng.random((m, 3))
            perm = rng.permutation(m)
            n_val = int(rng.integers(1, m))
            val_idx, train_idx = np.sort(perm[:n_val]), np.sort(perm[n_val:])
            want = phi[val_idx], phi[train_idx]
            got = synthdata._split_rows(phi, val_idx, train_idx)
            for g, w in zip(got, want):
                assert np.array_equal(g, w) and np.shares_memory(g, phi)

    def test_weights_built_from_shared_base(self):
        cfg = SyntheticConfig(n=6, samples=(10,) * 6, flipped=(False,) * 6,
                              rho=0.001, seed=4)
        task = generate_task(cfg)
        spread = task.weights.max(axis=0) - task.weights.min(axis=0)
        assert spread.max() < 0.01  # perturbations stay near the shared base
