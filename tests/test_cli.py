import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedcollab import fedtrain, formats
from fedcollab.cli import main
from fedcollab.graphs import UsageGraph

INSTANCE = """\
n 3
competing v1 v3
benefit v2 v1 0.25
benefit v3 v2 1.5
benefit v1 v2 0.75
"""

SIM_CONFIG = """\
n 3
rho 0.0
samples 60 50 40
seed 5
competing v1 v2
rounds 4
reps 2
"""


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text(INSTANCE)
    return path


class TestSelect:
    def test_select_then_verify_roundtrip(self, tmp_path, instance_file):
        out = tmp_path / "selection.txt"
        assert main(["select", "--instance", str(instance_file), "--out", str(out)]) == 0
        assert main(["verify", "--instance", str(instance_file),
                     "--usage", str(out), "--out", str(tmp_path / "v.txt")]) == 0
        assert "verdict conflict-free" in (tmp_path / "v.txt").read_text()

    def test_select_writes_trace_sections(self, tmp_path, instance_file):
        out = tmp_path / "selection.txt"
        main(["select", "--instance", str(instance_file), "--out", str(out)])
        text = out.read_text()
        for key in ("potential", "order", "step", "decision"):
            assert any(line.startswith(key) for line in text.splitlines())

    def test_select_preset_is_verifiable(self, tmp_path):
        out = tmp_path / "sel.txt"
        assert main(["select", "--preset", "weak_noniid", "--seed", "3",
                     "--out", str(out)]) == 0
        usage = formats.parse_usage(out.read_text())
        assert usage.n == 8

    def test_malformed_instance_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\ncompeting v1 v1\n")
        assert main(["select", "--instance", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_label_v0_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("n 3\ncompeting v0 v1\n")
        assert main(["select", "--instance", str(bad)]) == 2
        assert capsys.readouterr().err == ("error: line 2, column 11: participant labels "
                                           "start at v1, got 'v0'\n")

    @pytest.mark.parametrize("count", ["1_0", "+3"])
    def test_count_not_in_ascii_digits_exits_2(self, tmp_path, capsys, count):
        # int() reads both ("1_0" as 10); an integer field is an optional '-'
        # and ASCII digits
        bad = tmp_path / "bad.txt"
        bad.write_text(INSTANCE.replace("n 3", f"n {count}"))
        assert main(["select", "--instance", str(bad), "--out", str(tmp_path / "o.txt")]) == 2
        assert capsys.readouterr().err == ("error: line 1, column 3: expected an integer for n, "
                                           f"got '{count}'\n")
        assert not (tmp_path / "o.txt").exists()

    def test_output_goes_to_stdout_without_out(self, tmp_path, instance_file, capsys):
        out = tmp_path / "selection.txt"
        assert main(["select", "--instance", str(instance_file), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["select", "--instance", str(instance_file)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["select", "--instance", str(tmp_path / "nope.txt")]) == 2

    def test_zero_participants_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "empty.txt"
        bad.write_text("n 0\n")
        assert main(["select", "--instance", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 1, column 3: n must be positive\n"

    def test_oversized_n_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "huge.txt"
        bad.write_text("n 100000000\n")
        assert main(["select", "--instance", str(bad)]) == 3
        err = capsys.readouterr().err
        assert f"limit of {formats.MAX_NODES}" in err and len(err.splitlines()) == 1

    def test_invalid_instance_exits_3(self, tmp_path):
        bad = tmp_path / "complete.txt"
        bad.write_text("n 2\ncompeting v1 v2\nbenefit v1 v2 1.0\n")
        assert main(["select", "--instance", str(bad)]) == 3

    @pytest.mark.parametrize("pairs,message", [
        ("v1 v2|v1 v3", "benefit offered by participant v1 (index 0) sums past the float range"),
        ("v1 v3|v2 v3", "benefit received by participant v3 (index 2) sums past the float range"),
    ])
    def test_benefit_sums_past_the_float_range_exit_3(self, tmp_path, capsys, pairs, message):
        bad = tmp_path / "huge-weights.txt"
        bad.write_text("n 3\n" + "".join(f"benefit {p} 1e308\n" for p in pairs.split("|")))
        out = tmp_path / "selection.txt"
        assert main(["select", "--instance", str(bad), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"invalid instance: {message}\n"
        assert not out.exists()


class TestVerify:
    def test_violation_exits_1_with_witness(self, tmp_path, instance_file):
        usage = UsageGraph(3).add_edge(0, 1).add_edge(1, 2)  # v1 reaches v3
        usage_file = tmp_path / "usage.txt"
        usage_file.write_text(formats.serialize_usage(usage))
        out = tmp_path / "verdict.txt"
        assert main(["verify", "--instance", str(instance_file),
                     "--usage", str(usage_file), "--out", str(out)]) == 1
        text = out.read_text()
        assert "violation v1 v3 path v1 v2 v3" in text
        assert "verdict conflict" in text

    def test_identity_usage_feasible(self, tmp_path, instance_file):
        usage_file = tmp_path / "usage.txt"
        usage_file.write_text(formats.serialize_usage(UsageGraph(3)))
        assert main(["verify", "--instance", str(instance_file),
                     "--usage", str(usage_file), "--out", str(tmp_path / "o.txt")]) == 0

    def test_oversize_falls_back_to_closure_check(self, tmp_path):
        n = 13  # beyond the path-enumeration limit
        inst_file = tmp_path / "big.txt"
        inst_file.write_text(f"n {n}\ncompeting v1 v2\nbenefit v3 v1 0.5\n")
        usage_file = tmp_path / "usage.txt"
        usage_file.write_text(formats.serialize_usage(UsageGraph(n).add_edge(2, 0)))
        out = tmp_path / "o.txt"
        assert main(["verify", "--instance", str(inst_file),
                     "--usage", str(usage_file), "--out", str(out)]) == 0
        text = out.read_text()
        assert "path_check skipped" in text
        assert "closure_check pass" in text

    def test_unsupported_edges_reported(self, tmp_path, instance_file):
        # an edge outside the benefit support is flagged in the output
        usage_file = tmp_path / "usage.txt"
        usage_file.write_text(formats.serialize_usage(UsageGraph(3).add_edge(1, 2)))
        out = tmp_path / "o.txt"
        main(["verify", "--instance", str(instance_file),
              "--usage", str(usage_file), "--out", str(out)])
        assert "unsupported_edge v2 v3" in out.read_text()

    def test_unsupported_edges_listed_in_sorted_order(self, tmp_path, instance_file):
        # three edges outside the benefit support, given in reverse order,
        # are reported sorted by (j, i)
        usage_file = tmp_path / "usage.txt"
        usage_file.write_text("n 3\nedge v3 v1\nedge v2 v3\nedge v1 v3\n")
        out = tmp_path / "o.txt"
        main(["verify", "--instance", str(instance_file),
              "--usage", str(usage_file), "--out", str(out)])
        reported = [line for line in out.read_text().splitlines()
                    if line.startswith("unsupported_edge")]
        assert reported == ["unsupported_edge v1 v3", "unsupported_edge v2 v3",
                            "unsupported_edge v3 v1"]

    def test_self_edge_in_usage_exits_2(self, tmp_path, instance_file, capsys):
        usage_file = tmp_path / "usage.txt"
        usage_file.write_text("n 3\nedge v1 v1\n")
        out = tmp_path / "o.txt"
        assert main(["verify", "--instance", str(instance_file),
                     "--usage", str(usage_file), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: line 2, column 1: self-edge (v1, v1) "
                                           "is not a collaboration\n")
        assert not out.exists()


class TestPartition:
    def test_partition_output(self, tmp_path, instance_file):
        out = tmp_path / "groups.txt"
        assert main(["partition", "--instance", str(instance_file),
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert "cover_mode exact" in text
        assert any(line.startswith("cover ") for line in text.splitlines())
        assert any(line.startswith("coalition ") for line in text.splitlines())


class TestSimulate:
    def test_custom_config_produces_csv_and_report(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        csv_out = tmp_path / "table.csv"
        rep_out = tmp_path / "report.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(csv_out),
                     "--report", str(rep_out)]) == 0
        lines = csv_out.read_text().strip().splitlines()
        assert lines[0] == "participant,local,fedavg,ce,fedcompetitors"
        assert len(lines) == 4
        parsed = formats.parse_report(rep_out.read_text())
        assert parsed.reps == 2 and parsed.config.n == 3

    def test_method_subset_and_reps_flags(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg), "--methods", "local,ce",
                     "--reps", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "participant,local,ce"

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        def report(text, *flags):
            cfg, out = tmp_path / "sim.txt", tmp_path / "report.txt"
            cfg.write_text(text)
            assert main(["simulate", "--config", str(cfg), "--methods", "local", "--reps", "1",
                         *flags, "--out", str(tmp_path / "t.csv"), "--report", str(out)]) == 0
            return out.read_text()

        overridden = report(SIM_CONFIG, "--seed", "9")
        assert overridden == report(SIM_CONFIG.replace("seed 5", "seed 9"))
        assert overridden != report(SIM_CONFIG)
        assert formats.parse_report(overridden).config.seed == 9

    def test_unknown_method_exits_2(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--methods", "magic"]) == 2

    def test_user_benefit_file(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        wfile = tmp_path / "w.txt"
        wfile.write_text("n 3\nbenefit v3 v1 0.4\n")
        rep_out = tmp_path / "report.txt"
        assert main(["simulate", "--config", str(cfg), "--benefit", str(wfile),
                     "--out", str(tmp_path / "t.csv"), "--report", str(rep_out)]) == 0
        report = formats.parse_report(rep_out.read_text())
        assert np.argwhere(report.usage).tolist() == [[2, 0]]

    def test_benefit_file_of_another_n_exits_2(self, tmp_path, capsys):
        cfg, wfile = tmp_path / "sim.txt", tmp_path / "w.txt"
        cfg.write_text(SIM_CONFIG)
        wfile.write_text("n 4\nbenefit v3 v1 0.4\n")
        assert main(["simulate", "--config", str(cfg), "--benefit", str(wfile),
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == \
            "error: line 1, column 3: benefit matrix has n=4 but the config has n=3\n"
        assert not (tmp_path / "t.csv").exists()

    def test_flipped_before_n_exits_2(self, tmp_path, capsys):
        # 'flipped' names participants, so it must follow the 'n' line
        cfg = tmp_path / "sim.txt"
        cfg.write_text("flipped v2\nn 3\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == ("error: line 1, column 1: 'n' must be declared before "
                                           "any line that names a participant\n")
        assert not (tmp_path / "t.csv").exists()

    def test_preset_table_layout(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["simulate", "--preset", "weak_noniid", "--seed", "7",
                     "--reps", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "participant,local,fedavg,ce,fedcompetitors"
        assert len(lines) == 9  # 8 participants

    def test_divergent_training_exits_4(self, tmp_path, capsys):
        # the overflow warns nothing: every warning fails the suite
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG + "learning_rate 1e30\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("training diverged: ") and err.count("\n") == 1

    def test_aggregation_weights_past_the_float_range_exit_3(self, tmp_path, capsys):
        # v3's one collaborator weight is finite, but with the equal self weight
        # the sum overflows
        cfg, wfile = tmp_path / "sim.txt", tmp_path / "w.txt"
        cfg.write_text(SIM_CONFIG)
        wfile.write_text("n 3\nbenefit v1 v3 1e308\n")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg), "--benefit", str(wfile),
                     "--out", str(out)]) == 3
        assert capsys.readouterr().err == ("invalid instance: aggregation weights of participant "
                                           "v3 (index 2) sum past the float range\n")
        assert not out.exists()

    @pytest.mark.parametrize("line,first", [("rho 1e308", 1), ("noise_std 1e308", 2)])
    def test_labels_past_the_float_range_exit_3(self, tmp_path, capsys, line, first):
        # refused when the data is drawn, before training, and warning nothing
        cfg = tmp_path / "sim.txt"
        cfg.write_text(f"n 2\nsamples 50 50\n{line}\nrounds 1\nreps 1\n")
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"invalid instance: labels of participant v{first} "
                                           f"(index {first - 1}) are not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_flag_exits_2(self, tmp_path, capsys, reps):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--reps", reps,
                     "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --reps must be at least 1, got {reps}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["select", "--preset", "weak_noniid", "--seed", "-1"],
        ["partition", "--preset", "weak_noniid", "--seed", "-1"],
        ["simulate", "--preset", "weak_noniid", "--seed", "-1"],
    ])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "o.txt")]) == 2
        assert capsys.readouterr().err == "error: --seed must be nonnegative, got -1\n"
        assert not (tmp_path / "o.txt").exists()

    @pytest.mark.parametrize("text,message", [
        (SIM_CONFIG.replace("seed 5", "seed -4"), "seed must be nonnegative, got -4"),
        ("n 3\nsamples 20 20\ncompeting v1 v3\nn 2\n", "line 4, column 1: duplicate 'n'"),
    ])
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert message in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("old,new,message", [
        ("rho 0.0", "rho -1", "line 2, column 5: rho and noise_std must be nonnegative"),
        ("samples 60 50 40", "samples 60 50",
         "line 3, column 9: samples must list a positive count per participant"),
        ("samples 60 50 40", "samples 60 0 40",
         "line 3, column 9: samples must list a positive count per participant"),
        ("seed 5", "seed -4", "line 4, column 6: seed must be nonnegative, got -4"),
        ("rounds 4", "rounds 0",
         "line 6, column 8: rounds, local_epochs and batch_size must be positive"),
        ("reps 2", "val_fraction 1.5", "line 7, column 14: val_fraction must be in (0, 1)"),
    ])
    def test_a_refused_value_exits_2_at_its_line(self, tmp_path, capsys, old, new, message):
        # the latest line of the key that the config classes refuse
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("samples 60 50 40", "samples 2_0 20 20",
         "line 3, column 9: expected an integer for sample count, got '2_0'"),
        ("rounds 4", "rounds +1", "line 6, column 8: expected an integer for rounds, got '+1'"),
    ])
    def test_integer_not_in_ascii_digits_exits_2(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.replace(old, new))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_oversized_samples_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.replace("samples 60 50 40",
                                          f"samples 60 50 {formats.MAX_SAMPLES}"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err and f"limit of {formats.MAX_SAMPLES}" in err
        assert len(err.splitlines()) == 1 and not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("argv,text", [
        (["--preset", "strong_noniid", "--reps", "4000"], None),
        (["--config", "sim.txt"], SIM_CONFIG.replace("rounds 4", f"rounds {10**9}")),
        (["--config", "sim.txt"], SIM_CONFIG.replace("reps 2", f"reps {10**9}")),
        (["--config", "sim.txt", "--reps", str(10**9)], SIM_CONFIG),
        (["--config", "sim.txt"], SIM_CONFIG + f"local_epochs {10**9}\n"),
    ])
    def test_oversized_training_exits_3_before_training(self, tmp_path, capsys, monkeypatch,
                                                        argv, text):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized job reached training")

        monkeypatch.setattr("fedcollab.cli.run_experiment", refuse)
        monkeypatch.chdir(tmp_path)
        if text is not None:
            (tmp_path / "sim.txt").write_text(text)
        assert main(["simulate", *argv, "--out", "t.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: ") and len(err.splitlines()) == 1
        assert f"limit of {fedtrain.MAX_TRAINING_WORK}" in err
        assert not (tmp_path / "t.csv").exists()

    def test_oversized_degree_exits_3_before_training(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an oversized degree reached training")

        monkeypatch.setattr("fedcollab.cli.run_experiment", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sim.txt").write_text("n 2\nsamples 20 20\ndegree 1000000000000\n")
        assert main(["simulate", "--config", "sim.txt", "--out", "t.csv"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invalid instance: line 3: ") and len(err.splitlines()) == 1
        assert f"limit of {formats.MAX_DEGREE}" in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("preset_name", ["weak_noniid", "strong_noniid"])
    def test_presets_at_ten_reps_are_within_the_training_bound(self, preset_name):
        from fedcollab.fedtrain import TrainConfig
        from fedcollab.synthdata import preset

        config, _ = preset(preset_name)
        tc = TrainConfig()
        fedtrain.check_training_work(tc.rounds, tc.local_epochs, 10, config.samples)
        with pytest.raises(fedtrain.InvalidInstanceError):
            fedtrain.check_training_work(tc.rounds, tc.local_epochs, 10 * 10**3, config.samples)

    def test_zero_reps_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.replace("reps 2", "reps 0"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "line 7" in err and "reps must be at least 1" in err
        assert len(err.splitlines()) == 1


# SHA-256 of `simulate --report` (seed 0, --reps 2) as written once the
# feature map became a running product (x^k = x^(k-1) * x) instead of
# numpy's vectorized pow; any byte drift in the simulator's output fails
# here. The bytes do not depend on numpy's SIMD level
# (test_simulate_bytes_do_not_depend_on_numpy_simd), but they do depend on
# the kernel OpenBLAS picks at run time for the matrix products: these
# hashes hold where it runs its SkylakeX kernels, and with
# OPENBLAS_CORETYPE=Haswell, the kernel of an AVX2-only host, all three
# simulate hashes differ.
GOLDEN_SIMULATE = [
    ("weak_noniid", "75e9a55040733307a364898a1a1ffbedec9dc542a423e183288170a7ac5b232e"),
    ("strong_noniid", "5486b358c3cd935f412b6d55c9231d14d8b14ae3f51fcdc17904948f1f9977f3"),
]


@pytest.mark.parametrize("preset,digest", GOLDEN_SIMULATE)
def test_simulate_report_is_byte_stable(tmp_path, preset, digest):
    report = tmp_path / "report.txt"
    assert main(["simulate", "--preset", preset, "--seed", "0", "--reps", "2",
                 "--out", str(tmp_path / "t.csv"), "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


# Training sets of 49, 1, 49, 104 and 20 rows: size groups of two and of one,
# a one-sample participant and a partial last batch of 10, over two local
# epochs and three repetitions.
GOLDEN_CONFIG = """\
n 5
samples 61 1 61 130 25
rho 0.2
seed 3
competing v1 v4
competing v2 v5
rounds 4
local_epochs 2
batch_size 10
reps 3
"""

# SHA-256 of `simulate --config GOLDEN_CONFIG --report` as written once the
# feature map became a running product; like GOLDEN_SIMULATE, it holds
# where OpenBLAS runs its SkylakeX kernels.
GOLDEN_SIMULATE_CONFIG = "009a9f44fdca499c9d6e065e1fd94b187b78279adea4dcbbc36052d696970e7d"


def test_simulate_config_report_is_byte_stable(tmp_path):
    cfg, report = tmp_path / "sim.txt", tmp_path / "report.txt"
    cfg.write_text(GOLDEN_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv"),
                 "--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == GOLDEN_SIMULATE_CONFIG


def _numpy_simd_targets() -> list[str]:
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__
    return list(__cpu_dispatch__)


def _golden_simulate_calls(tmp_path, tag: str) -> list[list[str]]:
    cfg = tmp_path / "golden.txt"
    cfg.write_text(GOLDEN_CONFIG)
    sources = [["--preset", p, "--seed", "0", "--reps", "2"] for p, _ in GOLDEN_SIMULATE]
    return [["simulate", *source, "--out", str(tmp_path / f"{tag}{k}.csv"),
             "--report", str(tmp_path / f"{tag}{k}.txt")]
            for k, source in enumerate([*sources, ["--config", str(cfg)]])]


# Run in a fresh interpreter with every SIMD target of numpy switched off:
# prints the targets still on (none, or the switch did nothing), then runs
# the calls given as JSON and exits with the largest exit code.
_NO_SIMD_RUN = """\
import json, sys
from fedcollab.cli import main
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
print(json.dumps([t for t in sys.argv[2:] if __cpu_features__.get(t)]))
sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))
"""


def test_simulate_bytes_do_not_depend_on_numpy_simd(tmp_path):
    # numpy picks its SIMD code once, at import, so the switched-off run
    # needs its own interpreter; the default run is this one's
    targets = _numpy_simd_targets()
    if not targets:
        pytest.skip("this numpy build dispatches to no SIMD target")
    default, plain = (_golden_simulate_calls(tmp_path, tag) for tag in ("default", "plain"))
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", _NO_SIMD_RUN, json.dumps(plain), *targets],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src),
                               "NPY_DISABLE_CPU_FEATURES": " ".join(targets)})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []
    for argv in default:
        assert main(argv) == 0
    for ours, theirs in zip(default, plain):
        for k in (-3, -1):  # the --out and --report files
            assert Path(ours[k]).read_bytes() == Path(theirs[k]).read_bytes(), theirs


# SHA-256 of `partition --preset` (seed 0) as written before the cover and
# coalition lines came from one helper shared with the report writer.
GOLDEN_PARTITION = [
    ("weak_noniid", "9768a343d00574b2bea9d9eeb0e72f39dfef75cf032e7f00f2ad12bf9584e96b"),
    ("strong_noniid", "91d8017c4481089284d56e5706a3f0e4f9dc9c03aa82804ad22a1fb7e7781a4d"),
]


@pytest.mark.parametrize("preset,digest", GOLDEN_PARTITION)
def test_partition_output_is_byte_stable(tmp_path, preset, digest):
    out = tmp_path / "groups.txt"
    assert main(["partition", "--preset", preset, "--seed", "0", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestReport:
    def test_report_converts_to_csv(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        rep_out = tmp_path / "report.txt"
        main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a.csv"),
              "--report", str(rep_out)])
        csv_out = tmp_path / "b.csv"
        assert main(["report", "--in", str(rep_out), "--out", str(csv_out)]) == 0
        assert csv_out.read_text() == (tmp_path / "a.csv").read_text()

    def test_malformed_report_exits_2(self, tmp_path):
        bad = tmp_path / "r.txt"
        bad.write_text("mse local v1\n")
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 2

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("config_samples 60 50 40", "config_samples 20 0 20"),
        lambda text: text.replace("train_rounds 4", "train_rounds 0"),
        lambda text: text.replace("seed 5", "seed -4"),
        lambda text: text + "n 2\n",
    ])
    def test_invalid_report_values_exit_2(self, tmp_path, capsys, edit):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        rep_out = tmp_path / "report.txt"
        assert main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "a.csv"), "--report", str(rep_out)]) == 0
        capsys.readouterr()
        text = rep_out.read_text()
        bad = tmp_path / "r.txt"
        bad.write_text(edit(text))
        assert bad.read_text() != text
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("old,new,message", [
        ("reps 2", "reps -3", "reps must be at least 1, got -3"),
        ("reps 2", "reps 0", "reps must be at least 1, got 0"),
        ("cover_mode exact", "cover_mode bogus", "cover_mode must be exact or greedy"),
    ])
    def test_invalid_reps_and_cover_mode_exit_2(self, tmp_path, capsys, old, new, message):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        rep_out = tmp_path / "report.txt"
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a.csv"),
                     "--report", str(rep_out)]) == 0
        capsys.readouterr()
        lines = rep_out.read_text().splitlines()
        line = lines.index(old) + 1
        lines[line - 1] = new
        bad = tmp_path / "r.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line}, ") and message in err
        assert len(err.splitlines()) == 1 and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("old,new,message", [
        ("config_rho 0.0", "config_rho -2", "column 12: rho and noise_std must be nonnegative"),
        ("seed 5", "seed -4", "column 6: seed must be nonnegative, got -4"),
        ("train_rounds 4", "train_rounds 0",
         "column 14: rounds, local_epochs and batch_size must be positive"),
    ])
    def test_a_refused_config_value_exits_2_at_its_line(self, tmp_path, capsys, old, new,
                                                        message):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        rep_out = tmp_path / "report.txt"
        assert main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "a.csv"), "--report", str(rep_out)]) == 0
        capsys.readouterr()
        lines = rep_out.read_text().splitlines()
        line = lines.index(old) + 1
        lines[line - 1] = new
        bad = tmp_path / "r.txt"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
        assert capsys.readouterr().err == f"error: line {line}, {message}\n"
        assert not (tmp_path / "c.csv").exists()

    def test_groups_that_are_not_a_partition_exit_2(self, tmp_path, capsys):
        # the hand-made file (a repeated cover member, a coalition that leaves
        # participants out, a repeated usage edge), then each fault alone
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        rep_out = tmp_path / "report.txt"
        assert main(["simulate", "--config", str(cfg), "--reps", "1",
                     "--out", str(tmp_path / "a.csv"), "--report", str(rep_out)]) == 0
        capsys.readouterr()
        lines = rep_out.read_text().splitlines()
        at = [k for k, line in enumerate(lines)
              if line.split()[0] in ("cover", "coalition", "usage_edge")]
        head, tail = lines[:at[0]], lines[at[-1] + 1:]
        cases = [  # group lines, the line number of the error, the message
            (["cover v1 v1", "coalition v2", "usage_edge v1 v2", "usage_edge v1 v2"], 1,
             "participant v1 is in two 'cover' groups"),
            (["cover v1 v2 v3", "coalition v2", "usage_edge v1 v2", "usage_edge v1 v2"], 4,
             "duplicate usage edge (v1, v2)"),
            (["cover v1 v2 v3", "coalition v2", "usage_edge v1 v2"], 2,
             "the 'coalition' groups leave out participant v1"),
            (["cover v1 v2 v3", "coalition v2 v3", "coalition v3 v1"], 3,
             "participant v3 is in two 'coalition' groups"),
        ]
        bad = tmp_path / "r.txt"
        for group_lines, offset, message in cases:
            bad.write_text("\n".join(head + group_lines + tail) + "\n")
            assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: line {at[0] + offset}, column ") and message in err
            assert len(err.splitlines()) == 1 and not (tmp_path / "c.csv").exists()

    def test_oversized_config_samples_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "r.txt"
        bad.write_text(f"n 2\nmethods local\nconfig_samples 1 {formats.MAX_SAMPLES}\n")
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 3
        err = capsys.readouterr().err
        assert "line 3" in err and f"limit of {formats.MAX_SAMPLES}" in err
        assert len(err.splitlines()) == 1


class TestFiles:
    @pytest.mark.parametrize("argv", [
        ["select", "--instance", "{bad}"],
        ["report", "--in", "{bad}"],
    ])
    def test_input_that_is_not_utf8_exits_2(self, tmp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"n 3\n# caf\xe9\n")
        assert main([a.format(bad=bad) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {bad}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["select", "--preset", "weak_noniid", "--out", "{missing}"],
        ["simulate", "--config", "{cfg}", "--out", "{csv}", "--report", "{missing}"],
    ])
    def test_output_in_a_missing_directory_exits_2(self, tmp_path, capsys, argv):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        missing = tmp_path / "no" / "such" / "out.txt"
        argv = [a.format(missing=missing, cfg=cfg, csv=tmp_path / "t.csv") for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {missing}: ") and len(err.splitlines()) == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_standard_output_that_cannot_be_written_exits_2(self, instance_file):
        # a fresh interpreter, so the flush at its exit is seen too
        src = Path(__file__).resolve().parents[1] / "src"
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "fedcollab.cli", "select",
                                   "--instance", str(instance_file)], stdout=full,
                                  stderr=subprocess.PIPE, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert done.stderr.startswith("error: cannot write standard output: ")
        assert len(done.stderr.splitlines()) == 1

    def test_the_program_never_loads_scipy(self):
        # the tests import scipy for their ILP referee, so only a fresh
        # interpreter shows what the program itself loads
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run([sys.executable, "-c", "import fedcollab, fedcollab.cli, sys; "
                               "sys.exit('scipy' in sys.modules)"], timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 0

    def test_out_of_memory_exits_3(self, tmp_path, capsys, monkeypatch, instance_file):
        def exhaust(*args):
            raise MemoryError

        monkeypatch.setattr(formats, "serialize_selection", exhaust)
        out = tmp_path / "s.txt"
        assert main(["select", "--instance", str(instance_file), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: fedcollab select ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_non_ascii_digit_exits_2_with_position(self, tmp_path, capsys):
        bad = tmp_path / "inst.txt"
        bad.write_text("n 3\ncompeting v² v1\n", encoding="utf-8")
        assert main(["select", "--instance", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 2, column 11: ") and len(err.splitlines()) == 1

    def test_repeated_report_methods_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "r.txt"
        bad.write_text("n 1\nmethods local local\nconfig_samples 5\ncover_mode exact\n"
                       "mse local v1 0.5 0.1\n")
        assert main(["report", "--in", str(bad), "--out", str(tmp_path / "c.csv")]) == 2
        assert "line 2, column 15: duplicate method 'local'" in capsys.readouterr().err

    def test_usage_edge_without_benefit_exits_2(self, tmp_path, capsys):
        # refused at the usage_edge line, but only after every line is read:
        # a benefit line after the edge supports it
        head = ("n 3\nmethods local\nconfig_samples 5 5 5\ncover_mode exact\n"
                "mse local v1 0.5 0.1\nmse local v2 0.5 0.1\nmse local v3 0.5 0.1\n")
        bad, out = tmp_path / "r.txt", tmp_path / "c.csv"
        bad.write_text(head + "usage_edge v1 v3\nbenefit v3 v1 0.5\n")
        assert main(["report", "--in", str(bad), "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: line 8, column 1: usage edge (v1, v3) "
                                           "has no positive benefit line\n")
        assert not out.exists()
        bad.write_text(head + "usage_edge v1 v3\nbenefit v1 v3 0.5\n")
        assert main(["report", "--in", str(bad), "--out", str(out)]) == 0
        assert out.read_text().startswith("participant,local\n")

    def test_repeated_methods_flag_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--methods", "local,local",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert capsys.readouterr().err == "error: --methods lists 'local' more than once\n"

    def test_empty_methods_flag_exits_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "sim.txt", tmp_path / "t.csv"
        cfg.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--methods", "", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --methods needs at least one method\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,verb", [
        (["select", "--instance", ""], "read"),
        (["select", "--instance", "{instance}", "--out", ""], "write"),
        (["verify", "--instance", "", "--usage", "{usage}"], "read"),
        (["verify", "--instance", "{instance}", "--usage", ""], "read"),
        (["verify", "--instance", "{instance}", "--usage", "{usage}", "--out", ""], "write"),
        (["partition", "--instance", ""], "read"),
        (["partition", "--instance", "{instance}", "--out", ""], "write"),
        (["simulate", "--config", ""], "read"),
        (["simulate", "--config", "{cfg}", "--benefit", ""], "read"),
        (["simulate", "--config", "{cfg}", "--out", ""], "write"),
        (["simulate", "--config", "{cfg}", "--out", "{csv}", "--report", ""], "write"),
        (["report", "--in", ""], "read"),
        (["report", "--in", "{report}", "--out", ""], "write"),
    ], ids=["select-instance", "select-out", "verify-instance", "verify-usage", "verify-out",
            "partition-instance", "partition-out", "simulate-config", "simulate-benefit",
            "simulate-out", "simulate-report", "report-in", "report-out"])
    def test_an_empty_path_exits_2(self, tmp_path, capsys, instance_file, argv, verb):
        # an empty path is a path that cannot be read or written, never a
        # missing option: not "standard output", and no estimated benefit
        cfg, usage, report = tmp_path / "sim.txt", tmp_path / "usage.txt", tmp_path / "r.txt"
        cfg.write_text(SIM_CONFIG)
        usage.write_text("n 3\n")
        if "{report}" in argv:
            assert main(["simulate", "--config", str(cfg), "--methods", "local", "--reps", "1",
                         "--out", str(tmp_path / "a.csv"), "--report", str(report)]) == 0
            capsys.readouterr()
        argv = [a.format(instance=instance_file, usage=usage, cfg=cfg, report=report,
                         csv=tmp_path / "t.csv") for a in argv]
        if argv[0] == "simulate":
            argv += ["--methods", "local", "--reps", "1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot {verb} : ") and len(err.splitlines()) == 1

    def test_a_byte_order_mark_is_not_part_of_the_text(self, tmp_path, capsys, instance_file,
                                                       monkeypatch):
        # each kind of input with a leading U+FEFF, with LF and with CRLF line
        # ends, gives the output of its twin without one
        cfg, selection = tmp_path / "sim.txt", tmp_path / "selection.txt"
        cfg.write_text(SIM_CONFIG)
        assert main(["select", "--instance", str(instance_file), "--out", str(selection)]) == 0
        report = tmp_path / "r.txt"
        assert main(["simulate", "--config", str(cfg), "--reps", "1", "--out",
                     str(tmp_path / "a.csv"), "--report", str(report)]) == 0

        def copies(path: Path) -> list[tuple[Path, Path]]:
            text, pairs = path.read_text(), []
            for ends in ("lf", "crlf"):
                body = text.replace("\n", "\r\n") if ends == "crlf" else text
                twin, bom = tmp_path / f"{ends}-{path.name}", tmp_path / f"bom-{ends}-{path.name}"
                twin.write_bytes(body.encode())
                bom.write_bytes(b"\xef\xbb\xbf" + body.encode())
                pairs.append((twin, bom))
            return pairs

        def output(argv: list[str]) -> bytes:
            out = tmp_path / "out.txt"
            assert main([*argv, "--out", str(out)]) == 0
            return out.read_bytes()

        plain, read_plain = [], formats._plain

        def spy(*args):
            plain.append(read_plain(*args))
            return plain[-1]

        monkeypatch.setattr(formats, "_plain", spy)
        runs = [(instance_file, lambda p: ["select", "--instance", str(p)]),
                (selection, lambda p: ["verify", "--instance", str(instance_file),
                                       "--usage", str(p)]),
                (cfg, lambda p: ["simulate", "--config", str(p), "--methods", "local,ce"]),
                (report, lambda p: ["report", "--in", str(p)])]
        for path, argv in runs:
            for twin, bom in copies(path):
                expected = output(argv(twin))
                plain.clear()
                assert output(argv(bom)) == expected, bom.name
                if path is instance_file:  # read in bulk, not by the checked loop
                    assert plain and plain[0] is not None
        assert not capsys.readouterr().err


class TestRefusedArguments:
    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--preset", "weak_noniid", "--reps", "x"],
         "fedcollab simulate: argument --reps: invalid int value: 'x'"),
        (["select", "--preset", "weak_noniid", "--bogus"],
         "fedcollab: unrecognized arguments: --bogus"),
        (["select"], "fedcollab select: one of the arguments --instance --preset is required"),
        (["partition", "--preset", "weak_noniid", "--instance", "i.txt"],
         "fedcollab partition: argument --instance: not allowed with argument --preset"),
        (["simulate", "--config", "c.txt", "--preset", "weak_noniid"],
         "fedcollab simulate: argument --preset: not allowed with argument --config"),
        ([], "fedcollab: the following arguments are required: command"),
        (["--seed", "1"], "fedcollab: argument command: invalid choice: '1'"),
    ])
    def test_a_refused_argument_list_exits_2(self, capsys, argv, message):
        # one line, no usage block, and a return rather than SystemExit
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["--help"], ["simulate", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: fedcollab")
