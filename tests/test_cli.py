import numpy as np
import pytest

from fedcollab import formats
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

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["select", "--instance", str(tmp_path / "nope.txt")]) == 2

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
        assert parsed.reps == 2 and parsed.n == 3

    def test_method_subset_and_reps_flags(self, tmp_path):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        out = tmp_path / "t.csv"
        assert main(["simulate", "--config", str(cfg), "--methods", "local,ce",
                     "--reps", "1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "participant,local,ce"

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
        assert report.usage_edges == ((2, 0),)

    def test_preset_table_layout(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["simulate", "--preset", "weak_noniid", "--seed", "7",
                     "--reps", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "participant,local,fedavg,ce,fedcompetitors"
        assert len(lines) == 9  # 8 participants

    def test_divergent_training_exits_4(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG + "learning_rate 1e30\n")
        with np.errstate(all="ignore"):
            assert main(["simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "t.csv")]) == 4
        assert "diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("reps", ["0", "-3"])
    def test_nonpositive_reps_flag_exits_2(self, tmp_path, capsys, reps):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--reps", reps,
                     "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --reps must be at least 1, got {reps}\n"
        assert not (tmp_path / "t.csv").exists()

    def test_zero_reps_in_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.txt"
        cfg.write_text(SIM_CONFIG.replace("reps 2", "reps 0"))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert "line 7" in err and "reps must be at least 1" in err
        assert len(err.splitlines()) == 1


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
