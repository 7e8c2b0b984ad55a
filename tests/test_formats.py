import numpy as np
import pytest

from fedcollab import formats
from fedcollab.fedtrain import TrainConfig, run_experiment
from fedcollab.formats import FileFormatError
from fedcollab.graphs import Instance, InvalidInstanceError, UsageGraph
from fedcollab.selection import select_collaborators
from fedcollab.synthdata import SyntheticConfig

from conftest import make_instance

INSTANCE_TEXT = """\
# three participants
n 3
competing v1 v3
benefit v2 v1 0.25
benefit v3 v2 1.5
"""


class TestInstanceFormat:
    def test_parse_basic(self):
        inst = formats.parse_instance(INSTANCE_TEXT)
        assert inst.n == 3
        assert inst.competing[0, 2] and inst.competing[2, 0]
        assert inst.benefit[1, 0] == 0.25
        assert inst.benefit[2, 1] == 1.5

    def test_zero_based_aliases(self):
        inst = formats.parse_instance("n 3\ncompeting 0 2\nbenefit 1 0 0.25\n")
        assert inst.competing[0, 2] and inst.benefit[1, 0] == 0.25

    def test_round_trip_identity(self, rng):
        for _ in range(20):
            inst = make_instance(rng)
            assert formats.parse_instance(formats.serialize_instance(inst)) == inst

    @pytest.mark.parametrize("text,line", [
        ("n 3\ncompeting v1 v1\n", 2),
        ("n 3\ncompeting v1 v2\ncompeting v2 v1\n", 3),
        ("n 3\nbenefit v1 v1 0.5\n", 2),
        ("n 3\nbenefit v1 v2 0\n", 2),
        ("n 3\nbenefit v1 v2 -1\n", 2),
        ("n 3\nbenefit v1 v2 nan\n", 2),
        ("n 3\nbenefit v1 v2 0.5\nbenefit v1 v2 0.5\n", 3),
        ("n 3\ncompeting v1 v9\n", 2),
        ("n 3\nfrobnicate 1 2\n", 2),
        ("n 3\nn 4\n", 2),
        ("competing v1 v2\n", 1),
        ("n 3\ncompeting v1\n", 2),
        ("n zero\n", 1),
    ])
    def test_parse_errors_carry_line_numbers(self, text, line):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_instance(text)
        assert exc.value.line == line
        assert f"line {line}" in str(exc.value)

    def test_error_carries_column(self):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_instance("n 3\nbenefit v1 v2 oops\n")
        assert exc.value.line == 2
        assert exc.value.col == 15

    def test_semantic_errors_are_not_format_errors(self):
        # a parseable file describing an invalid instance (complete
        # competition) surfaces as InvalidInstanceError, not a parse error
        text = "n 2\ncompeting v1 v2\nbenefit v1 v2 1.0\n"
        with pytest.raises(InvalidInstanceError):
            formats.parse_instance(text)


class TestUsageFormat:
    def test_round_trip(self):
        usage = UsageGraph(4).add_edge(0, 1).add_edge(2, 3)
        parsed = formats.parse_usage(formats.serialize_usage(usage))
        assert parsed == usage

    def test_rejects_duplicate_edges(self):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_usage("n 3\nedge v1 v2\nedge v1 v2\n")
        assert exc.value.line == 3

    def test_rejects_mismatched_n(self):
        with pytest.raises(FileFormatError, match="instance has n=4"):
            formats.parse_usage("n 3\n", expected_n=4)

    def test_accepts_selection_report(self, rng):
        inst = make_instance(rng, 6)
        usage, trace = select_collaborators(inst)
        text = formats.serialize_selection(inst, usage, trace)
        assert formats.parse_usage(text, expected_n=6) == usage


class TestBenefitFormat:
    def test_parse(self):
        w = formats.parse_benefit("n 2\nbenefit v1 v2 0.125\n")
        assert w[0, 1] == 0.125 and w[1, 0] == 0.0

    def test_rejects_unknown_keys(self):
        with pytest.raises(FileFormatError):
            formats.parse_benefit("n 2\ncompeting v1 v2\n")


class TestSimConfigFormat:
    TEXT = """\
n 3
rho 0.05
degree 3
noise_std 0.1
seed 9
samples 100 80 60
flipped v3
competing v1 v2
rounds 7
learning_rate 0.01
reps 4
"""

    def test_parse_full(self):
        cfg, edges, tc, reps = formats.parse_sim_config(self.TEXT)
        assert cfg == SyntheticConfig(n=3, samples=(100, 80, 60),
                                      flipped=(False, False, True), rho=0.05, seed=9)
        assert edges == ((0, 1),)
        assert tc.rounds == 7 and tc.learning_rate == 0.01
        assert tc.local_epochs == TrainConfig().local_epochs
        assert reps == 4

    def test_round_trip(self):
        cfg, edges, tc, reps = formats.parse_sim_config(self.TEXT)
        text = formats.serialize_sim_config(cfg, edges, tc, reps)
        assert formats.parse_sim_config(text) == (cfg, edges, tc, reps)

    def test_missing_samples(self):
        with pytest.raises(FileFormatError, match="samples"):
            formats.parse_sim_config("n 2\n")

    def test_semantic_validation_becomes_format_error(self):
        with pytest.raises(FileFormatError):
            formats.parse_sim_config("n 2\nsamples 10\n")  # wrong count


class TestReportFormat:
    def test_round_trip(self):
        cfg = SyntheticConfig(n=3, samples=(80, 60, 50), flipped=(False, True, False),
                              seed=4)
        report, _ = run_experiment(cfg, [(0, 2)], train_config=TrainConfig(rounds=3),
                                   reps=2, preset=None)
        text = formats.serialize_report(report)
        assert formats.parse_report(text) == report

    def test_csv_layout(self):
        cfg = SyntheticConfig(n=2, samples=(40, 40), flipped=(False, False), seed=1)
        report, _ = run_experiment(cfg, [], train_config=TrainConfig(rounds=2),
                                   reps=2, methods=("local", "fedavg"))
        csv = formats.report_to_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "participant,local,fedavg"
        assert len(lines) == 3
        assert lines[1].startswith("v1,") and "±" in lines[1]

    def test_missing_rows_detected(self):
        with pytest.raises(FileFormatError, match="missing mse rows"):
            formats.parse_report("n 2\nmethods local\nconfig_samples 5 5\n"
                                 "mse local v1 0.5 0.1\n")


@pytest.mark.parametrize("parse", [formats.parse_instance, formats.parse_usage,
                                   formats.parse_benefit, formats.parse_sim_config,
                                   formats.parse_report])
def test_every_n_line_is_bounded(parse):
    # refused before any n x n matrix is allocated
    with pytest.raises(InvalidInstanceError, match=f"line 2: n={formats.MAX_NODES + 1} exceeds"):
        parse(f"# header\nn {formats.MAX_NODES + 1}\n")
