import dataclasses
import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from fedcollab import formats
from fedcollab.fedtrain import ExperimentReport, TrainConfig, run_experiment
from fedcollab.formats import FileFormatError
from fedcollab.graphs import Instance, InvalidInstanceError, UsageGraph
from fedcollab.selection import select_collaborators
from fedcollab.synthdata import SyntheticConfig, competing_matrix

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

    @pytest.mark.parametrize("text", ["n 2\nobjective 1\n", "n 2 # bulk reader off\nobjective 1\n"])
    def test_objective_is_not_a_skipped_key(self, text):
        # no writer emits an 'objective' line; the word appears only in 'step' lines
        assert formats._plain(text, formats._USAGE, formats._SELECTION_KEYS) is None
        with pytest.raises(FileFormatError) as exc:
            formats.parse_usage(text)
        assert str(exc.value) == "line 2, column 1: unknown keyword 'objective' in usage-graph file"

    def test_accepts_selection_report(self, rng):
        inst = make_instance(rng, 6)
        usage, trace = select_collaborators(inst)
        text = formats.serialize_selection(inst, usage, trace)
        assert formats.parse_usage(text, expected_n=6) == usage


# SHA-256 of serialize_instance and serialize_usage (the graph `select`
# returns) on seeded make_instance inputs, as written before the writers
# shared one edge-line helper; any byte drift in either writer fails here.
GOLDEN_WRITERS = [
    (21, 30, 0.2, "fe79ceb810fb0b21c2f89fe5aa9857ebf77b47581edbe3fd314b1e7632297b6d",
     "b2d67f8caf7adb165c3affc968c1cdc54b5a6139573b2d6f7ab9f2b9b431461a"),
    (22, 90, 0.05, "5636dd8d8d3e5bfd77d698ad251f76512b85e7ca20c8eb938a86f45df11c1116",
     "7d745c7bddb9845890a97f128d65d16de7725cf5da1d3f43d941f29a7535cbef"),
    (23, 1, 0.2, "e88c13fed8d1a8aff22ee90ea18682f9add1706ca0d2e56e1d8733a4faee1ba9",
     "f039f4d0fd538c9fa63eef546659572bb0575288deb91558925dcb2dd2675d38"),
]


@pytest.mark.parametrize("seed,n,edge_prob,instance_digest,usage_digest", GOLDEN_WRITERS)
def test_instance_and_usage_writers_are_byte_stable(seed, n, edge_prob, instance_digest,
                                                    usage_digest):
    instance = make_instance(np.random.default_rng(seed), n, edge_prob=edge_prob)
    usage, _ = select_collaborators(instance)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert digest(formats.serialize_instance(instance)) == instance_digest
    assert digest(formats.serialize_usage(usage)) == usage_digest


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
        cfg, competing, tc, reps = formats.parse_sim_config(self.TEXT)
        assert cfg == SyntheticConfig(n=3, samples=(100, 80, 60),
                                      flipped=(False, False, True), rho=0.05, seed=9)
        assert competing.dtype == bool
        assert np.array_equal(competing, competing_matrix(3, [(0, 1)]))
        assert tc.rounds == 7 and tc.learning_rate == 0.01
        assert tc.local_epochs == TrainConfig().local_epochs
        assert reps == 4

    def test_flipped_takes_none_in_any_place(self):
        text = "n 4\nsamples 5 5 5 5\nflipped v1 none 3 none\n"
        assert formats.parse_sim_config(text)[0].flipped == (True, False, False, True)
        with pytest.raises(FileFormatError) as exc:
            formats.parse_sim_config("n 3\nsamples 5 5 5\nflipped none v4\n")
        assert str(exc.value) == "line 3, column 14: participant 'v4' out of range for n=3"

    def test_round_trip(self):
        cfg, competing, tc, reps = formats.parse_sim_config(self.TEXT)
        text = formats.serialize_sim_config(cfg, competing, tc, reps)
        again, competing_again, *rest = formats.parse_sim_config(text)
        assert again == cfg and np.array_equal(competing_again, competing)
        assert rest == [tc, reps]

    def test_competing_pairs_come_row_major_smaller_first(self):
        # the same pairs in another line order and orientation parse to one
        # matrix, which the writer writes row-major, the smaller node first
        head = "n 5\nsamples 5 5 5 5 5\n"
        one = head + "competing v3 v4\ncompeting v2 v1\ncompeting v5 v1\n"
        two = head + "competing v1 v5\ncompeting v4 v3\ncompeting v1 v2\n"
        cfg, competing = formats.parse_sim_config(one)[:2]
        assert np.array_equal(competing, competing_matrix(5, [(0, 1), (0, 4), (2, 3)]))
        assert np.array_equal(formats.parse_sim_config(two)[1], competing)
        written = formats.serialize_sim_config(cfg, competing).splitlines()
        assert [line for line in written if line.startswith("competing")] == [
            "competing v1 v2", "competing v1 v5", "competing v3 v4"]

    def test_writer_folds_repeated_and_reversed_pairs(self):
        # the matrix holds each pair in both orders; the writer writes it once
        cfg = SyntheticConfig(n=6, samples=(10,) * 6, flipped=(False,) * 6)
        competing = competing_matrix(6, [(0, 1), (1, 0), (5, 2)])
        text = formats.serialize_sim_config(cfg, competing)
        assert text.count("competing ") == 2
        assert np.array_equal(formats.parse_sim_config(text)[1], competing)

    @pytest.mark.parametrize("competing,message", [
        (np.zeros((4, 4), dtype=bool), r"competing adjacency must be 3x3, got \(4, 4\)"),
        (np.triu(competing_matrix(3, [(0, 1)])), "competing adjacency must be symmetric"),
        (np.eye(3, dtype=bool), "competing adjacency must have a zero diagonal"),
        (~np.eye(3, dtype=bool), "complete competition graph"),
    ], ids=["shape", "asymmetric", "self-competing", "complete"])
    def test_writer_refuses_what_check_competing_refuses(self, competing, message):
        # triu would drop the lower half of an asymmetric matrix and write a
        # self pair that the parser refuses; simulate refuses a complete one
        cfg = SyntheticConfig(n=3, samples=(10,) * 3, flipped=(False,) * 3)
        with pytest.raises(InvalidInstanceError, match=message):
            formats.serialize_sim_config(cfg, competing)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_writer_refuses_reps_the_parser_refuses(self, reps):
        cfg = SyntheticConfig(n=3, samples=(10,) * 3, flipped=(False,) * 3)
        with pytest.raises(ValueError, match=f"^reps must be at least 1, got {reps}$"):
            formats.serialize_sim_config(cfg, np.zeros((3, 3), dtype=bool), reps=reps)

    @pytest.mark.parametrize("reps", [1, None])
    def test_writer_round_trips_reps(self, reps):
        cfg = SyntheticConfig(n=3, samples=(10,) * 3, flipped=(False,) * 3)
        text = formats.serialize_sim_config(cfg, np.zeros((3, 3), dtype=bool), reps=reps)
        assert formats.parse_sim_config(text)[3] == reps

    def test_missing_samples(self):
        with pytest.raises(FileFormatError, match="samples"):
            formats.parse_sim_config("n 2\n")

    def test_semantic_validation_becomes_format_error(self):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_sim_config("n 2\nsamples 10\n")  # wrong count
        assert str(exc.value) == ("line 2, column 9: samples must list a positive count "
                                  "per participant")

    @pytest.mark.parametrize("lines,message", [
        ("samples 10 10\nrho -1\n", "line 3, column 5: rho and noise_std must be nonnegative"),
        ("samples 10 10\nrounds 0\n",
         "line 3, column 8: rounds, local_epochs and batch_size must be positive"),
        ("samples 10 10\nval_fraction 1.5\n", "line 3, column 14: val_fraction must be in (0, 1)"),
        ("samples 10 0\n", "line 2, column 9: samples must list a positive count per participant"),
        # the latest line of the refused key, and the first refused line in file order
        ("noise_std -1\nsamples 10 10\nnoise_std -2\n",
         "line 4, column 11: rho and noise_std must be nonnegative"),
        ("rounds 0\nsamples 10\n",
         "line 2, column 8: rounds, local_epochs and batch_size must be positive"),
        ("samples 10 10\nseed -3\nrho -1\n", "line 3, column 6: seed must be nonnegative, got -3"),
    ])
    def test_a_refused_value_names_its_line(self, lines, message):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_sim_config("n 2\n" + lines)
        assert str(exc.value) == message


class TestReportFormat:
    def test_round_trip(self):
        cfg = SyntheticConfig(n=3, samples=(80, 60, 50), flipped=(False, True, False),
                              seed=4)
        report = run_experiment(cfg, competing_matrix(3, [(0, 2)]),
                                train_config=TrainConfig(rounds=3), reps=2, preset=None)
        text = formats.serialize_report(report)
        assert formats.parse_report(text) == report

    def test_n_and_seed_are_the_configs(self):
        cfg = SyntheticConfig(n=3, samples=(80, 60, 50), flipped=(False,) * 3, seed=11)
        report = run_experiment(cfg, np.zeros((3, 3), dtype=bool),
                                train_config=TrainConfig(rounds=2), reps=1, methods=("local",))
        assert not {"n", "seed"} & {f.name for f in dataclasses.fields(report)}
        text = formats.serialize_report(report)
        assert text.splitlines()[1] == "n 3" and "seed 11" in text.splitlines()
        parsed = formats.parse_report(text)
        assert parsed == report and parsed.config == cfg
        assert formats.report_to_csv(parsed).count("\n") == 4

    def test_csv_layout(self):
        cfg = SyntheticConfig(n=2, samples=(40, 40), flipped=(False, False), seed=1)
        report = run_experiment(cfg, np.zeros((2, 2), dtype=bool),
                                train_config=TrainConfig(rounds=2), reps=2,
                                methods=("local", "fedavg"))
        csv = formats.report_to_csv(report)
        lines = csv.strip().splitlines()
        assert lines[0] == "participant,local,fedavg"
        assert len(lines) == 3
        assert lines[1].startswith("v1,") and "±" in lines[1]

    def test_missing_rows_detected(self):
        with pytest.raises(FileFormatError, match="missing mse rows"):
            formats.parse_report("n 2\nmethods local\nconfig_samples 5 5\n"
                                 "mse local v1 0.5 0.1\n")

    MINIMAL = ("n 2\nmethods local\nreps 1\nconfig_samples 5 5\ncover_mode exact\n"
               "mse local v1 0.5 0.1\nmse local v2 0.5 0.1\n")

    @pytest.mark.parametrize("old,new,message", [
        ("reps 1", "reps -3", "line 3, column 6: reps must be at least 1, got -3"),
        ("reps 1", "reps 0", "line 3, column 6: reps must be at least 1, got 0"),
        ("cover_mode exact", "cover_mode bogus",
         "line 5, column 12: cover_mode must be exact or greedy, got 'bogus'"),
        ("cover_mode exact", "", "line 1, column 1: report file declares no 'cover_mode'"),
    ])
    def test_invalid_reps_and_cover_mode(self, old, new, message):
        assert formats.parse_report(self.MINIMAL).clique_cover.mode == "exact"
        with pytest.raises(FileFormatError) as exc:
            formats.parse_report(self.MINIMAL.replace(old, new))
        assert str(exc.value) == message

    @pytest.mark.parametrize("line,message", [
        ("config_rho -2", "line 8, column 12: rho and noise_std must be nonnegative"),
        ("seed -1", "line 8, column 6: seed must be nonnegative, got -1"),
        ("train_rounds 0",
         "line 8, column 14: rounds, local_epochs and batch_size must be positive"),
        ("config_samples 5", "line 8, column 16: samples must list a positive count "
                             "per participant"),
    ])
    def test_a_refused_config_value_names_its_line(self, line, message):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_report(self.MINIMAL + line + "\n")
        assert str(exc.value) == message

    @pytest.mark.parametrize("line,flipped", [
        ("config_flipped -", (False, False)),  # as the writer puts it when nobody is
        ("config_flipped", (False, False)),
        ("config_flipped v1 -", (True, False)),  # a '-' anywhere stands for nobody
        ("config_flipped - v2 - v2", (False, True)),
    ])
    def test_config_flipped_reads_a_dash_as_no_participant(self, line, flipped):
        assert formats.parse_report(self.MINIMAL + line + "\n").config.flipped == flipped

    @pytest.mark.parametrize("text,message", [
        ("n 3\nconfig_flipped v9\n",
         "line 2, column 16: participant 'v9' out of range for n=3"),
        ("n 3\nconfig_flipped - v9\n",
         "line 2, column 18: participant 'v9' out of range for n=3"),
        ("config_flipped -\nn 2\n",
         "line 1, column 1: 'n' must be declared before any line that names a participant"),
        ("config_flipped v1\nn 2\n",
         "line 1, column 1: 'n' must be declared before any line that names a participant"),
    ])
    def test_config_flipped_names_participants_of_n(self, text, message):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_report(text)
        assert str(exc.value) == message

    def test_every_participant_flipped_at_the_node_limit(self):
        n = formats.MAX_NODES
        text = (f"n {n}\nmethods local\nconfig_samples" + " 5" * n + "\nconfig_flipped "
                + " ".join(f"v{i + 1}" for i in range(n)) + "\ncover_mode exact\n"
                + "".join(f"mse local v{i + 1} 0.5 0.1\n" for i in range(n)))
        assert formats.parse_report(text).config.flipped == (True,) * n


class TestReportGroups:
    BASE = (TestReportFormat.MINIMAL + "cover v1 v2\ncoalition v1\ncoalition v2\n"
            "usage_edge v1 v2\nbenefit v1 v2 0.5\n")

    def test_groups_and_edges_parse(self):
        report = formats.parse_report(self.BASE)
        assert report.clique_cover.groups == ((0, 1),)
        assert report.coalitions.groups == ((0,), (1,))
        assert np.argwhere(report.usage).tolist() == [[0, 1]]

    @pytest.mark.parametrize("old,new,message", [
        ("cover v1 v2", "cover v1 v1",
         "line 8, column 10: participant v1 is in two 'cover' groups"),
        ("cover v1 v2", "cover v2\ncover v2",
         "line 9, column 7: participant v2 is in two 'cover' groups"),
        ("cover v1 v2", "cover v2",
         "line 8, column 1: the 'cover' groups leave out participant v1"),
        ("cover v1 v2", "cover", "line 8, column 1: 'cover' needs at least one participant"),
        ("coalition v2\n", "", "line 9, column 1: the 'coalition' groups leave out participant v2"),
        ("coalition v2", "coalition v1",
         "line 10, column 11: participant v1 is in two 'coalition' groups"),
        ("usage_edge v1 v2\n", "usage_edge v1 v2\nusage_edge v1 v2\n",
         "line 12, column 1: duplicate usage edge (v1, v2)"),
    ])
    def test_rejects_groups_that_are_not_a_partition(self, old, new, message):
        with pytest.raises(FileFormatError) as exc:
            formats.parse_report(self.BASE.replace(old, new))
        assert str(exc.value) == message

    def test_report_without_groups_still_parses(self):
        report = formats.parse_report(TestReportFormat.MINIMAL)
        assert report.clique_cover.groups == report.coalitions.groups == ()


PARSERS = [formats.parse_instance, formats.parse_usage, formats.parse_benefit,
           formats.parse_sim_config, formats.parse_report]


@pytest.mark.parametrize("parse", PARSERS)
def test_every_file_declares_n_once(parse):
    with pytest.raises(FileFormatError) as exc:
        parse("n 3\n# again\nn 2\n")
    assert exc.value.line == 3 and "duplicate 'n' declaration" in str(exc.value)


@pytest.mark.parametrize("parse", PARSERS)
def test_every_n_line_is_bounded(parse):
    # refused before any n x n matrix is allocated
    with pytest.raises(InvalidInstanceError, match=f"line 2: n={formats.MAX_NODES + 1} exceeds"):
        parse(f"# header\nn {formats.MAX_NODES + 1}\n")


@pytest.mark.parametrize("parse,line", [
    (formats.parse_sim_config, "samples"),
    (formats.parse_report, "config_samples"),
])
def test_total_samples_are_bounded(parse, line):
    # refused at parse time, before any sample is drawn
    half = formats.MAX_SAMPLES // 2
    with pytest.raises(InvalidInstanceError,
                       match=f"line 3: {formats.MAX_SAMPLES + 1} samples exceed the limit"):
        parse(f"n 2\n# two participants\n{line} {half} {half + 1}\n")
    with pytest.raises(FileFormatError, match="line 3, column 1: unknown keyword 'bogus'"):
        parse(f"n 2\n{line} {half} {half}\nbogus\n")  # the bound itself parses


@pytest.mark.parametrize("parse,line", [
    (formats.parse_sim_config, "samples"),
    (formats.parse_report, "config_samples"),
])
def test_samples_line_needs_counts(parse, line):
    with pytest.raises(FileFormatError) as exc:
        parse(f"n 2\n{line}\n")
    assert str(exc.value) == f"line 2, column 1: '{line}' needs one count per participant"


@pytest.mark.parametrize("parse,line", [
    (formats.parse_sim_config, "samples 20 20\ndegree"),
    (formats.parse_report, "config_samples 20 20\nconfig_degree"),
])
def test_degree_is_bounded(parse, line):
    # refused at parse time, before any feature matrix is built
    with pytest.raises(InvalidInstanceError,
                       match=f"line 3: degree {10**12} exceeds the limit of {formats.MAX_DEGREE}"):
        parse(f"n 2\n{line} {10**12}\n")
    with pytest.raises(FileFormatError, match="line 4, column 1: unknown keyword 'bogus'"):
        parse(f"n 2\n{line} {formats.MAX_DEGREE}\nbogus\n")  # the bound itself parses


def _sim_config(lines: str) -> SyntheticConfig:
    return formats.parse_sim_config(f"n 2\n{lines}")[0]


def _report(lines: str) -> SyntheticConfig:
    minimal = TestReportFormat.MINIMAL.replace("config_samples 5 5\n", "")  # 6 lines left
    return formats.parse_report(minimal + lines.replace("samples", "config_samples")
                                .replace("degree", "config_degree")).config


@pytest.mark.parametrize("parse,first", [(_sim_config, 2), (_report, 7)],
                         ids=["config", "report"])
def test_only_the_last_size_line_counts(parse, first):
    # the later line of a repeated key counts, for the size bounds too
    big = formats.MAX_SAMPLES
    assert parse(f"samples 20 20\nsamples 20 {big}\nsamples 20 20\n").samples == (20, 20)
    assert parse("samples 20 20\ndegree 50\ndegree 3\n").degree == 3
    with pytest.raises(InvalidInstanceError,
                       match=f"line {first + 1}: {big + 20} samples exceed the limit"):
        parse(f"samples 20 20\nsamples 20 {big}\n")
    with pytest.raises(InvalidInstanceError, match=f"line {first + 2}: degree 50 exceeds"):
        parse("samples 20 20\ndegree 3\ndegree 50\n")


@pytest.mark.parametrize("parse,text,line,col", [
    (formats.parse_instance, "n 3\ncompeting v² v1\n", 2, 11),
    (formats.parse_instance, "n 3\ncompeting ٣ v1\n", 2, 11),
    (formats.parse_instance, "n 3\nbenefit v1 v٣ 0.5\n", 2, 12),
    (formats.parse_usage, "n 3\nedge ３ v1\n", 2, 6),
    (formats.parse_benefit, "n ３\n", 1, 3),
    (formats.parse_sim_config, "n 2\nsamples 5 ٣\n", 2, 11),
    (formats.parse_sim_config, "n 2\nsamples 5 5\nreps ²\n", 3, 6),
    (formats.parse_sim_config, "n 2\nsamples 5 5\nflipped v²\n", 3, 9),
    (formats.parse_report, "n 2\nconfig_flipped ٣\n", 2, 16),
])
def test_participants_and_counts_are_ascii_digits(parse, text, line, col):
    # str.isdigit and int() accept other Unicode digits; the dialect does not
    with pytest.raises(FileFormatError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@pytest.mark.parametrize("edit,message", [
    (("methods local", "methods bogus bogus"),
     "line 2, column 9: method must be local, fedavg, ce or fedcompetitors, got 'bogus'"),
    (("methods local", "methods local local"), "line 2, column 15: duplicate method 'local'"),
    (("methods local", "methods"), "line 2, column 1: 'methods' needs at least one method"),
    ("benefit v1 v1 -4", "line 8, column 12: self-benefit edges are not allowed"),
    ("benefit v1 v2 -4", "line 8, column 15: benefit weight must be positive"),
    ("benefit v1 v2 0.5\nbenefit v1 v2 0.5", "line 9, column 1: duplicate benefit edge (v1, v2)"),
    ("mse local v2 0.7 0.1", "line 8, column 1: duplicate mse row (local, v2)"),
    ("usage_edge v1 v1", "line 8, column 1: self-edge (v1, v1) is not a collaboration"),
    ("mse other v1 0.5 0.1",
     "line 8, column 5: mse row for method 'other', which 'methods' does not list"),
])
def test_report_lines_are_checked(edit, message):
    minimal = TestReportFormat.MINIMAL
    text = minimal.replace(*edit) if isinstance(edit, tuple) else minimal + edit + "\n"
    with pytest.raises(FileFormatError) as exc:
        formats.parse_report(text)
    assert str(exc.value) == message


def test_readme_examples_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```\n(n \d+\n.*?)```", readme, flags=re.S)
    instance = next(b for b in blocks if "samples" not in b)
    config = next(b for b in blocks if "samples" in b)
    assert formats.parse_instance(instance).n == 3
    cfg, competing, tc, reps = formats.parse_sim_config(config)
    assert (cfg.n, cfg.flipped, reps) == (3, (False, False, True), 10)
    assert np.array_equal(competing, competing_matrix(3, [(0, 1)]))


def test_readme_library_example_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, flags=re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    assert isinstance(scope["report"], ExperimentReport)
    assert scope["report"].preset is None and scope["report"].reps == 10


@pytest.mark.parametrize("grammar", [formats._INSTANCE, formats._USAGE, formats._BENEFIT_FILE,
                                     formats._SIM_CONFIG, formats._REPORT])
def test_readme_lists_every_grammar_line(grammar):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    text = " ".join(readme.split())  # list items wrap across lines
    for rule in grammar.values():
        assert f"`{rule.usage[1:-1]}`" in text
