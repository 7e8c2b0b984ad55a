"""Property tests of the text dialect: parse∘serialize round trips for every
kind that has a serializer, and a token-stream fuzz of every parser."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedcollab import formats
from fedcollab.fedtrain import METHODS, ExperimentReport, TrainConfig
from fedcollab.formats import FileFormatError
from fedcollab.graphs import Instance, InvalidInstanceError
from fedcollab.partition import Partition
from fedcollab.selection import select_collaborators
from fedcollab.synthdata import PRESET_NAMES, SyntheticConfig

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def benefits(draw, n):
    benefit = np.zeros((n, n))
    edges = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    for (j, i), w in draw(st.dictionaries(edges, positive, max_size=2 * n)
                          if n > 1 else st.just({})).items():
        benefit[j, i] = w
    return benefit


@st.composite
def instances(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    competing = np.zeros((n, n), dtype=bool)
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) - 1)
                     if len(pairs) > 1 else st.just([])):
        competing[a, b] = competing[b, a] = True
    return Instance(n, competing, draw(benefits(n)))


@st.composite
def configs(draw, n):
    return SyntheticConfig(
        n=n, samples=tuple(draw(st.lists(st.integers(1, 10**6), min_size=n, max_size=n))),
        flipped=tuple(draw(st.lists(st.booleans(), min_size=n, max_size=n))),
        rho=draw(st.floats(0, 10)), degree=draw(st.integers(1, 9)),
        noise_std=draw(st.floats(0, 10)), seed=draw(st.integers(0, 2**40)),
        val_fraction=draw(st.floats(0, 1, exclude_min=True, exclude_max=True)))


train_configs = st.builds(
    TrainConfig, rounds=st.integers(1, 10**4), local_epochs=st.integers(1, 9),
    learning_rate=st.floats(1e-9, 10), batch_size=st.integers(1, 4096),
    benefit_threshold=st.floats(0, 10))


@SETTINGS
@given(instances())
def test_instance_round_trip(instance):
    assert formats.parse_instance(formats.serialize_instance(instance)) == instance


@SETTINGS
@given(instances())
def test_selection_round_trip(instance):
    usage, trace = select_collaborators(instance)
    text = formats.serialize_selection(instance, usage, trace)
    assert formats.parse_usage(text, expected_n=instance.n) == usage


@SETTINGS
@given(st.data())
def test_sim_config_round_trip(data):
    n = data.draw(st.integers(1, 8))
    config = data.draw(configs(n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    train = data.draw(st.none() | train_configs)
    reps = data.draw(st.none() | st.integers(1, 1000))
    parsed = formats.parse_sim_config(formats.serialize_sim_config(config, edges, train, reps))
    assert parsed == (config, tuple(sorted(edges)), train or TrainConfig(), reps)


@st.composite
def partitions(draw, n):
    """Groups that hold each of 0..n-1 exactly once, or no groups at all."""
    if draw(st.booleans()):
        return ()
    order = draw(st.permutations(range(n)))
    bounds = [0, *sorted(draw(st.sets(st.integers(1, n - 1)))), n] if n > 1 else [0, n]
    return tuple(tuple(order[a:b]) for a, b in zip(bounds, bounds[1:]))


@st.composite
def reports(draw):
    n = draw(st.integers(1, 6))
    methods = tuple(draw(st.lists(st.sampled_from(METHODS), min_size=1, unique=True)))
    nodes = st.integers(0, n - 1)
    mode = draw(st.sampled_from(["exact", "greedy"]))
    rows = {m: tuple(draw(st.lists(finite, min_size=n, max_size=n))) for m in methods}
    spread = {m: tuple(draw(st.lists(finite, min_size=n, max_size=n))) for m in methods}
    config = draw(configs(n))
    return ExperimentReport(
        methods=methods, n=n, reps=draw(st.integers(1, 100)), seed=config.seed,
        mean=rows, std=spread, config=config, train_config=draw(train_configs),
        preset=draw(st.none() | st.sampled_from(PRESET_NAMES)),
        clique_cover=Partition(draw(partitions(n)), "clique_cover", mode),
        coalitions=Partition(draw(partitions(n)), "scc_coalitions", mode),
        usage_edges=tuple(draw(st.lists(st.tuples(nodes, nodes), max_size=n, unique=True))),
        benefit=draw(benefits(n)),
        aggregation=" ".join(draw(st.lists(st.text("abc=,-", min_size=1), max_size=4))))


@SETTINGS
@given(reports())
def test_report_round_trip(report):
    assert formats.parse_report(formats.serialize_report(report)) == report


# every parser on lines drawn from its kind's keys mixed with tricky tokens
KEYS = {
    formats.parse_instance: ["n", "competing", "benefit"],
    formats.parse_usage: ["n", "edge", "decision", "closure"],
    formats.parse_benefit: ["n", "benefit"],
    formats.parse_sim_config: ["n", "samples", "flipped", "competing", "reps", "rho", "degree",
                               "seed", "rounds", "learning_rate"],
    formats.parse_report: ["n", "methods", "reps", "seed", "preset", "aggregation", "config_rho",
                           "config_degree", "config_samples", "config_flipped", "train_rounds",
                           "cover_mode", "cover", "coalition", "usage_edge", "benefit", "mse"],
}
TRICKY = ["v0", "v1", "v2", "v3", "V2", "0", "1", "2", "3", "-1", "4097", "v²", "٣", "v٣", "３",
          "nan", "1e400", "0.5", "-", "none", "#", "", "x", "local", "fedavg", "exact", "1_0"]


@pytest.mark.parametrize("parse", list(KEYS), ids=lambda p: p.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_token_fuzz_ends_in_a_value_or_a_documented_error(parse, data):
    lines = data.draw(st.lists(
        st.tuples(st.sampled_from(["n"] + KEYS[parse] + ["bogus"]),
                  st.lists(st.sampled_from(TRICKY), max_size=5)), max_size=8))
    header = data.draw(st.sampled_from(["", "n 3\n"]))
    text = header + "\n".join(" ".join([key, *fields]) for key, fields in lines)
    try:
        parse(text)
    except (FileFormatError, InvalidInstanceError):
        pass
