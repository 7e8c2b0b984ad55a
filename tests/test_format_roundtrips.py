"""Property tests of the text dialect: parse∘serialize round trips for every
kind that has a serializer, a token-stream fuzz of every parser, and the
bulk edge-list reader against the checked loop."""

from unittest.mock import patch

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

from conftest import ODD, benefit_text, make_instance, mutated

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
def competitions(draw, n):
    """A symmetric boolean n x n competition matrix; never the complete
    graph, which ``check_competing`` refuses."""
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    competing = np.zeros((n, n), dtype=bool)
    for a, b in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs) - 1)
                     if len(pairs) > 1 else st.just([])):
        competing[a, b] = competing[b, a] = True
    return competing


@st.composite
def instances(draw, max_n=8):
    n = draw(st.integers(1, max_n))
    return Instance(n, draw(competitions(n)), draw(benefits(n)))


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
    competing = data.draw(competitions(n))
    train = data.draw(st.none() | train_configs)
    reps = data.draw(st.none() | st.integers(1, 1000))
    parsed, parsed_competing, *rest = formats.parse_sim_config(
        formats.serialize_sim_config(config, competing, train, reps))
    assert parsed == config and np.array_equal(parsed_competing, competing)
    assert rest == [train or TrainConfig(), reps]


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
    mode = draw(st.sampled_from(["exact", "greedy"]))
    rows = {m: tuple(draw(st.lists(finite, min_size=n, max_size=n))) for m in methods}
    spread = {m: tuple(draw(st.lists(finite, min_size=n, max_size=n))) for m in methods}
    config = draw(configs(n))
    benefit = draw(benefits(n))
    # a usage edge needs a positive benefit
    usage = (benefit > 0) & np.array(draw(st.lists(st.booleans(), min_size=n * n,
                                                   max_size=n * n))).reshape(n, n)
    return ExperimentReport(
        methods=methods, reps=draw(st.integers(1, 100)),
        mean=rows, std=spread, config=config, train_config=draw(train_configs),
        preset=draw(st.none() | st.sampled_from(PRESET_NAMES)),
        clique_cover=Partition(draw(partitions(n)), mode),
        coalitions=Partition(draw(partitions(n))),
        usage=usage, benefit=benefit,
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


# edge-list kinds: the bulk reader against the checked loop alone
def _usage_text(instance):
    return formats.serialize_selection(instance, *select_collaborators(instance))


EDGE_LISTS = {formats.parse_instance: formats.serialize_instance,
              formats.parse_usage: _usage_text,
              formats.parse_benefit: benefit_text}
def _outcome(parse, text, *args):
    try:
        value = parse(text, *args)
    except (FileFormatError, InvalidInstanceError) as exc:
        return type(exc), str(exc)
    if isinstance(value, np.ndarray):  # a benefit matrix
        return value.tobytes(), value.shape
    if isinstance(value, Instance):
        return value.n, value.competing.tobytes(), value.benefit.tobytes()
    return value.n, value.x.tobytes(), value.closure.tobytes()  # a usage graph


@pytest.mark.parametrize("parse", list(EDGE_LISTS), ids=lambda p: p.__name__)
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_bulk_reader_agrees_with_the_checked_loop(parse, data):
    instance = data.draw(instances())
    text = data.draw(mutated(EDGE_LISTS[parse](instance)))
    args = [data.draw(st.sampled_from([None, instance.n, instance.n + 1]))] \
        if parse is formats.parse_usage else []
    with patch.object(formats, "_plain", return_value=None):
        checked = _outcome(parse, text, *args)
    # a chunk of one or a few lines puts every edit next to a chunk boundary
    with patch.object(formats, "_CHUNK", data.draw(st.sampled_from([1, 16, formats._CHUNK]))):
        assert _outcome(parse, text, *args) == checked


GRID = {
    formats.parse_instance: "# instance\nn 4\ncompeting 0 2\ncompeting v2 v4\nbenefit 1 0 0.25\n"
                            "benefit v3 v2 1.5\nbenefit v4 v1 0.125\n",
    formats.parse_usage: "# selection\nn 4\npotential v1 0.5\nedge 2 3\nedge v1 v2\n"
                         "closure v1 v2\ndecision v2 v1 0.5 accept\n",
    formats.parse_benefit: "n 4\nbenefit 1 0 0.25\nbenefit v3 v2 1.5\n",
}


@pytest.mark.parametrize("chunk", [1, formats._CHUNK])
@pytest.mark.parametrize("parse", list(GRID), ids=lambda p: p.__name__)
def test_every_single_edit_agrees_with_the_checked_loop(parse, chunk):
    # each odd token in each field of each line, and each line dropped,
    # repeated, or preceded by an 'n' line (moved or repeated)
    lines = GRID[parse].split("\n")
    texts = []
    for k, line in enumerate(lines):
        fields = line.split(" ")
        for f in range(len(fields)):
            for token in ODD + ["0", "3", "v4", "v5", "n", "edge", "benefit"]:
                texts.append("\n".join(lines[:k] + [" ".join(fields[:f] + [token] + fields[f + 1:])]
                                       + lines[k + 1:]))
        texts.append("\n".join(lines[:k] + lines[k + 1:]))
        texts.append("\n".join(lines[:k + 1] + lines[k:]))
        texts.append("\n".join(lines[:k] + ["n 4"] + lines[k:]))
        texts.append("\n".join([x for x in lines[:k] if x != "n 4"] + ["n 4"]
                               + [x for x in lines[k:] if x != "n 4"]))
    args = [4] if parse is formats.parse_usage else []
    for text in texts:
        with patch.object(formats, "_plain", return_value=None):
            checked = _outcome(parse, text, *args)
        with patch.object(formats, "_CHUNK", chunk):
            assert _outcome(parse, text, *args) == checked, text


@pytest.mark.parametrize("chunk,n", [(64, 12), (formats._CHUNK, 12), (formats._CHUNK, 80)],
                         ids=["64", str(formats._CHUNK), f"{formats._CHUNK}-n80"])
def test_plain_edge_lists_skip_the_checked_loop(rng, chunk, n):
    # every serializer's output is read in bulk, in one chunk or in many
    # (at n=80 the select output spans several chunks of the default size);
    # the loop is never entered
    instance = make_instance(rng, n)
    usage, trace = select_collaborators(instance)
    selection = formats.serialize_selection(instance, usage, trace)
    assert n < 80 or len(selection) > 2 * chunk

    def refuse(*args, **kwargs):
        raise AssertionError("the checked loop read a plain edge list")

    with patch.object(formats, "_lines", refuse), patch.object(formats, "_CHUNK", chunk):
        assert formats.parse_instance(formats.serialize_instance(instance)) == instance
        for text in (selection, formats.serialize_usage(usage)):
            parsed = formats.parse_usage(text, n)
            assert parsed == usage and np.array_equal(parsed.closure, usage.closure)
        assert np.array_equal(formats.parse_benefit(benefit_text(instance)), instance.benefit)


@pytest.mark.parametrize("chunk", [64, formats._CHUNK])
def test_inline_comments_stay_in_the_bulk_reader(rng, chunk):
    # a comment after a line's fields, or on a line of its own, is cut before
    # the chunk is classified: the text is still read in bulk, to the same values
    instance = make_instance(rng, 12)
    usage, trace = select_collaborators(instance)
    texts = [formats.serialize_instance(instance),
             formats.serialize_selection(instance, usage, trace)]
    instance_text, selection_text = (
        "".join(line.rstrip("\n") + f" # line {k}\n" if k % 3 else "# own line\n" + line
                for k, line in enumerate(text.splitlines(True))) for text in texts)
    refuse = AssertionError("the checked loop read the text")
    with patch.object(formats, "_lines", side_effect=refuse), \
            patch.object(formats, "_CHUNK", chunk):
        assert formats.parse_instance(instance_text) == instance
        assert formats.parse_usage(selection_text, instance.n) == usage


def _blanks(text: str) -> str:
    """``text`` with spaces and tabs placed wherever the checked loop takes
    them: a line of spaces, a tab after a key, an indent of spaces and tabs,
    and a tab between fields and after the last one, by turns."""
    out = []
    for k, line in enumerate(text.splitlines()):
        if k % 4 == 0:
            out += [line, "   "]
        elif k % 4 == 1:
            out.append(line.replace(" ", "\t", 1))
        elif k % 4 == 2:
            out.append(" \t  " + line)
        else:
            out.append(line.replace(" ", " \t ") + "\t ")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("chunk", [64, formats._CHUNK])
def test_tabs_and_blank_lines_stay_in_the_bulk_reader(rng, chunk):
    # the chunk's tabs are read as spaces and its indents dropped before it
    # is classified: the text is still read in bulk, to the values the
    # checked loop reads from it
    instance = make_instance(rng, 12)
    usage, trace = select_collaborators(instance)
    cases = [(formats.parse_instance, formats.serialize_instance(instance), []),
             (formats.parse_usage, formats.serialize_selection(instance, usage, trace),
              [instance.n])]
    refuse = AssertionError("the checked loop read the text")
    for parse, text, args in cases:
        edited = _blanks(text)
        assert "\t" in edited and "\n   \n" in edited
        with patch.object(formats, "_lines", side_effect=refuse), \
                patch.object(formats, "_CHUNK", chunk):
            bulk = _outcome(parse, edited, *args)
        with patch.object(formats, "_plain", return_value=None):
            checked = _outcome(parse, edited, *args)
        assert bulk == checked == _outcome(parse, text, *args)


@pytest.mark.parametrize("chunk", [64, formats._CHUNK])
def test_crlf_and_non_ascii_comments_stay_in_the_bulk_reader(rng, chunk):
    # "\r\n" is read as "\n", and a comment is cut before the chunk is held
    # to ASCII: both texts are read in bulk, to the values the checked loop
    # reads from them; a "\x85" in a comment breaks the line in the loop, so
    # that text is left to the loop, which refuses the line it starts
    instance = make_instance(rng, 12)
    refuse = AssertionError("the checked loop read the text")
    for parse, write in EDGE_LISTS.items():
        text = write(instance)
        lines = text.splitlines(True)
        commented = "".join([*lines[:2], "# région\n", *lines[2:]])
        for edited in (text.replace("\n", "\r\n"), commented):
            with patch.object(formats, "_lines", side_effect=refuse), \
                    patch.object(formats, "_CHUNK", chunk):
                bulk = _outcome(parse, edited)
            with patch.object(formats, "_plain", return_value=None):
                checked = _outcome(parse, edited)
            assert bulk == checked == _outcome(parse, text)
        broken = "".join([*lines[:2], "# région\x85bogus\n", *lines[2:]])
        with patch.object(formats, "_CHUNK", chunk):
            assert _outcome(parse, broken)[0] is FileFormatError
