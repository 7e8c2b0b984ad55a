"""Structured-text dialect for instances, usage graphs, configs and reports.

One line-oriented format everywhere: ``#`` starts a comment, blank lines
are ignored, and each remaining line is a keyword followed by
whitespace-separated fields. Participants may be written either as
1-based labels ``v1``..``vn`` or as bare 0-based indices, in ASCII digits;
labels are the canonical output form. Each file kind has a grammar table
(keyword -> usage and field parsers) read by one checked loop,
:func:`_lines`, which words every diagnostic as a :class:`FileFormatError`
with line and column positions. The edge-list kinds (instance, usage and
benefit files) have one reader body, :func:`_edge_lists`: :func:`_plain`
reads a plain text in bulk, a column at a time, to the values the loop
would give, and any other text takes the loop, each line checked by its
key's ``_CHECKS`` entry and the matrices built by :func:`_matrix`. Writers
share :func:`_edge_lines` for ``<key> <label> <label>[ <weight>]`` lines
and :func:`_group_lines` for the cover and coalition groups. The scalar
keys of configs and reports are the defaulted fields of
:class:`SyntheticConfig` and :class:`TrainConfig`, for parser and
serializer alike.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import re
from typing import Callable, NamedTuple

import numpy as np

from .fedtrain import METHODS, ExperimentReport, TrainConfig
from .graphs import Instance, InvalidInstanceError, UsageGraph, potentials
from .partition import Partition
from .selection import SelectionTrace
from .synthdata import SyntheticConfig, competing_matrix

_TOKEN = re.compile(r"\S+")

MAX_NODES = 4096
"""Largest participant count an input file may declare (exit code 3 above).

Instance, benefit and report files become dense n x n float64 matrices,
128 MiB each at this bound, and selection keeps four n x n boolean
matrices besides (16 MiB each); a larger count is refused before anything
is allocated.
"""

MAX_SAMPLES = 10_000_000
"""Largest total of the sample counts a config or report file may declare
(exit code 3 above): about 80 MB per float64 array drawn over all
participants, refused before any data is generated.
"""

MAX_DEGREE = 10
"""Largest polynomial degree a config or report file may declare (exit
code 3 above). Each sample's features are ``degree`` float64 values, 80
bytes at this bound, so the feature matrix of ``MAX_SAMPLES`` samples
takes 800 MB; a larger degree is refused before any data is generated.
"""

MAX_TRAINING_WORK = 1_000_000_000
"""Largest training job ``simulate`` runs (exit code 3 above), counted as
rounds x local_epochs x reps x the total sample count. Both presets at
``--reps 10`` count 1.7 and 3.2 million. All four methods together train
at 0.23-0.62 microseconds per unit on one core of a 2-vCPU machine (the
presets, and six participants of distinct sizes), so the bound is about
4-10 minutes of training, and a job that would take hours is refused
before it starts.
"""


class FileFormatError(ValueError):
    """Malformed structured-text input, with a line/column diagnostic."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", column {col}"
            where += ": "
        super().__init__(where + message)


def node_label(i: int) -> str:
    return f"v{i + 1}"


# ---------------------------------------------------------------------------
# field parsers: (token, n) -> value, raising ValueError with the message


def _node(token: str, n: int) -> int:
    label = token[:1] in ("v", "V")
    digits = token[1:] if label else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected a participant (v<k> or index), got {token!r}")
    idx = int(digits) - label
    if idx < 0:
        raise ValueError(f"participant labels start at v1, got {token!r}")
    if idx >= n:
        raise ValueError(f"participant {token!r} out of range for n={n}")
    return idx


def _int(what: str, least: int | None = None):
    def parse(token: str, n) -> int:
        try:
            value = int(token if token.isascii() else "-")
        except ValueError:
            raise ValueError(f"expected an integer for {what}, got {token!r}") from None
        if least is not None and value < least:
            raise ValueError(f"{what} must be at least {least}, got {value}")
        return value
    return parse


def _float(what: str):
    def parse(token: str, n) -> float:
        try:
            value = float(token)
        except ValueError:
            raise ValueError(f"expected a number for {what}, got {token!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{what} must be finite, got {token!r}")
        return value
    return parse


def _choice(what: str, options: tuple[str, ...]):
    def parse(token: str, n) -> str:
        if token not in options:
            raise ValueError(f"{what} must be {', '.join(options[:-1])} or {options[-1]}, "
                             f"got {token!r}")
        return token
    return parse


def _word(token: str, n) -> str:
    return token


# ---------------------------------------------------------------------------
# the one parse loop


class _Rule(NamedTuple):
    usage: str
    fixed: tuple[Callable, ...]
    repeat: Callable | None  # parses each field after the fixed ones
    empty: str | None  # a lone field that stands for no fields
    needs_n: bool


def _grammar(table: dict) -> dict[str, _Rule]:
    """Compile ``{key: (usage, fields[, empty])}``; a ``...`` at the end of
    ``fields`` repeats the parser before it any number of times."""
    rules = {}
    for key, (usage, fields, *empty) in table.items():
        repeat = fields[-2] if fields[-1] is ... else None
        rules[key] = _Rule(f"'{key} {usage}'", fields[:-2] if repeat else fields, repeat,
                           empty[0] if empty else None, _node in fields)
    return rules


_N = _grammar({"n": ("<count>", (_int("n"),))})["n"]


class _Line(NamedTuple):
    no: int
    body: str
    key: str
    values: list

    def error(self, message: str, k: int = 0) -> FileFormatError:
        """An error at the k-th token of this line (0 is the keyword)."""
        return FileFormatError(message, self.no, list(_TOKEN.finditer(self.body))[k].start() + 1)


def _lines(text: str, kind: str, grammar: dict[str, _Rule], skip=()):
    """Yield each content line of a ``kind`` file, its fields parsed by
    ``grammar``; the ``n`` line is checked here and yielded too. Lines
    whose key is in ``skip`` are dropped before the rest is split."""
    n: int | None = None
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        head = body.split(None, 1)
        if not head or head[0] in skip:
            continue
        line = _Line(no, body, head[0], [])
        rule = _N if line.key == "n" else grammar.get(line.key)
        if rule is None:
            raise line.error(f"unknown keyword {line.key!r} in {kind} file")
        if rule is _N and n is not None:
            raise line.error("duplicate 'n' declaration")
        tokens = head[1].split() if len(head) > 1 else []
        if rule.empty is not None and tokens == [rule.empty]:
            tokens = []
        count = len(rule.fixed)
        if len(tokens) != count and (rule.repeat is None or len(tokens) < count):
            raise line.error(f"expected {rule.usage}", min(count + 1, len(tokens)))
        if rule.needs_n and n is None:
            raise line.error("'n' must be declared before any edges")
        values = line.values
        try:
            for k, token in enumerate(tokens):
                values.append((rule.fixed[k] if k < count else rule.repeat)(token, n))
        except ValueError as exc:
            raise line.error(str(exc), len(values) + 1) from None
        if rule is _N:
            n = values[0]
            if n < 1:
                raise line.error("n must be positive", 1)
            if n > MAX_NODES:
                raise InvalidInstanceError(f"line {no}: n={n} exceeds the limit of "
                                           f"{MAX_NODES} participants")
        yield line
    if n is None:
        raise FileFormatError(f"{kind} file declares no 'n'", 1, 1)


# ---------------------------------------------------------------------------
# edge lists in bulk

_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e"  # ASCII line breaks of str.splitlines besides "\n"
_CHUNK = 1 << 16  # characters read at a time: only one chunk's tokens are held at once


def _plain(text: str, grammar: dict[str, _Rule], skip=()):
    """``(n, {key: matrix})`` for an edge-list text of the plain shape,
    read column-wise, ``_CHUNK`` characters at a time; ``None`` for any
    other text, which :func:`_lines` then reads line by line.

    Plain means: ASCII, lines broken by "\\n" alone, comments only at the
    start of a line, and every other line empty, a ``skip`` key followed by
    a space, ``n`` (first and once, 1..MAX_NODES) or a key of ``grammar``
    followed by a space and exactly its field count. Participants are
    canonical ``v<k>`` labels or indices in range, no pair joins a
    participant to itself or comes twice, and weights (a third field) are
    finite and positive. Such a text parses through :func:`_lines` without
    error to the same values, so this never raises. A key's lines are
    joined into one token list and field f of every line read as the
    strided slice ``tokens[f::arity]``: a line of the wrong width shifts a
    later key word off the stride, where it is read as a participant or a
    weight and refused. A pair key's matrix is boolean, symmetric for
    ``competing``; a weighted key's holds its weights.
    """
    if not text.isascii() or any(c in text for c in _BREAKS):
        return None
    skip = ("#", *(f"{key} " for key in skip))  # comment lines and skipped keys
    n, node, columns = None, {}, {key: [] for key in grammar}  # columns: one list per chunk
    begin = 0
    while begin < len(text):
        end = text.find("\n", begin + _CHUNK)
        end = len(text) if end < 0 else end
        lines = [line for line in text[begin:end].split("\n") if line and not line.startswith(skip)]
        begin = end + 1
        if n is None and lines:  # the first content line must declare n
            head = lines.pop(0).split()
            try:
                n = int(head[1]) if len(head) == 2 and head[0] == "n" else 0
            except ValueError:
                return None
            if not 1 <= n <= MAX_NODES:
                return None
            node = {f"v{k + 1}": k for k in range(n)} | {str(k): k for k in range(n)}
        read = 0  # lines of a grammar key; any other line (a second n) is not plain
        for key, rule in grammar.items():
            picked = [line for line in lines if line.startswith(key + " ")]
            read += len(picked)
            arity = len(rule.fixed) + 1
            tokens = " ".join(picked).split()
            if len(tokens) != arity * len(picked):
                return None
            fields = [np.fromiter(map(node.get, tokens[f::arity], itertools.repeat(-1)),
                                  np.intp, len(picked)) for f in (1, 2)]
            if arity == 4:
                try:
                    fields.append(np.fromiter(map(float, tokens[3::arity]), np.float64,
                                              len(picked)))
                except ValueError:
                    return None
            columns[key].append(fields)
        if read != len(lines):
            return None
    if n is None:
        return None
    matrices = {}
    for key, chunks in columns.items():
        j, i, *w = map(np.concatenate, zip(*chunks))
        if (j < 0).any() or (i < 0).any() or (j == i).any():
            return None
        if w and not ((w[0] > 0) & (w[0] < np.inf)).all():
            return None
        matrix = np.zeros((n, n), dtype=np.float64 if w else bool)
        matrix[j, i] = w[0] if w else True
        cells = j.size
        if key == "competing":  # an unordered pair: either order repeats it
            matrix[i, j], cells = True, 2 * j.size
        if np.count_nonzero(matrix) != cells:  # a repeated pair fills one cell twice
            return None
        matrices[key] = matrix
    return n, matrices


# ---------------------------------------------------------------------------
# checks and keys shared by several kinds


def _add_competing(pairs: dict, line: _Line) -> None:
    a, b = line.values
    if a == b:
        raise line.error("self-competition is not allowed", 2)
    pair = (min(a, b), max(a, b))
    if pair in pairs:
        raise line.error(f"duplicate competing edge ({node_label(pair[0])}, "
                         f"{node_label(pair[1])})")
    pairs[pair] = True


def _add_benefit(weights: dict, line: _Line) -> None:
    j, i, w = line.values
    if j == i:
        raise line.error("self-benefit edges are not allowed", 2)
    if w <= 0:
        raise line.error("benefit weight must be positive", 3)
    if (j, i) in weights:
        raise line.error(f"duplicate benefit edge ({node_label(j)}, {node_label(i)})")
    weights[j, i] = w


def _add_edge(edges: dict, line: _Line, repeat: str = "edge {} already present") -> None:
    j, i = line.values
    pair = f"({node_label(j)}, {node_label(i)})"
    if j == i:
        raise line.error(f"self-edge {pair} is not a collaboration")
    if (j, i) in edges:
        raise line.error(repeat.format(pair))
    edges[j, i] = line


def _add_group(members: set[int], line: _Line) -> None:
    """Check that a 'cover' or 'coalition' line is a new, nonempty group."""
    if not line.values:
        raise line.error(f"'{line.key}' needs at least one participant")
    for k, i in enumerate(line.values, start=1):
        if i in members:
            raise line.error(f"participant {node_label(i)} is in two '{line.key}' groups", k)
        members.add(i)


def _check_sizes(last: dict[str, _Line], prefix: str = "") -> None:
    """Refuse the latest '<prefix>samples' line of ``last`` if it has no
    counts or more than MAX_SAMPLES in all, and the latest '<prefix>degree'
    if above MAX_DEGREE; earlier lines of either key do not count."""
    samples, degree = last.get(prefix + "samples"), last.get(prefix + "degree")
    if samples is not None and not samples.values:
        raise samples.error(f"'{samples.key}' needs one count per participant")
    if samples is not None and sum(samples.values) > MAX_SAMPLES:
        raise InvalidInstanceError(f"line {samples.no}: {sum(samples.values)} samples exceed "
                                   f"the limit of {MAX_SAMPLES}")
    if degree is not None and degree.values[0] > MAX_DEGREE:
        raise InvalidInstanceError(f"line {degree.no}: degree {degree.values[0]} exceeds the "
                                   f"limit of {MAX_DEGREE}")


def check_training_work(rounds: int, local_epochs: int, reps: int, samples) -> None:
    """Raise InvalidInstanceError when a job exceeds MAX_TRAINING_WORK."""
    work = rounds * local_epochs * reps * sum(samples)
    if work > MAX_TRAINING_WORK:
        raise InvalidInstanceError(
            f"training {rounds} rounds x {local_epochs} local epochs x {reps} reps over "
            f"{sum(samples)} samples is {work} sample-epochs, above the limit of "
            f"{MAX_TRAINING_WORK}")


def _scalar_keys(cls, prefix: str = "", omit=()) -> dict[str, tuple[str, type]]:
    """File key -> (field name, int or float) for the defaulted fields of ``cls``."""
    return {prefix + f.name: (f.name, type(f.default)) for f in dataclasses.fields(cls)
            if f.default is not dataclasses.MISSING and f.name not in omit}


def _scalar_rules(keys: dict) -> dict:
    return {key: ("<value>", (_int(key) if kind is int else _float(key),))
            for key, (_, kind) in keys.items()}


def _last(last: dict[str, _Line], key: str, default=None):
    """The first field of the latest ``key`` line in ``last``, or ``default``."""
    return last[key].values[0] if key in last else default


def _scalars(last: dict[str, _Line], keys: dict) -> dict:
    """Field name -> value for the keys of ``keys`` that have a line in ``last``."""
    return {name: last[key].values[0] for key, (name, _) in keys.items() if key in last}


def _scalar_lines(obj, keys: dict) -> list[str]:
    return [f"{key} {getattr(obj, name)!r}" if kind is float else f"{key} {getattr(obj, name)}"
            for key, (name, kind) in keys.items()]


_COMPETING = ("<a> <b>", (_node, _node))
_BENEFIT = ("<from> <to> <weight>", (_node, _node, _float("benefit weight")))
_REPS = ("<count>", (_int("reps", 1),))

_CONFIG_SYNTH = _scalar_keys(SyntheticConfig)
_CONFIG_TRAIN = _scalar_keys(TrainConfig)
_REPORT_SYNTH = _scalar_keys(SyntheticConfig, "config_", omit=("seed",))  # seed has its own line
_REPORT_TRAIN = _scalar_keys(TrainConfig, "train_")


# ---------------------------------------------------------------------------
# edge and group lists: one reader body, one matrix builder, two line writers


def _matrix(n: int, cells: dict, key: str = "benefit") -> np.ndarray:
    """The n x n matrix of ``cells`` ({(j, i): value}): float64 weights for
    'benefit', True at each pair for a pair key, mirrored for 'competing'."""
    matrix = np.zeros((n, n), dtype=np.float64 if key == "benefit" else bool)
    if cells:
        j, i = zip(*cells)
        matrix[j, i] = list(cells.values()) if key == "benefit" else True
        if key == "competing":
            matrix[i, j] = True
    return matrix


_CHECKS = {"competing": _add_competing, "benefit": _add_benefit, "edge": _add_edge}


def _edge_lists(text: str, kind: str, grammar: dict[str, _Rule], skip=(),
                expected_n: int | None = None) -> tuple[int, dict[str, np.ndarray]]:
    """``(n, {key: matrix})`` of an edge-list file: :func:`_plain`'s result
    if it reads the text, else the checked loop's, each line checked by its
    key's ``_CHECKS`` entry; an 'n' other than ``expected_n`` is refused."""
    plain = _plain(text, grammar, skip)
    if plain is not None and expected_n in (None, plain[0]):
        return plain
    cells: dict[str, dict] = {key: {} for key in grammar}
    for line in _lines(text, kind, grammar, skip):
        if line.key == "n":
            n = line.values[0]
            if expected_n not in (None, n):
                raise line.error(f"usage graph has n={n} but the instance has n={expected_n}", 1)
        else:
            _CHECKS[line.key](cells[line.key], line)
    return n, {key: _matrix(n, found, key) for key, found in cells.items()}


def _labels(n: int) -> np.ndarray:
    return np.array([node_label(i) for i in range(n)], dtype=object)


def _edge_lines(key: str, matrix: np.ndarray, label: np.ndarray) -> list[str]:
    """A '<key> <j> <i>' line per nonzero cell (j, i) of ``matrix``, row by
    row, each ending in the weight's repr when ``matrix`` is not boolean."""
    js, is_ = np.nonzero(matrix)
    pairs = zip(label[js].tolist(), label[is_].tolist())
    if matrix.dtype == bool:
        return [f"{key} {j} {i}" for j, i in pairs]
    return [f"{key} {j} {i} {w!r}" for (j, i), w in zip(pairs, matrix[js, is_].tolist())]


def _group_lines(cover: Partition, coalitions: Partition) -> list[str]:
    """The 'cover_mode' line, then a 'cover' or 'coalition' line per group."""
    return [f"cover_mode {cover.mode}",
            *("cover " + " ".join(map(node_label, group)) for group in cover.groups),
            *("coalition " + " ".join(map(node_label, group)) for group in coalitions.groups)]


# ---------------------------------------------------------------------------
# instances

_INSTANCE = _grammar({"competing": _COMPETING, "benefit": _BENEFIT})


def parse_instance(text: str) -> Instance:
    n, matrices = _edge_lists(text, "instance", _INSTANCE)
    return Instance(n, matrices["competing"], matrices["benefit"])


def serialize_instance(instance: Instance) -> str:
    label = _labels(instance.n)
    lines = ["# problem instance: competition edges and benefit weights", f"n {instance.n}",
             *_edge_lines("competing", np.triu(instance.competing), label),
             *_edge_lines("benefit", instance.benefit, label)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# usage graphs (also accepts full selection reports; extra keys are skipped)

_SELECTION_KEYS = {"potential", "order", "closure", "step", "decision"}
_USAGE = _grammar({"edge": ("<from> <to>", (_node, _node))})


def parse_usage(text: str, expected_n: int | None = None) -> UsageGraph:
    """The usage graph of the ``edge`` lines: the edge matrix's ``argwhere``
    array goes straight to :meth:`UsageGraph.from_edges`, which rebuilds the
    closure once; ``closure`` lines are never read."""
    n, matrices = _edge_lists(text, "usage-graph", _USAGE, _SELECTION_KEYS, expected_n)
    return UsageGraph.from_edges(n, np.argwhere(matrices["edge"]))


def serialize_usage(usage: UsageGraph) -> str:
    lines = ["# data-usage graph: 'edge j i' authorizes i to use j's updates",
             f"n {usage.n}", *_edge_lines("edge", usage.x, _labels(usage.n))]
    return "\n".join(lines) + "\n"


def serialize_selection(instance: Instance, usage: UsageGraph,
                        trace: SelectionTrace) -> str:
    """Full selection result: usage edges, closure, potentials, decisions."""
    label = _labels(instance.n)
    lines = ["# collaborator selection result", f"n {instance.n}"]
    for name, pot in zip(label.tolist(), potentials(instance).tolist()):
        lines.append(f"potential {name} {pot!r}")
    lines.append("order " + " ".join(label[list(trace.order)].tolist()))
    lines += _edge_lines("edge", usage.x, label)
    lines += _edge_lines("closure", usage.closure & ~np.eye(usage.n, dtype=bool), label)
    for step in trace.steps:
        who = label[step.participant]
        lines.append(f"step {who} objective {step.objective!r}")
        weights = instance.benefit[step.candidates, step.participant]
        for j, w, ok, upstream, downstream in zip(label[step.candidates].tolist(),
                                                  weights.tolist(), step.verdicts.tolist(),
                                                  *step.guards(label)):
            lines.append(f"decision {who} {j} {w!r} {'accept' if ok else 'reject'} "
                         f"{','.join(upstream) or '-'} {','.join(downstream) or '-'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benefit matrices

_BENEFIT_FILE = _grammar({"benefit": _BENEFIT})


def parse_benefit(text: str) -> np.ndarray:
    return _edge_lists(text, "benefit", _BENEFIT_FILE)[1]["benefit"]


# ---------------------------------------------------------------------------
# simulation configs

_SIM_CONFIG = _grammar({
    "samples": ("<count> ...", (_int("sample count"), ...)),
    "flipped": ("<participant|none> ...", (_word, ...)),  # read once n is final
    "competing": _COMPETING,
    "reps": _REPS,
    **_scalar_rules(_CONFIG_SYNTH), **_scalar_rules(_CONFIG_TRAIN),
})


def parse_sim_config(text: str):
    """Parse a simulation config file.

    Returns (SyntheticConfig, competing_edges, TrainConfig, reps|None);
    the training keys and reps are optional and fall back to defaults.
    """
    last: dict[str, _Line] = {}  # the latest line of each key but 'competing'
    competing: dict = {}
    for line in _lines(text, "config", _SIM_CONFIG):
        if line.key == "competing":
            _add_competing(competing, line)
        else:
            last[line.key] = line
    _check_sizes(last)
    if "samples" not in last:
        raise FileFormatError("config file declares no 'samples'", 1, 1)
    n = last["n"].values[0]
    flipped = [False] * n
    flips = last.get("flipped")
    for k, token in enumerate(flips.values if flips else (), start=1):
        if token != "none":
            try:
                flipped[_node(token, n)] = True
            except ValueError as exc:
                raise flips.error(str(exc), k) from None
    try:
        config = SyntheticConfig(n=n, samples=tuple(last["samples"].values),
                                 flipped=tuple(flipped), **_scalars(last, _CONFIG_SYNTH))
        train_config = TrainConfig(**_scalars(last, _CONFIG_TRAIN))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return config, tuple(competing), train_config, _last(last, "reps")


def serialize_sim_config(config: SyntheticConfig, competing_edges,
                         train_config: TrainConfig | None = None,
                         reps: int | None = None) -> str:
    lines = ["# synthetic simulation config", f"n {config.n}",
             *_scalar_lines(config, _CONFIG_SYNTH),
             "samples " + " ".join(str(m) for m in config.samples)]
    flips = [node_label(i) for i, f in enumerate(config.flipped) if f]
    if flips:
        lines.append("flipped " + " ".join(flips))
    competing = np.triu(competing_matrix(config.n, competing_edges))
    lines += _edge_lines("competing", competing, _labels(config.n))
    if train_config is not None:
        lines += _scalar_lines(train_config, _CONFIG_TRAIN)
    if reps is not None:
        lines.append(f"reps {reps}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# partitions


def serialize_partitions(cover: Partition, coalitions: Partition, n: int) -> str:
    lines = ["# baseline groupings", f"n {n}", *_group_lines(cover, coalitions)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment reports


def serialize_report(report: ExperimentReport) -> str:
    cfg, tc = report.config, report.train_config
    lines = ["# experiment report", f"n {cfg.n}",
             "methods " + " ".join(report.methods),
             f"reps {report.reps}", f"seed {cfg.seed}"]
    if report.preset is not None:
        lines.append(f"preset {report.preset}")
    lines.append(f"aggregation {report.aggregation}")
    lines += _scalar_lines(cfg, _REPORT_SYNTH)
    lines += ["config_samples " + " ".join(str(m) for m in cfg.samples),
              "config_flipped " + (" ".join(node_label(i) for i, f in enumerate(cfg.flipped) if f)
                                   or "-")]
    lines += _scalar_lines(tc, _REPORT_TRAIN)
    lines += _group_lines(report.clique_cover, report.coalitions)
    lines += [f"usage_edge {node_label(j)} {node_label(i)}" for j, i in report.usage_edges]
    lines += _edge_lines("benefit", report.benefit, _labels(cfg.n))
    lines += [f"mse {m} {node_label(i)} {report.mean[m][i]!r} {report.std[m][i]!r}"
              for m in report.methods for i in range(cfg.n)]
    return "\n".join(lines) + "\n"


_REPORT = _grammar({
    "methods": ("<method> ...", (_choice("method", METHODS), ...)),
    "reps": _REPS,
    "seed": ("<value>", (_int("seed"),)),
    "preset": ("<name>", (_word,)),
    "aggregation": ("<word> ...", (_word, ...)),
    **_scalar_rules(_REPORT_SYNTH),
    "config_samples": ("<count> ...", (_int("sample count"), ...)),
    "config_flipped": ("<participant> ... | -", (_node, ...), "-"),
    **_scalar_rules(_REPORT_TRAIN),
    "cover_mode": ("<exact|greedy>", (_choice("cover_mode", ("exact", "greedy")),)),
    "cover": ("<participant> ...", (_node, ...)),
    "coalition": ("<participant> ...", (_node, ...)),
    "usage_edge": ("<from> <to>", (_node, _node)),
    "benefit": _BENEFIT,
    "mse": ("<method> <participant> <mean> <std>",
            (_word, _node, _float("mse mean"), _float("mse std"))),
})


def parse_report(text: str) -> ExperimentReport:
    last: dict[str, _Line] = {}  # the latest line of each key
    lists: dict[str, list] = {"cover": [], "coalition": []}
    placed: dict[str, set[int]] = {"cover": set(), "coalition": set()}
    usage_edges: dict[tuple[int, int], _Line] = {}
    weights: dict = {}
    mse: dict[tuple[str, int], _Line] = {}
    for line in _lines(text, "report", _REPORT):
        key, values = line.key, line.values
        last[key] = line
        if key in lists:
            _add_group(placed[key], line)
            lists[key].append(tuple(values))
        elif key == "usage_edge":
            _add_edge(usage_edges, line, "duplicate usage edge {}")
        elif key == "benefit":
            _add_benefit(weights, line)
        elif key == "mse":
            if (values[0], values[1]) in mse:
                raise line.error(f"duplicate mse row ({values[0]}, {node_label(values[1])})")
            mse[values[0], values[1]] = line
        elif key == "methods":
            if not values:
                raise line.error("'methods' needs at least one method")
            for k, method in enumerate(values):
                if method in values[:k]:
                    raise line.error(f"duplicate method {method!r}", k + 1)

    _check_sizes(last, "config_")
    for key in ("methods", "config_samples"):
        if key not in last:
            raise FileFormatError(f"report file declares no '{key}'", 1, 1)
    n, methods = last["n"].values[0], tuple(last["methods"].values)
    for (method, _), line in mse.items():
        if method not in methods:
            raise line.error(f"mse row for method {method!r}, which 'methods' does not list", 1)
    for method in methods:
        if not all((method, i) in mse for i in range(n)):
            raise FileFormatError(f"report is missing mse rows for method {method!r}", 1, 1)
    if "cover_mode" not in last:
        raise FileFormatError("report file declares no 'cover_mode'", 1, 1)
    for key, members in placed.items():
        if members and len(members) < n:
            left_out = min(set(range(n)) - members)
            raise last[key].error(f"the '{key}' groups leave out participant "
                                  f"{node_label(left_out)}")
    for (j, i), line in usage_edges.items():  # benefit lines may follow the edge
        if (j, i) not in weights:
            raise line.error(f"usage edge ({node_label(j)}, {node_label(i)}) has no "
                             f"positive benefit line")

    seed, cover_mode = _last(last, "seed", 0), _last(last, "cover_mode")
    flipped_idx = last["config_flipped"].values if "config_flipped" in last else []
    try:
        config = SyntheticConfig(n=n, samples=tuple(last["config_samples"].values),
                                 flipped=tuple(i in flipped_idx for i in range(n)), seed=seed,
                                 **_scalars(last, _REPORT_SYNTH))
        train_config = TrainConfig(**_scalars(last, _REPORT_TRAIN))
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return ExperimentReport(
        methods=methods, reps=_last(last, "reps", 1),
        mean={m: tuple(mse[m, i].values[2] for i in range(n)) for m in methods},
        std={m: tuple(mse[m, i].values[3] for i in range(n)) for m in methods},
        config=config, train_config=train_config, preset=_last(last, "preset"),
        clique_cover=Partition(tuple(lists["cover"]), "clique_cover", cover_mode),
        coalitions=Partition(tuple(lists["coalition"]), "scc_coalitions", cover_mode),
        usage_edges=tuple(usage_edges), benefit=_matrix(n, weights),
        aggregation=" ".join(last["aggregation"].values) if "aggregation" in last else "",
    )


def report_to_csv(report: ExperimentReport) -> str:
    """Metric table: rows are participants, columns methods, cells mean±std."""
    lines = ["participant," + ",".join(report.methods)]
    for i in range(report.config.n):
        cells = [f"{report.mean[m][i]:.4g}±{report.std[m][i]:.4g}" for m in report.methods]
        lines.append(f"{node_label(i)}," + ",".join(cells))
    return "\n".join(lines) + "\n"
