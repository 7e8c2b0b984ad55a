"""Structured-text dialect for instances, usage graphs, configs and reports.

One line-oriented format everywhere: ``#`` starts a comment, blank lines
are ignored, and each remaining line is a keyword followed by
whitespace-separated fields. Participants may be written either as
1-based labels ``v1``..``vn`` or as bare 0-based indices, in ASCII digits;
labels are the canonical output form. Each file kind has a grammar table
(keyword -> usage and field parsers) read by one checked loop,
:func:`_lines`, which words every diagnostic as a :class:`FileFormatError`
with line and column positions. A pair list is held only as its n x n
matrix, allocated at the ``n`` line, and leaves the reader as that matrix:
a usage graph is built from it (:meth:`UsageGraph.from_edges`) and a
report keeps its usage edges in it. The edge-list kinds (instance, usage
and benefit files) have one reader body, :func:`_edge_lists`:
:func:`_plain` reads a plain text in bulk (line ends "\\n" or "\\r\\n",
non-ASCII text only in comments), its lines classified by key in numpy
and each key's columns written into the matrices at once, and any other
text takes the loop, where :func:`_add_pair` checks each pair line and
sets its cell, as in configs and reports. Integer fields are an optional
``-`` and ASCII digits in both readers. Writers
share :func:`_edge_lines` for ``<key> <label> <label>[ <weight>]`` lines
and :func:`_group_lines` for the cover and coalition groups. The scalar
keys of configs and reports are the defaulted fields of
:class:`SyntheticConfig` and :class:`TrainConfig`, for parser and
serializer alike.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import re
from typing import Callable, NamedTuple

import numpy as np

from .fedtrain import MAX_SAMPLES, METHODS, ExperimentReport, TrainConfig
from .graphs import Instance, InvalidInstanceError, UsageGraph, potentials
from .partition import Partition
from .selection import SelectionTrace
from .synthdata import SyntheticConfig, competing_matrix

_TOKEN = re.compile(r"\S+")

MAX_NODES = 4096
"""Largest participant count an input file may declare (exit code 3 above).

Instance, benefit and report files become dense n x n float64 matrices,
128 MiB each at this bound, and selection keeps three n x n boolean
matrices besides (16 MiB each): the competition, the edges and their
closure. A larger count is refused before anything is allocated. The
selection trace holds 9 bytes per decision (the candidate and its
verdict) and 16 more per reject (its reason, two node indices), so it
grows with the benefit support, at most n x (n - 1) decisions, and not
with the paths of the closure. Parsing an instance file at this bound
(8.8 million lines, 333 MB) peaked at 665 MB by ``ru_maxrss``, which
reading its text had already reached (2-vCPU machine).
"""

MAX_DEGREE = 10
"""Largest polynomial degree a config or report file may declare (exit
code 3 above). Each sample's features are ``degree`` float64 values, 80
bytes at this bound, so one copy of the feature matrix of ``MAX_SAMPLES``
samples takes 800 MB; a larger degree is refused before any data is
generated. ``simulate`` holds under 2 such copies at its peak: the
train and validation rows of the repetitions it trains together, and
one size group's shuffled training rows for an epoch. Measured by
``ru_maxrss`` with two participants of 1,000,000 samples at degree 10
(one round, one repetition, ``local`` only), the peak was 442 MB, 30 MB
of it the interpreter and imports; drawing the task alone peaked at
256 MB, each participant's two splits being its feature matrix reordered
in place. Extrapolated linearly, not run: about 2.1 GB at ``MAX_SAMPLES``
samples and this degree.
"""

MAX_TRAINING_WORK = 1_000_000_000
"""Largest training job ``simulate`` runs (exit code 3 above), counted as
rounds x local_epochs x reps x the total sample count. Both presets at
``--reps 10`` count 1.7 and 3.2 million. On one core of a 2-vCPU
machine, all four methods together train them at 0.10-0.14 microseconds
per unit, the ten repetitions stacked in one loop call, and six
participants of 50-1600 samples at 100 rounds and ``--reps 10`` at
0.10-0.18. One participant of 1,000,000 samples at one repetition stacks
nothing and took 1.3 microseconds per unit, its benefit estimate
included. So the bound is about 2-20 minutes of training, and a job
that would take hours is refused before it starts.
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


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(token: str) -> int:
    """The value of an integer field: an optional '-', then ASCII digits."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(token)
    return int(token)


def _int(what: str, least: int | None = None):
    def parse(token: str, n) -> int:
        try:
            value = _integer(token)
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


def _node_or_none(token: str, n: int) -> int | None:
    return None if token == "none" else _node(token, n)


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
                           empty[0] if empty else None,
                           not {_node, _node_or_none}.isdisjoint(fields))
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
            raise line.error("'n' must be declared before any line that names a participant")
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
# as _lines cuts a line at its first '#': a comment ends at any str.splitlines break
_COMMENT = re.compile("#[^\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029]*")
_INDENT = re.compile(r"^ +", re.MULTILINE)  # as _lines drops the spaces before a key
_CHUNK = 1 << 16  # characters read at a time: only one chunk's tokens are held at once


@functools.cache
def _prefix(word: str) -> tuple[tuple[np.uint64, np.uint64], ...]:
    """``(mask, value)`` per little-endian uint64 word of a line's first 16
    bytes: every word equals its value under its mask exactly when the line
    starts with ``word`` (at most 16 ASCII characters, no newline). The
    second word is left out when ``word`` fits in the first."""
    raw = word.encode("ascii")
    assert len(raw) <= 16 and b"\n" not in raw
    masks, values = (np.frombuffer(b.ljust(16, b"\0"), "<u8") for b in (b"\xff" * len(raw), raw))
    return tuple(zip(masks, values))[:1 + (len(raw) > 8)]


def _starting(heads: tuple[np.ndarray, np.ndarray], prefix) -> np.ndarray:
    """Which lines start with a :func:`_prefix`, given each line's first and
    second uint64 word as ``heads``."""
    hit = True
    for head, (mask, value) in zip(heads, prefix):
        hit = hit & ((head & mask) == value)
    return hit


def _plain(text: str, grammar: dict[str, _Rule], skip=()):
    """``(n, {key: matrix})`` for an edge-list text of the plain shape,
    read ``_CHUNK`` characters at a time; ``None`` for any other text,
    which :func:`_lines` then reads line by line.

    Plain means: lines broken by "\\n" or "\\r\\n" and by no other break of
    ``str.splitlines`` (not even inside a comment, which :func:`_lines`
    would end there), ASCII outside comments, and every line, once its
    comment is cut, its tabs read as spaces and its leading spaces
    dropped, empty, a ``skip`` key followed by a space, ``n`` (first and
    once, 1..MAX_NODES in ASCII digits) or a key of ``grammar`` followed by
    a space and exactly its field count. Participants are canonical
    ``v<k>`` labels or indices in range, no pair joins a participant to
    itself or comes twice, and weights (a third field) are finite and
    positive. Such a text parses through :func:`_lines` without error to
    the same values, so this never raises.

    No Python string is made per line. A chunk ends after a "\\n", so no
    "\\r\\n" is split; its "\\r\\n" are read as "\\n", comments are cut, and
    the tabs and indents of a chunk that has any are normalised, over the
    whole chunk at once; each chunk is then classified in numpy: a line's
    first 16 bytes, read as two uint64 words, are matched against each
    skip and grammar prefix (:func:`_starting`). Only the ``n`` line and
    the runs of consecutive lines of one grammar key are sliced out and
    split. A key's tokens are read column-wise, field f of every line as
    the strided slice ``tokens[f::arity]``: a line of the wrong width
    shifts a later key word off the stride, where it is read as a
    participant or a weight and refused. Checked columns go into the
    matrices a chunk at once; a repeated pair sets a cell twice, leaving
    fewer nonzero cells than lines.
    """
    dropped = [_prefix(f"{key} ") for key in skip]
    prefixes = {key: _prefix(key + " ") for key in grammar}
    n, node, matrices, cells = None, {}, {}, dict.fromkeys(grammar, 0)  # cells set per key
    begin = 0
    while begin < len(text):
        end = text.find("\n", begin + _CHUNK) + 1 or len(text)
        chunk, begin = text[begin:end].replace("\r\n", "\n"), end
        chunk = _COMMENT.sub("", chunk) if "#" in chunk else chunk
        if not chunk.isascii() or any(c in chunk for c in _BREAKS):  # _COMMENT stops at a break
            return None
        if "\t" in chunk or "\n " in chunk or chunk.startswith(" "):  # as _lines splits
            chunk = _INDENT.sub("", chunk.replace("\t", " "))
        # line k of the chunk is chunk[starts[k]:ends[k]]; the padding gives
        # every line 16 bytes to read, and words[k] is the 8 bytes at data[k]
        data = b"\n" + chunk.encode("ascii") + b"\n" + bytes(16)
        breaks = np.flatnonzero(np.frombuffer(data, np.uint8) == 10)
        starts, ends = breaks[:-1], breaks[1:] - 1
        words = np.ndarray(len(data) - 7, "<u8", data, strides=(1,))
        heads = words[starts + 1], words[starts + 9]
        content = ends > starts
        for prefix in dropped:
            content &= ~_starting(heads, prefix)
        if n is None and content.any():  # the first content line must declare n
            first = content.argmax()
            content[first] = False
            head = chunk[starts[first]:ends[first]].split()
            try:
                n = _integer(head[1]) if len(head) == 2 and head[0] == "n" else 0
            except ValueError:
                return None
            if not 1 <= n <= MAX_NODES:
                return None
            node = {f"v{k + 1}": k for k in range(n)} | {str(k): k for k in range(n)}
            matrices = _zeros(n, grammar)
        read = 0  # lines of a grammar key; any other line (a second n) is not plain
        for key, rule in grammar.items():
            picked = _starting(heads, prefixes[key])
            count = np.count_nonzero(picked)
            if not count:  # as for every key of a chunk before the n line: no matrix yet
                continue
            read += count
            padded = np.concatenate(([False], picked, [False]))
            runs = np.flatnonzero(padded[1:] != padded[:-1]).reshape(-1, 2)  # [first, last + 1)
            tokens = " ".join([chunk[a:b] for a, b in zip(starts[runs[:, 0]].tolist(),
                                                          ends[runs[:, 1] - 1].tolist())]).split()
            arity = len(rule.fixed) + 1
            if len(tokens) != arity * count:
                return None
            j, i = (np.fromiter(map(node.get, tokens[f::arity], itertools.repeat(-1)),
                                np.intp, count) for f in (1, 2))
            if (j < 0).any() or (i < 0).any() or (j == i).any():
                return None
            value = True
            if arity == 4:  # the weights
                try:
                    value = np.fromiter(map(float, tokens[3::arity]), np.float64, count)
                except ValueError:
                    return None
                if not ((value > 0) & (value < np.inf)).all():
                    return None
            matrices[key][j, i] = value
            if key == "competing":  # an unordered pair: either order repeats it
                matrices[key][i, j], count = True, 2 * count
            cells[key] += count
        if read != np.count_nonzero(content):
            return None
    # a repeated pair sets one cell twice
    if n is None or any(np.count_nonzero(matrices[key]) != cells[key] for key in grammar):
        return None
    return n, matrices


# ---------------------------------------------------------------------------
# checks and keys shared by several kinds


# pair key -> (message for a self pair, the token it points at, message for
# a repeat); "{}" stands for the pair "(v<j>, v<i>)"
_PAIRS = {
    "competing": ("self-competition is not allowed", 2, "duplicate competing edge {}"),
    "benefit": ("self-benefit edges are not allowed", 2, "duplicate benefit edge {}"),
    "edge": ("self-edge {} is not a collaboration", 0, "edge {} already present"),
    "usage_edge": ("self-edge {} is not a collaboration", 0, "duplicate usage edge {}"),
}


def _zeros(n: int, keys) -> dict[str, np.ndarray]:
    """An empty n x n matrix per pair key: float64 for 'benefit', else boolean."""
    return {key: np.zeros((n, n), dtype=np.float64 if key == "benefit" else bool)
            for key in keys}


def _add_pair(matrix: np.ndarray, line: _Line) -> None:
    """Check a pair line and set its cell of ``matrix``: the weight for
    'benefit', both cells for 'competing', so either order repeats it."""
    j, i, *weight = line.values
    if line.key == "competing":
        j, i = min(j, i), max(j, i)
    self_pair, col, repeat = _PAIRS[line.key]
    pair = f"({node_label(j)}, {node_label(i)})"
    if j == i:
        raise line.error(self_pair.format(pair), col)
    if weight and weight[0] <= 0:
        raise line.error("benefit weight must be positive", 3)
    if matrix[j, i]:
        raise line.error(repeat.format(pair))
    matrix[j, i] = weight[0] if weight else True
    if line.key == "competing":
        matrix[i, j] = True


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
# edge and group lists: one reader body, two line writers


# per kind: what its 'n' line counts, and what the caller's expected n came from
_EXPECTED_N = {"usage-graph": ("usage graph", "instance"), "benefit": ("benefit matrix", "config")}


def _edge_lists(text: str, kind: str, grammar: dict[str, _Rule], skip=(),
                expected_n: int | None = None) -> tuple[int, dict[str, np.ndarray]]:
    """``(n, {key: matrix})`` of an edge-list file: :func:`_plain`'s result
    if it reads the text, else the checked loop's, each pair line written
    by :func:`_add_pair`; an 'n' other than ``expected_n`` is refused."""
    plain = _plain(text, grammar, skip)
    if plain is not None and expected_n in (None, plain[0]):
        return plain
    for line in _lines(text, kind, grammar, skip):
        if line.key != "n":
            _add_pair(matrices[line.key], line)
            continue
        n = line.values[0]
        if expected_n not in (None, n):
            what, whose = _EXPECTED_N[kind]
            raise line.error(f"{what} has n={n} but the {whose} has n={expected_n}", 1)
        matrices = _zeros(n, grammar)
    return n, matrices


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
    """The usage graph of the ``edge`` lines: their matrix goes straight to
    :meth:`UsageGraph.from_edges`, which rebuilds the closure once;
    ``closure`` lines are never read."""
    matrices = _edge_lists(text, "usage-graph", _USAGE, _SELECTION_KEYS, expected_n)[1]
    return UsageGraph.from_edges(matrices["edge"])


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
        reasons = iter((label[step.rivals] + " " + label[step.descendants]).tolist())
        weights = instance.benefit[step.candidates, step.participant]
        lines += [f"decision {who} {j} {w!r} accept" if ok else
                  f"decision {who} {j} {w!r} reject {next(reasons)}"
                  for j, w, ok in zip(label[step.candidates].tolist(), weights.tolist(),
                                      step.verdicts.tolist())]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benefit matrices

_BENEFIT_FILE = _grammar({"benefit": _BENEFIT})


def parse_benefit(text: str, expected_n: int | None = None) -> np.ndarray:
    return _edge_lists(text, "benefit", _BENEFIT_FILE, expected_n=expected_n)[1]["benefit"]


# ---------------------------------------------------------------------------
# simulation configs

_SIM_CONFIG = _grammar({
    "samples": ("<count> ...", (_int("sample count"), ...)),
    "flipped": ("<participant|none> ...", (_node_or_none, ...)),
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
    competing = []  # (smaller, larger) per 'competing' line, in file order
    for line in _lines(text, "config", _SIM_CONFIG):
        if line.key == "competing":
            _add_pair(matrices["competing"], line)
            competing.append((min(line.values), max(line.values)))
        else:
            last[line.key] = line
            if line.key == "n":
                matrices = _zeros(line.values[0], ("competing",))
    _check_sizes(last)
    if "samples" not in last:
        raise FileFormatError("config file declares no 'samples'", 1, 1)
    n = last["n"].values[0]
    flips = set(last["flipped"].values) if "flipped" in last else set()
    try:
        config = SyntheticConfig(n=n, samples=tuple(last["samples"].values),
                                 flipped=tuple(i in flips for i in range(n)),
                                 **_scalars(last, _CONFIG_SYNTH))
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
    label = _labels(cfg.n)
    lines += _edge_lines("usage_edge", report.usage, label)
    lines += _edge_lines("benefit", report.benefit, label)
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
    pairs: dict[str, np.ndarray] = {}  # 'usage_edge' and 'benefit', from the 'n' line on
    usage_lines: list[_Line] = []  # to word the support check
    mse: dict[tuple[str, int], _Line] = {}
    for line in _lines(text, "report", _REPORT):
        key, values = line.key, line.values
        last[key] = line
        if key == "n":
            pairs = _zeros(values[0], ("usage_edge", "benefit"))
        elif key in lists:
            _add_group(placed[key], line)
            lists[key].append(tuple(values))
        elif key in pairs:
            _add_pair(pairs[key], line)
            if key == "usage_edge":
                usage_lines.append(line)
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
    for line in usage_lines:  # benefit lines may follow the edge
        j, i = line.values
        if not pairs["benefit"][j, i]:
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
        usage=pairs["usage_edge"], benefit=pairs["benefit"],
        aggregation=" ".join(last["aggregation"].values) if "aggregation" in last else "",
    )


def report_to_csv(report: ExperimentReport) -> str:
    """Metric table: rows are participants, columns methods, cells mean±std."""
    lines = ["participant," + ",".join(report.methods)]
    for i in range(report.config.n):
        cells = [f"{report.mean[m][i]:.4g}±{report.std[m][i]:.4g}" for m in report.methods]
        lines.append(f"{node_label(i)}," + ",".join(cells))
    return "\n".join(lines) + "\n"
