"""Structured-text dialect for instances, usage graphs, configs and reports.

One line-oriented format everywhere: ``#`` starts a comment, blank lines
are ignored, and each remaining line is a keyword followed by
whitespace-separated fields. Participants may be written either as
1-based labels ``v1``..``vn`` or as bare 0-based indices; labels are the
canonical output form. Parse errors carry line and column positions.
"""

from __future__ import annotations

import re

import numpy as np

from .fedtrain import ExperimentReport, TrainConfig
from .graphs import Instance, InvalidInstanceError, UsageGraph
from .partition import Partition
from .selection import SelectionTrace
from .synthdata import SyntheticConfig

_TOKEN = re.compile(r"\S+")

MAX_NODES = 4096
"""Largest participant count an input file may declare (exit code 3 above).

Instance, benefit and report files become dense n x n float64 matrices,
128 MiB each at this bound, and selection keeps five n x n boolean
matrices besides; a larger count is refused before anything is allocated.
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


def _tokenize(text: str):
    """Yield (line_number, [(token, column), ...]) for content lines."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        tokens = [(m.group(0), m.start() + 1) for m in _TOKEN.finditer(body)]
        if tokens:
            yield line_no, tokens


def node_label(i: int) -> str:
    return f"v{i + 1}"


def _parse_node(token: str, line: int, col: int, n: int | None) -> int:
    if token[:1] in ("v", "V") and token[1:].isdigit():
        idx = int(token[1:]) - 1
        if idx < 0:
            raise FileFormatError(f"participant labels start at v1, got {token!r}", line, col)
    elif re.fullmatch(r"\d+", token):
        idx = int(token)
    else:
        raise FileFormatError(f"expected a participant (v<k> or index), got {token!r}", line, col)
    if n is not None and idx >= n:
        raise FileFormatError(f"participant {token!r} out of range for n={n}", line, col)
    return idx


def _parse_float(token: str, line: int, col: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise FileFormatError(f"expected a number for {what}, got {token!r}", line, col) from None
    if not np.isfinite(value):
        raise FileFormatError(f"{what} must be finite, got {token!r}", line, col)
    return value


def _parse_int(token: str, line: int, col: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise FileFormatError(f"expected an integer for {what}, got {token!r}", line, col) from None


def _expect(tokens, count: int, line: int, usage: str) -> None:
    if len(tokens) != count:
        raise FileFormatError(f"expected {usage}", line, tokens[min(count, len(tokens) - 1)][1])


def _parse_n(tokens, line: int) -> int:
    """The count of an 'n <count>' line, positive and at most MAX_NODES."""
    _expect(tokens, 2, line, "'n <count>'")
    n = _parse_int(tokens[1][0], line, tokens[1][1], "n")
    if n < 1:
        raise FileFormatError("n must be positive", line, tokens[1][1])
    if n > MAX_NODES:
        raise InvalidInstanceError(f"line {line}: n={n} exceeds the limit of "
                                   f"{MAX_NODES} participants")
    return n


def _need_n(n: int | None, line: int, col: int) -> int:
    if n is None:
        raise FileFormatError("'n' must be declared before any edges", line, col)
    return n


# ---------------------------------------------------------------------------
# instances


def parse_instance(text: str) -> Instance:
    n: int | None = None
    competing: list[tuple[int, int]] = []
    benefit: list[tuple[int, int, float]] = []
    seen_comp: set[tuple[int, int]] = set()
    seen_benefit: set[tuple[int, int]] = set()

    for line, tokens in _tokenize(text):
        key, col = tokens[0]
        if key == "n":
            if n is not None:
                raise FileFormatError("duplicate 'n' declaration", line, col)
            n = _parse_n(tokens, line)
        elif key == "competing":
            _expect(tokens, 3, line, "'competing <a> <b>'")
            nn = _need_n(n, line, col)
            a = _parse_node(tokens[1][0], line, tokens[1][1], nn)
            b = _parse_node(tokens[2][0], line, tokens[2][1], nn)
            if a == b:
                raise FileFormatError("self-competition is not allowed", line, tokens[2][1])
            pair = (min(a, b), max(a, b))
            if pair in seen_comp:
                raise FileFormatError(f"duplicate competing edge ({node_label(pair[0])}, "
                                      f"{node_label(pair[1])})", line, col)
            seen_comp.add(pair)
            competing.append(pair)
        elif key == "benefit":
            _expect(tokens, 4, line, "'benefit <from> <to> <weight>'")
            nn = _need_n(n, line, col)
            j = _parse_node(tokens[1][0], line, tokens[1][1], nn)
            i = _parse_node(tokens[2][0], line, tokens[2][1], nn)
            w = _parse_float(tokens[3][0], line, tokens[3][1], "benefit weight")
            if j == i:
                raise FileFormatError("self-benefit edges are not allowed", line, tokens[2][1])
            if w <= 0:
                raise FileFormatError("benefit weight must be positive", line, tokens[3][1])
            if (j, i) in seen_benefit:
                raise FileFormatError(f"duplicate benefit edge ({node_label(j)}, {node_label(i)})",
                                      line, col)
            seen_benefit.add((j, i))
            benefit.append((j, i, w))
        else:
            raise FileFormatError(f"unknown keyword {key!r} in instance file", line, col)

    if n is None:
        raise FileFormatError("instance file declares no 'n'", 1, 1)
    s = np.zeros((n, n), dtype=bool)
    for a, b in competing:
        s[a, b] = s[b, a] = True
    w_matrix = np.zeros((n, n))
    for j, i, w in benefit:
        w_matrix[j, i] = w
    return Instance(n, s, w_matrix)


def serialize_instance(instance: Instance) -> str:
    lines = ["# problem instance: competition edges and benefit weights",
             f"n {instance.n}"]
    a_idx, b_idx = np.nonzero(np.triu(instance.competing))
    for a, b in zip(a_idx.tolist(), b_idx.tolist()):
        lines.append(f"competing {node_label(a)} {node_label(b)}")
    j_idx, i_idx = np.nonzero(instance.benefit)
    for j, i in zip(j_idx.tolist(), i_idx.tolist()):
        lines.append(f"benefit {node_label(j)} {node_label(i)} {float(instance.benefit[j, i])!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# usage graphs (also accepts full selection reports; extra keys are skipped)

_SELECTION_KEYS = {"potential", "order", "closure", "step", "decision", "objective"}


def parse_usage(text: str, expected_n: int | None = None) -> UsageGraph:
    n: int | None = None
    usage: UsageGraph | None = None
    for line, tokens in _tokenize(text):
        key, col = tokens[0]
        if key == "n":
            if n is not None:
                raise FileFormatError("duplicate 'n' declaration", line, col)
            n = _parse_n(tokens, line)
            if expected_n is not None and n != expected_n:
                raise FileFormatError(f"usage graph has n={n} but the instance has "
                                      f"n={expected_n}", line, tokens[1][1])
            usage = UsageGraph(n)
        elif key == "edge":
            _expect(tokens, 3, line, "'edge <from> <to>'")
            nn = _need_n(n, line, col)
            assert usage is not None
            j = _parse_node(tokens[1][0], line, tokens[1][1], nn)
            i = _parse_node(tokens[2][0], line, tokens[2][1], nn)
            try:
                usage.add_edge(j, i)
            except ValueError as exc:
                raise FileFormatError(str(exc), line, col) from None
        elif key in _SELECTION_KEYS:
            continue
        else:
            raise FileFormatError(f"unknown keyword {key!r} in usage-graph file", line, col)
    if usage is None:
        raise FileFormatError("usage-graph file declares no 'n'", 1, 1)
    return usage


def serialize_usage(usage: UsageGraph) -> str:
    lines = ["# data-usage graph: 'edge j i' authorizes i to use j's updates",
             f"n {usage.n}"]
    for j, i in sorted(usage.edges()):
        lines.append(f"edge {node_label(j)} {node_label(i)}")
    return "\n".join(lines) + "\n"


def serialize_selection(instance: Instance, usage: UsageGraph,
                        trace: SelectionTrace) -> str:
    """Full selection result: usage edges, closure, potentials, decisions."""
    from .graphs import potentials

    pot = potentials(instance)
    lines = ["# collaborator selection result", f"n {instance.n}"]
    for i in range(instance.n):
        lines.append(f"potential {node_label(i)} {float(pot[i])!r}")
    lines.append("order " + " ".join(node_label(i) for i in trace.order))
    for j, i in sorted(usage.edges()):
        lines.append(f"edge {node_label(j)} {node_label(i)}")
    off_diag = usage.closure & ~np.eye(usage.n, dtype=bool)
    for j, i in zip(*(idx.tolist() for idx in np.nonzero(off_diag))):
        lines.append(f"closure {node_label(j)} {node_label(i)}")
    for step in trace.steps:
        lines.append(f"step {node_label(step.participant)} objective {step.objective!r}")
        for d in step.decisions:
            upstream = ",".join(node_label(k) for k in d.guard_upstream) or "-"
            downstream = ",".join(node_label(k) for k in d.guard_downstream) or "-"
            verdict = "accept" if d.accepted else "reject"
            lines.append(f"decision {node_label(step.participant)} {node_label(d.candidate)} "
                         f"{d.weight!r} {verdict} {upstream} {downstream}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# benefit matrices


def parse_benefit(text: str) -> np.ndarray:
    n: int | None = None
    matrix: np.ndarray | None = None
    for line, tokens in _tokenize(text):
        key, col = tokens[0]
        if key == "n":
            if n is not None:
                raise FileFormatError("duplicate 'n' declaration", line, col)
            n = _parse_n(tokens, line)
            matrix = np.zeros((n, n))
        elif key == "benefit":
            _expect(tokens, 4, line, "'benefit <from> <to> <weight>'")
            nn = _need_n(n, line, col)
            assert matrix is not None
            j = _parse_node(tokens[1][0], line, tokens[1][1], nn)
            i = _parse_node(tokens[2][0], line, tokens[2][1], nn)
            w = _parse_float(tokens[3][0], line, tokens[3][1], "benefit weight")
            if j == i:
                raise FileFormatError("self-benefit edges are not allowed", line, tokens[2][1])
            if w <= 0:
                raise FileFormatError("benefit weight must be positive", line, tokens[3][1])
            if matrix[j, i] != 0:
                raise FileFormatError(f"duplicate benefit edge ({node_label(j)}, {node_label(i)})",
                                      line, col)
            matrix[j, i] = w
        else:
            raise FileFormatError(f"unknown keyword {key!r} in benefit file", line, col)
    if matrix is None:
        raise FileFormatError("benefit file declares no 'n'", 1, 1)
    return matrix


# ---------------------------------------------------------------------------
# simulation configs

_CONFIG_TRAIN_KEYS = {
    "rounds": int, "local_epochs": int, "batch_size": int,
    "learning_rate": float, "benefit_threshold": float,
}


def parse_sim_config(text: str):
    """Parse a simulation config file.

    Returns (SyntheticConfig, competing_edges, TrainConfig, reps|None);
    the training keys and reps are optional and fall back to defaults.
    """
    n: int | None = None
    fields: dict = {}
    train_fields: dict = {}
    competing: list[tuple[int, int]] = []
    seen_comp: set[tuple[int, int]] = set()
    samples: tuple[int, ...] | None = None
    flipped_tokens: list[tuple[str, int, int]] | None = None
    reps: int | None = None

    for line, tokens in _tokenize(text):
        key, col = tokens[0]
        if key == "n":
            n = _parse_n(tokens, line)
        elif key == "samples":
            samples = tuple(_parse_int(t, line, c, "sample count") for t, c in tokens[1:])
            if not samples:
                raise FileFormatError("'samples' needs one count per participant", line, col)
        elif key == "flipped":
            flipped_tokens = [(t, line, c) for t, c in tokens[1:]]
        elif key in ("rho", "noise_std", "val_fraction"):
            _expect(tokens, 2, line, f"'{key} <value>'")
            fields[key] = _parse_float(tokens[1][0], line, tokens[1][1], key)
        elif key in ("degree", "seed"):
            _expect(tokens, 2, line, f"'{key} <value>'")
            fields[key] = _parse_int(tokens[1][0], line, tokens[1][1], key)
        elif key == "reps":
            _expect(tokens, 2, line, "'reps <count>'")
            reps = _parse_int(tokens[1][0], line, tokens[1][1], "reps")
            if reps < 1:
                raise FileFormatError(f"reps must be at least 1, got {reps}", line, tokens[1][1])
        elif key in _CONFIG_TRAIN_KEYS:
            _expect(tokens, 2, line, f"'{key} <value>'")
            caster = _CONFIG_TRAIN_KEYS[key]
            if caster is int:
                train_fields[key] = _parse_int(tokens[1][0], line, tokens[1][1], key)
            else:
                train_fields[key] = _parse_float(tokens[1][0], line, tokens[1][1], key)
        elif key == "competing":
            _expect(tokens, 3, line, "'competing <a> <b>'")
            nn = _need_n(n, line, col)
            a = _parse_node(tokens[1][0], line, tokens[1][1], nn)
            b = _parse_node(tokens[2][0], line, tokens[2][1], nn)
            if a == b:
                raise FileFormatError("self-competition is not allowed", line, tokens[2][1])
            pair = (min(a, b), max(a, b))
            if pair in seen_comp:
                raise FileFormatError("duplicate competing edge", line, col)
            seen_comp.add(pair)
            competing.append(pair)
        else:
            raise FileFormatError(f"unknown keyword {key!r} in config file", line, col)

    if n is None:
        raise FileFormatError("config file declares no 'n'", 1, 1)
    if samples is None:
        raise FileFormatError("config file declares no 'samples'", 1, 1)
    flipped = [False] * n
    if flipped_tokens:
        for token, line, c in flipped_tokens:
            if token == "none":
                continue
            flipped[_parse_node(token, line, c, n)] = True
    try:
        config = SyntheticConfig(n=n, samples=samples, flipped=tuple(flipped), **fields)
        train_config = TrainConfig(**train_fields)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return config, tuple(competing), train_config, reps


def serialize_sim_config(config: SyntheticConfig, competing_edges,
                         train_config: TrainConfig | None = None,
                         reps: int | None = None) -> str:
    lines = ["# synthetic simulation config", f"n {config.n}",
             f"rho {config.rho!r}", f"degree {config.degree}",
             f"noise_std {config.noise_std!r}", f"seed {config.seed}",
             f"val_fraction {config.val_fraction!r}",
             "samples " + " ".join(str(m) for m in config.samples)]
    flips = [node_label(i) for i, f in enumerate(config.flipped) if f]
    if flips:
        lines.append("flipped " + " ".join(flips))
    for a, b in sorted(tuple(sorted(e)) for e in competing_edges):
        lines.append(f"competing {node_label(a)} {node_label(b)}")
    if train_config is not None:
        lines += [f"rounds {train_config.rounds}",
                  f"local_epochs {train_config.local_epochs}",
                  f"learning_rate {train_config.learning_rate!r}",
                  f"batch_size {train_config.batch_size}",
                  f"benefit_threshold {train_config.benefit_threshold!r}"]
    if reps is not None:
        lines.append(f"reps {reps}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# partitions


def serialize_partitions(cover: Partition, coalitions: Partition, n: int) -> str:
    lines = ["# baseline groupings", f"n {n}", f"cover_mode {cover.mode}"]
    for group in cover.groups:
        lines.append("cover " + " ".join(node_label(i) for i in group))
    for group in coalitions.groups:
        lines.append("coalition " + " ".join(node_label(i) for i in group))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# experiment reports


def serialize_report(report: ExperimentReport) -> str:
    cfg, tc = report.config, report.train_config
    lines = ["# experiment report", f"n {report.n}",
             "methods " + " ".join(report.methods),
             f"reps {report.reps}", f"seed {report.seed}"]
    if report.preset is not None:
        lines.append(f"preset {report.preset}")
    lines.append(f"aggregation {report.aggregation}")
    lines += [f"config_rho {cfg.rho!r}", f"config_degree {cfg.degree}",
              f"config_noise_std {cfg.noise_std!r}",
              f"config_val_fraction {cfg.val_fraction!r}",
              "config_samples " + " ".join(str(m) for m in cfg.samples),
              "config_flipped " + (" ".join(node_label(i) for i, f in enumerate(cfg.flipped) if f)
                                   or "-")]
    lines += [f"train_rounds {tc.rounds}", f"train_local_epochs {tc.local_epochs}",
              f"train_learning_rate {tc.learning_rate!r}",
              f"train_batch_size {tc.batch_size}",
              f"train_benefit_threshold {tc.benefit_threshold!r}"]
    lines.append(f"cover_mode {report.clique_cover.mode}")
    for group in report.clique_cover.groups:
        lines.append("cover " + " ".join(node_label(i) for i in group))
    for group in report.coalitions.groups:
        lines.append("coalition " + " ".join(node_label(i) for i in group))
    for j, i in report.usage_edges:
        lines.append(f"usage_edge {node_label(j)} {node_label(i)}")
    j_idx, i_idx = np.nonzero(report.benefit)
    for j, i in zip(j_idx.tolist(), i_idx.tolist()):
        lines.append(f"benefit {node_label(j)} {node_label(i)} {float(report.benefit[j, i])!r}")
    for method in report.methods:
        for i in range(report.n):
            lines.append(f"mse {method} {node_label(i)} "
                         f"{report.mean[method][i]!r} {report.std[method][i]!r}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> ExperimentReport:
    n: int | None = None
    scalars: dict = {}
    cfg_fields: dict = {}
    train_fields: dict = {}
    methods: tuple[str, ...] | None = None
    samples: tuple[int, ...] | None = None
    flipped_idx: list[int] = []
    cover_groups: list[tuple[int, ...]] = []
    coalition_groups: list[tuple[int, ...]] = []
    cover_mode: str | None = None
    usage_edges: list[tuple[int, int]] = []
    benefit_entries: list[tuple[int, int, float]] = []
    mse: dict[str, dict[int, tuple[float, float]]] = {}
    preset: str | None = None
    aggregation: str | None = None

    for line, tokens in _tokenize(text):
        key, col = tokens[0]
        rest = [t for t, _ in tokens[1:]]
        if key == "n":
            n = _parse_n(tokens, line)
        elif key == "methods":
            if not rest:
                raise FileFormatError("'methods' needs at least one method", line, col)
            methods = tuple(rest)
        elif key in ("reps", "seed"):
            _expect(tokens, 2, line, f"'{key} <value>'")
            scalars[key] = _parse_int(tokens[1][0], line, tokens[1][1], key)
        elif key == "preset":
            _expect(tokens, 2, line, "'preset <name>'")
            preset = rest[0]
        elif key == "aggregation":
            aggregation = " ".join(rest)
        elif key in ("config_rho", "config_noise_std", "config_val_fraction"):
            _expect(tokens, 2, line, f"'{key} <value>'")
            cfg_fields[key.removeprefix("config_")] = _parse_float(
                tokens[1][0], line, tokens[1][1], key)
        elif key == "config_degree":
            _expect(tokens, 2, line, "'config_degree <value>'")
            cfg_fields["degree"] = _parse_int(tokens[1][0], line, tokens[1][1], key)
        elif key == "config_samples":
            samples = tuple(_parse_int(t, line, c, "sample count") for t, c in tokens[1:])
        elif key == "config_flipped":
            nn = _need_n(n, line, col)
            flipped_idx = [] if rest == ["-"] else [
                _parse_node(t, line, c, nn) for t, c in tokens[1:]]
        elif key in ("train_rounds", "train_local_epochs", "train_batch_size"):
            _expect(tokens, 2, line, f"'{key} <value>'")
            train_fields[key.removeprefix("train_")] = _parse_int(
                tokens[1][0], line, tokens[1][1], key)
        elif key in ("train_learning_rate", "train_benefit_threshold"):
            _expect(tokens, 2, line, f"'{key} <value>'")
            train_fields[key.removeprefix("train_")] = _parse_float(
                tokens[1][0], line, tokens[1][1], key)
        elif key == "cover_mode":
            _expect(tokens, 2, line, "'cover_mode <exact|greedy>'")
            cover_mode = rest[0]
        elif key == "cover":
            nn = _need_n(n, line, col)
            cover_groups.append(tuple(_parse_node(t, line, c, nn) for t, c in tokens[1:]))
        elif key == "coalition":
            nn = _need_n(n, line, col)
            coalition_groups.append(tuple(_parse_node(t, line, c, nn) for t, c in tokens[1:]))
        elif key == "usage_edge":
            _expect(tokens, 3, line, "'usage_edge <from> <to>'")
            nn = _need_n(n, line, col)
            usage_edges.append((_parse_node(tokens[1][0], line, tokens[1][1], nn),
                                _parse_node(tokens[2][0], line, tokens[2][1], nn)))
        elif key == "benefit":
            _expect(tokens, 4, line, "'benefit <from> <to> <weight>'")
            nn = _need_n(n, line, col)
            benefit_entries.append((_parse_node(tokens[1][0], line, tokens[1][1], nn),
                                    _parse_node(tokens[2][0], line, tokens[2][1], nn),
                                    _parse_float(tokens[3][0], line, tokens[3][1], "benefit")))
        elif key == "mse":
            _expect(tokens, 5, line, "'mse <method> <participant> <mean> <std>'")
            nn = _need_n(n, line, col)
            method = tokens[1][0]
            i = _parse_node(tokens[2][0], line, tokens[2][1], nn)
            mean = _parse_float(tokens[3][0], line, tokens[3][1], "mse mean")
            std = _parse_float(tokens[4][0], line, tokens[4][1], "mse std")
            mse.setdefault(method, {})[i] = (mean, std)
        else:
            raise FileFormatError(f"unknown keyword {key!r} in report file", line, col)

    if n is None or methods is None or samples is None:
        raise FileFormatError("report file is missing n, methods, or config_samples", 1, 1)
    for method in methods:
        if set(mse.get(method, {})) != set(range(n)):
            raise FileFormatError(f"report is missing mse rows for method {method!r}", 1, 1)

    flipped = tuple(i in flipped_idx for i in range(n))
    config = SyntheticConfig(n=n, samples=samples, flipped=flipped,
                             seed=scalars.get("seed", 0), **cfg_fields)
    train_config = TrainConfig(**train_fields)
    benefit = np.zeros((n, n))
    for j, i, w in benefit_entries:
        benefit[j, i] = w
    return ExperimentReport(
        methods=methods, n=n, reps=scalars.get("reps", 1), seed=scalars.get("seed", 0),
        mean={m: tuple(mse[m][i][0] for i in range(n)) for m in methods},
        std={m: tuple(mse[m][i][1] for i in range(n)) for m in methods},
        config=config, train_config=train_config, preset=preset,
        clique_cover=Partition(tuple(cover_groups), "clique_cover", cover_mode),
        coalitions=Partition(tuple(coalition_groups), "scc_coalitions", cover_mode),
        usage_edges=tuple(usage_edges), benefit=benefit,
        aggregation=aggregation or "",
    )


def report_to_csv(report: ExperimentReport) -> str:
    """Metric table: rows are participants, columns methods, cells mean±std."""
    lines = ["participant," + ",".join(report.methods)]
    for i in range(report.n):
        cells = [f"{report.mean[m][i]:.4g}±{report.std[m][i]:.4g}" for m in report.methods]
        lines.append(f"{node_label(i)}," + ",".join(cells))
    return "\n".join(lines) + "\n"
