"""Command-line front door.

Subcommands: select, verify, partition, simulate, report. All data goes
to --out files (or stdout), diagnostics to stderr. Exit codes: 0 success
(verify: conflict-free), 1 verify found a violation, 2 malformed input
file, an empty path, a file or standard output that cannot be used, or
an argument list the parser refuses (a value of the wrong type such as
``--reps x``, an unknown option, no subcommand, or neither or both of a
subcommand's exclusive sources such as ``--instance`` and ``--preset``),
3 invalid instance or out of memory, 4 training divergence. Exits 2-4
print one line on stderr; ``--help`` prints the usage and exits 0.

verify runs the oracle's path search beside the closure check only up to
n = ``PATH_ENUM_MAX_NODES`` and writes ``path_check skipped`` above it,
which keeps its output as it has been. The search has no size cap (one
depth-first search per participant with a competitor), but it is not
free: at n=200, on a seeded random instance with 5% of its pairs
competing and half of them benefiting, and that instance's selection, it
took 22-26 ms on a 2-vCPU machine, which every larger verify would pay.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import formats
from .fedtrain import (METHODS, TrainConfig, TrainingDivergenceError, check_training_work,
                       estimate_benefit, run_experiment)
from .graphs import Instance, InvalidInstanceError, conflict_violations
from .oracle import PATH_ENUM_MAX_NODES, conflict_free_by_paths
from .partition import min_clique_cover, scc_coalitions
from .selection import select_collaborators
from .synthdata import PRESET_NAMES, generate_task, preset


def _read(path: str) -> str:
    try:
        # a leading byte-order mark (Notepad's "UTF-8 with BOM") is not text
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except OSError as exc:
        raise formats.FileFormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise formats.FileFormatError(f"cannot read {path}: not UTF-8 text "
                                      f"(byte {exc.start})") from None


def _write(path: str | None, text: str) -> None:
    try:
        if path is None:
            sys.stdout.write(text)
            sys.stdout.flush()
        else:
            Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        where = "standard output" if path is None else path
        raise formats.FileFormatError(f"cannot write {where}: {exc.strerror or exc}") from None


def _instance_from_args(args) -> Instance:
    if args.instance is not None:
        return formats.parse_instance(_read(args.instance))
    config, competing = preset(args.preset, args.seed)
    return Instance(config.n, competing, estimate_benefit(generate_task(config)))


def _cmd_select(args) -> int:
    instance = _instance_from_args(args)
    usage, trace = select_collaborators(instance)
    _write(args.out, formats.serialize_selection(instance, usage, trace))
    return 0


def _cmd_verify(args) -> int:
    instance = formats.parse_instance(_read(args.instance))
    usage = formats.parse_usage(_read(args.usage), expected_n=instance.n)
    violations = conflict_violations(instance, usage)
    closure_ok = not violations
    lines = [f"closure_check {'pass' if closure_ok else 'fail'}"]
    # edges outside the benefit support violate the data model and are the
    # one case where the closure and path checks can legitimately diverge;
    # argwhere lists them row-major, so sorted by (j, i)
    unsupported = usage.x & (instance.benefit <= 0.0)
    for j, i in np.argwhere(unsupported).tolist():
        lines.append(f"unsupported_edge {formats.node_label(j)} {formats.node_label(i)}")
    if instance.n <= PATH_ENUM_MAX_NODES:
        path_ok = conflict_free_by_paths(instance, usage)
        lines.append(f"path_check {'pass' if path_ok else 'fail'}")
        lines.append(f"checks_agree {'yes' if path_ok == closure_ok else 'no'}")
    else:
        lines.append(f"path_check skipped n>{PATH_ENUM_MAX_NODES}")
    for j, i, witness in violations:
        path = " ".join(formats.node_label(k) for k in witness.nodes)
        lines.append(f"violation {formats.node_label(j)} {formats.node_label(i)} path {path}")
    lines.append(f"verdict {'conflict-free' if closure_ok else 'conflict'}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if closure_ok else 1


def _cmd_partition(args) -> int:
    instance = _instance_from_args(args)
    cover = min_clique_cover(instance)
    coalitions = scc_coalitions(instance, cover)
    _write(args.out, formats.serialize_partitions(cover, coalitions))
    return 0


def _cmd_simulate(args) -> int:
    if args.preset is not None:
        (config, competing), train_config, file_reps = preset(args.preset), TrainConfig(), None
    else:
        config, competing, train_config, file_reps = formats.parse_sim_config(_read(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if args.reps is not None and args.reps < 1:
        raise formats.FileFormatError(f"--reps must be at least 1, got {args.reps}")
    if args.methods == "":
        raise formats.FileFormatError("--methods needs at least one method")
    methods = METHODS if args.methods is None else tuple(args.methods.split(","))
    for m in methods:
        if m not in METHODS:
            raise formats.FileFormatError(
                f"unknown method {m!r}; expected a subset of {','.join(METHODS)}")
        if methods.count(m) > 1:
            raise formats.FileFormatError(f"--methods lists {m!r} more than once")
    benefit = None if args.benefit is None else formats.parse_benefit(_read(args.benefit), config.n)
    reps = args.reps if args.reps is not None else (file_reps if file_reps is not None else 10)
    check_training_work(train_config.rounds, train_config.local_epochs, reps, config.samples)
    report = run_experiment(config, competing, methods=methods, train_config=train_config,
                            reps=reps, benefit=benefit, preset=args.preset)
    _write(args.out, formats.report_to_csv(report))
    if args.report is not None:
        _write(args.report, formats.serialize_report(report))
    return 0


def _cmd_report(args) -> int:
    report = formats.parse_report(_read(args.input))
    _write(args.out, formats.report_to_csv(report))
    return 0


def _add_instance_source(sub: argparse.ArgumentParser) -> None:
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--instance", help="instance file")
    source.add_argument("--preset", choices=PRESET_NAMES,
                        help="built-in topology with an estimated benefit matrix")
    sub.add_argument("--seed", type=int, default=0, help="seed for preset data generation")


class _Parser(argparse.ArgumentParser):
    """Raises its refusals as a :class:`formats.FileFormatError` instead of
    printing the usage and exiting, so that ``main`` reports them as one
    line and returns 2. Subcommand parsers are of the same class."""

    def error(self, message: str):
        raise formats.FileFormatError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedcollab",
        description="Conflict-free collaborator selection and federated co-simulation.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("select", help="compute the data-usage graph for an instance")
    _add_instance_source(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_select)

    p = subs.add_parser("verify", help="check a usage graph for conflicts of interest")
    p.add_argument("--instance", required=True, help="instance file")
    p.add_argument("--usage", required=True, help="usage-graph file (or a select output)")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("partition", help="baseline clique cover and coalitions")
    _add_instance_source(p)
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_partition)

    p = subs.add_parser("simulate", help="run the full co-simulation pipeline")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES)
    source.add_argument("--config", help="simulation config file")
    p.add_argument("--benefit", help="benefit matrix file (skips estimation)")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--methods", help="comma-separated subset of: " + ",".join(METHODS))
    p.add_argument("--reps", type=int, help="repetitions (default 10)")
    p.add_argument("--out", help="CSV metric table (default: stdout)")
    p.add_argument("--report", help="also write the full structured report here")
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("report", help="render a structured report as CSV")
    p.add_argument("--in", dest="input", required=True, help="structured report file")
    p.add_argument("--out", help="CSV output (default: stdout)")
    p.set_defaults(func=_cmd_report)

    return parser


_PARSER = build_parser()  # built once: main may be called many times in one process


def main(argv: list[str] | None = None) -> int:
    args = None
    try:
        args = _PARSER.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise formats.FileFormatError(f"--seed must be nonnegative, got {args.seed}")
        return args.func(args)
    except formats.FileFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidInstanceError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        command = "fedcollab" if args is None else f"fedcollab {args.command}"
        print(f"out of memory: {command} could not finish", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
