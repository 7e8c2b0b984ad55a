"""Command-line front door.

Subcommands: select, verify, partition, simulate, report. All data goes
to --out files (or stdout), diagnostics to stderr. Exit codes: 0 success
(verify: conflict-free), 1 verify found a violation, 2 malformed input
file, 3 invalid instance, 4 training divergence.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import formats
from .fedtrain import (METHODS, TrainConfig, TrainingDivergenceError,
                       estimate_benefit, run_experiment)
from .graphs import Instance, InvalidInstanceError, conflict_free, conflict_violations
from .oracle import PATH_ENUM_MAX_NODES, conflict_free_by_paths
from .partition import min_clique_cover, scc_coalitions
from .selection import select_collaborators
from .synthdata import PRESET_NAMES, competing_matrix, generate_task, preset, with_seed


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise formats.FileFormatError(f"cannot read {path}: {exc.strerror or exc}") from None


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _instance_from_args(args) -> Instance:
    if args.instance is not None:
        return formats.parse_instance(_read(args.instance))
    config, edges = preset(args.preset, args.seed)
    benefit = estimate_benefit(generate_task(config))
    return Instance(config.n, competing_matrix(config.n, edges), benefit)


def _cmd_select(args) -> int:
    instance = _instance_from_args(args)
    usage, trace = select_collaborators(instance)
    _write(args.out, formats.serialize_selection(instance, usage, trace))
    return 0


def _cmd_verify(args) -> int:
    instance = formats.parse_instance(_read(args.instance))
    usage = formats.parse_usage(_read(args.usage), expected_n=instance.n)
    closure_ok = conflict_free(instance, usage)
    lines = [f"closure_check {'pass' if closure_ok else 'fail'}"]
    # edges outside the benefit support violate the data model and are the
    # one case where the closure and path checks can legitimately diverge
    for j, i in sorted(usage.edges()):
        if instance.benefit[j, i] <= 0.0:
            lines.append(f"unsupported_edge {formats.node_label(j)} {formats.node_label(i)}")
    if instance.n <= PATH_ENUM_MAX_NODES:
        path_ok = conflict_free_by_paths(instance, usage)
        lines.append(f"path_check {'pass' if path_ok else 'fail'}")
        lines.append(f"checks_agree {'yes' if path_ok == closure_ok else 'no'}")
    else:
        lines.append(f"path_check skipped n>{PATH_ENUM_MAX_NODES}")
    for j, i, witness in conflict_violations(instance, usage):
        path = " ".join(formats.node_label(k) for k in witness.nodes)
        lines.append(f"violation {formats.node_label(j)} {formats.node_label(i)} path {path}")
    lines.append(f"verdict {'conflict-free' if closure_ok else 'conflict'}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0 if closure_ok else 1


def _cmd_partition(args) -> int:
    instance = _instance_from_args(args)
    cover = min_clique_cover(instance)
    coalitions = scc_coalitions(instance, cover)
    _write(args.out, formats.serialize_partitions(cover, coalitions, instance.n))
    return 0


def _cmd_simulate(args) -> int:
    if args.preset is not None:
        config, edges = preset(args.preset, args.seed if args.seed is not None else 0)
        train_config, file_reps = TrainConfig(), None
    else:
        config, edges, train_config, file_reps = formats.parse_sim_config(_read(args.config))
        if args.seed is not None:
            config = with_seed(config, args.seed)
    if args.reps is not None and args.reps < 1:
        raise formats.FileFormatError(f"--reps must be at least 1, got {args.reps}")
    methods = tuple(args.methods.split(",")) if args.methods else METHODS
    for m in methods:
        if m not in METHODS:
            raise formats.FileFormatError(
                f"unknown method {m!r}; expected a subset of {','.join(METHODS)}")
    benefit = formats.parse_benefit(_read(args.benefit)) if args.benefit else None
    reps = args.reps if args.reps is not None else (file_reps if file_reps is not None else 10)
    report, _ = run_experiment(config, edges, methods=methods, train_config=train_config,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
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


if __name__ == "__main__":
    sys.exit(main())
