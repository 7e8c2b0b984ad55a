"""The three workloads: seeded inputs, the CLI calls on them, and the checks
each output must pass.

A workload is a list of operations, each one ``fedcollab.cli.main`` call,
plus the tiny call that the set-up probe makes in a fresh interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from fedcollab import cli

import checks
import inputs


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    out: Path  # the file holding the operation's output
    check: Callable[[int, str], list[str]]  # (exit code, output) -> problems


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    probe_argv: tuple[str, ...]
    problems: list[str]  # found while preparing inputs


TINY_INSTANCE = "n 3\ncompeting v1 v2\nbenefit v1 v3 0.5\nbenefit v3 v2 0.4\n"


def _expect_select(instance: inputs.RandomInstance, code: int, text: str) -> list[str]:
    head = [] if code == 0 else [f"exit code {code}, expected 0"]
    return head + checks.check_selection(instance.competing, instance.benefit, text)


def select_random(seed: int, work: Path) -> Workload:
    ops = []
    for k, n in enumerate(inputs.SELECT_SIZES):
        for d, (density, share) in enumerate(inputs.COMPETITION_SHARES.items()):
            rng = np.random.default_rng([seed, 1, k, d])
            instance = inputs.random_instance(rng, n, inputs.pair_count(n, share),
                                              inputs.BENEFIT_SHARE)
            src, out = work / f"select-{n}-{density}.txt", work / f"select-{n}-{density}.out"
            src.write_text(instance.text())
            ops.append(Op(f"select n={n} {density}",
                          ("select", "--instance", str(src), "--out", str(out)), out,
                          partial(_expect_select, instance)))
    tiny = work / "tiny.txt"
    tiny.write_text(TINY_INSTANCE)
    return Workload(ops, ("select", "--instance", str(tiny), "--out", str(work / "tiny.out")), [])


def _selected(instance: inputs.RandomInstance, name: str, work: Path, problems: list[str]):
    """Write the instance, run select on it (input generation, not timed)
    and check the selection before it becomes a verify input."""
    src, sel = work / f"{name}.txt", work / f"{name}.sel"
    src.write_text(instance.text())
    code = cli.main(["select", "--instance", str(src), "--out", str(sel)])
    text = sel.read_text()
    problems += [f"select {name}: {p}" for p in _expect_select(instance, code, text)]
    return src, text


def verify_audit(seed: int, work: Path) -> Workload:
    ops, problems = [], []

    def add(label, instance, src, usage_name, usage_text):
        usage = work / usage_name
        usage.write_text(usage_text)
        out = work / f"{usage_name}.verify"
        ops.append(Op(label, ("verify", "--instance", str(src), "--usage", str(usage),
                              "--out", str(out)), out,
                      partial(checks.check_verify, instance.competing,
                              checks.selection_edges(usage_text))))

    n = inputs.VERIFY_LARGE_N
    for d, (density, share) in enumerate(inputs.COMPETITION_SHARES.items()):
        rng = np.random.default_rng([seed, 2, d])
        instance = inputs.random_instance(rng, n, inputs.pair_count(n, share), inputs.BENEFIT_SHARE)
        name = f"verify-{n}-{density}"
        src, text = _selected(instance, name, work, problems)
        add(f"verify n={n} {density} selection", instance, src, f"{name}.sel", text)
        rejected = checks.rejected_decisions(text)
        j, i = rejected[int(rng.integers(len(rejected)))]
        add(f"verify n={n} {density} with v{j + 1}->v{i + 1} added", instance, src,
            f"{name}.conflict", text + f"edge v{j + 1} v{i + 1}\n")
    n = inputs.VERIFY_SMALL_N
    for k in range(inputs.VERIFY_SMALL_COUNT):
        rng = np.random.default_rng([seed, 3, k])
        instance = inputs.random_instance(rng, n, inputs.VERIFY_SMALL_COMPETING,
                                          inputs.VERIFY_SMALL_BENEFIT_SHARE)
        name = f"verify-{n}-{k}"
        src, text = _selected(instance, name, work, problems)
        add(f"verify n={n} #{k} selection", instance, src, f"{name}.sel", text)

    tiny, usage = work / "tiny.txt", work / "tiny.usage"
    tiny.write_text(TINY_INSTANCE)
    usage.write_text("n 3\nedge v1 v3\n")
    probe = ("verify", "--instance", str(tiny), "--usage", str(usage), "--out", str(work / "tiny.out"))
    return Workload(ops, probe, problems)


def _expect_report(preset: str, seed: int, code: int, text: str) -> list[str]:
    spec = inputs.PRESETS[preset]
    reference = checks.reference_local_mse(spec, seed, inputs.SIMULATE_REPS)
    head = [] if code == 0 else [f"exit code {code}, expected 0"]
    return head + checks.check_report(spec, reference, text)


def simulate_presets(seed: int, work: Path) -> Workload:
    ops = []
    for preset in inputs.PRESETS:
        report = work / f"simulate-{preset}.report"
        argv = ("simulate", "--preset", preset, "--reps", str(inputs.SIMULATE_REPS),
                "--seed", str(seed), "--out", str(work / f"simulate-{preset}.csv"),
                "--report", str(report))
        ops.append(Op(f"simulate {preset}", argv, report,
                      partial(_expect_report, preset, seed)))
    config = work / "tiny.cfg"
    config.write_text("n 3\nsamples 20 20 20\ncompeting v1 v2\nrounds 1\n")
    probe = ("simulate", "--config", str(config), "--reps", "1", "--out", str(work / "tiny.csv"))
    return Workload(ops, probe, [])


BUILDERS = {"select_random": select_random, "verify_audit": verify_audit,
            "simulate_presets": simulate_presets}
