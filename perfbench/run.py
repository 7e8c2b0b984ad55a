#!/usr/bin/env python3
"""Benchmark of fedcollab's select, verify and simulate commands.

Run from the repository root:

    python3 perfbench/run.py --workload select_random --seed 1 --seconds 30 --trace 0

Each run generates its inputs from --seed, calls ``fedcollab.cli.main``
on every input in whole rounds for --seconds, checks every output with
the independent checks in ``checks.py``, and prints one JSON object as
its last line. With ``--trace 0`` it reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it spends half the time untraced and
half with every public fedcollab function wrapped (``spans.py``) and
reports the per-layer metrics. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One thread per pool, set before numpy loads: the host has two cores and
# a BLAS pool racing the measured thread only adds noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_ROUNDS = 3
SETUP_PROBES = 9

# A fresh interpreter imports the CLI and makes one call on a tiny input of
# the workload's own subcommand, so lazy first-call set-up is included.
PROBE = """\
import sys, time
began = time.perf_counter()
import fedcollab.cli
code = fedcollab.cli.main(sys.argv[1:])
print(repr(time.perf_counter() - began))
sys.exit(code)
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark fedcollab select, verify and simulate.")
    parser.add_argument("--workload", required=True,
                        choices=("select_random", "verify_audit", "simulate_presets"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def per_input(samples: list[float]) -> float:
    """The third-slowest of one input's repeats.

    On the shared two-core host an operation runs at a contended speed
    or, while the neighbours are idle, up to twice as fast, in bursts of
    seconds. The minimum and the median read whatever mix of quiet time a
    run happened to catch, and a fixed quantile needs a fixed share of
    contended repeats. The third-slowest repeat reads the contended speed
    whenever at least three repeats were contended, and ignores two
    one-off stalls; README.md has the figures.
    """
    return sorted(samples)[max(0, len(samples) - 3)]


@dataclass
class Measurement:
    rounds: int = 0
    failed: int = 0
    samples: list[list[float]] = field(default_factory=list)
    first: list[tuple[int, bytes] | None] = field(default_factory=list)
    problems: set[str] = field(default_factory=set)
    setup: list[float] = field(default_factory=list)

    def pass_s(self) -> float:
        return sum(per_input(s) for s in self.samples if s)


def probe_setup(argv) -> float:
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=ROOT, capture_output=True,
                          text=True, timeout=60, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


def measure(cli, workload, seconds: float, probes: int = 0) -> Measurement:
    """Whole rounds over every operation until ``seconds`` have passed;
    set-up probes are spread over the same interval."""
    ops = workload.ops
    m = Measurement(samples=[[] for _ in ops], first=[None] * len(ops))
    began = time.perf_counter()
    while True:
        for k, op in enumerate(ops):
            gc.collect()
            t0 = time.perf_counter()
            try:
                code = cli.main(list(op.argv))
            except Exception:
                traceback.print_exc()
                m.failed += 1
                continue
            elapsed = time.perf_counter() - t0
            if code not in (0, 1):
                print(f"{op.label}: exit code {code}", file=sys.stderr)
                m.failed += 1
                continue
            m.samples[k].append(elapsed)
            output = (code, op.out.read_bytes())
            if m.first[k] is None:
                m.first[k] = output
            elif output != m.first[k]:
                m.problems.add(f"{op.label}: output differs between rounds")
        m.rounds += 1
        share = (time.perf_counter() - began) / seconds
        while len(m.setup) < probes * min(1.0, share):
            m.setup.append(probe_setup(workload.probe_argv))
        if m.rounds >= MIN_ROUNDS and share >= 1.0:
            break
    while len(m.setup) < probes:
        m.setup.append(probe_setup(workload.probe_argv))
    for op, first in zip(ops, m.first):
        if first is not None:
            m.problems.update(f"{op.label}: {p}" for p in op.check(first[0], first[1].decode()))
    return m


def output_counts(workload, m: Measurement) -> dict[str, float]:
    """Per-pass counts read from the operations' inputs and outputs."""
    import checks

    decisions = accepts = closure_pairs = all_pairs = out_bytes = 0
    edge_lines = lines_read = 0
    for op, first in zip(workload.ops, m.first):
        if first is None:
            continue
        if op.argv[0] == "select":
            out_bytes += len(first[1])
            lines = checks.content_lines(first[1].decode())
            n = int(next(f[1] for f in lines if f[0] == "n"))
            all_pairs += n * (n - 1)
            closure_pairs += sum(1 for f in lines if f[0] == "closure")
            verdicts = [f[4] for f in lines if f[0] == "decision"]
            decisions += len(verdicts)
            accepts += verdicts.count("accept")
        elif op.argv[0] == "verify":
            usage = Path(op.argv[op.argv.index("--usage") + 1]).read_text()
            lines = checks.content_lines(usage)
            lines_read += len(lines)
            edge_lines += sum(1 for f in lines if f[0] == "edge")
    return {
        "select.decisions": decisions,
        "select.guard_accept_ratio": accepts / decisions if decisions else 0.0,
        "select.closure_density": closure_pairs / all_pairs if all_pairs else 0.0,
        "select.out_bytes": out_bytes,
        "verify.lines_kept_ratio": edge_lines / lines_read if lines_read else 0.0,
    }


def layer_values(tracer, rounds: int) -> dict[str, float]:
    values = {}
    for name, seconds in tracer.self_s.items():
        values[f"{name}.self_s"] = seconds / rounds
    for name, calls in tracer.calls.items():
        values[f"{name}.calls"] = calls / rounds
    values["fedtrain.train.duplicate_calls"] = tracer.duplicate_train_calls() / rounds
    return values


def run(args) -> tuple[dict, dict[str, list[float]]]:
    """The result line, and the timed repeats of each operation."""
    import spans
    import workloads
    from fedcollab import cli

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.BUILDERS[args.workload](args.seed, work)
        if not args.trace:
            m = measure(cli, workload, args.seconds, SETUP_PROBES)
            values = {"pass_s": m.pass_s(), "setup_s": statistics.median(m.setup),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
            wanted = spec["end_to_end"]
            measurements = [m]
        else:
            plain = measure(cli, workload, args.seconds / 2)
            tracer = spans.Tracer()
            uninstall = spans.install(tracer)
            try:
                m = measure(cli, workload, args.seconds / 2)
            finally:
                uninstall()
            tracer.save(OUT / f"trace-{args.workload}.npz")
            values = layer_values(tracer, m.rounds)
            values.update(output_counts(workload, m))
            values["trace.overhead_s"] = m.pass_s() - plain.pass_s()
            wanted = spec["per_layer"]
            measurements = [plain, m]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = set(workload.problems).union(*(x.problems for x in measurements))
    for p in sorted(problems):
        print(f"wrong output: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(x.rounds for x in measurements) * len(workload.ops),
        "failed": sum(x.failed for x in measurements),
        # a layer that is never called on this workload reports 0
        "metrics": {w["name"]: {"value": values.get(w["name"], 0.0), "unit": w["unit"]}
                    for w in wanted},
    }
    return result, {op.label: s for op, s in zip(workload.ops, measurements[-1].samples)}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fedcollab" / "cli.py").is_file():
        print(f"error: no fedcollab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    result, samples = run(args)
    for label, repeats in samples.items():
        if repeats:
            print(f"op {label}: {per_input(repeats):.4f} s over {len(repeats)} repeats")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    line = json.dumps(result)
    (OUT / f"samples-{args.workload}-trace{args.trace}.json").write_text(json.dumps(samples))
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
