"""A seeded fuzz of the whole command line: each example runs one
``cli.main`` call of one of the five subcommands, in process, on small
valid files (n <= 8, at most 30 samples and 2 rounds) edited by
``mutated``, odd flag and config values, missing paths, directories given
as paths, ``--out`` into a missing directory, and argument lists that the
parser refuses (a value that is not an int, an unknown option, no
subcommand, or neither or both of the exclusive sources). Every call must
end in a documented exit code with the documented stderr, a refused
argument list in exit code 2, and a successful call's output must read
back with its own parser.

Hypothesis draws a seed and the file edits; the call's shape comes from a
generator on that seed, so that each choice is uniform: about half the
calls are valid apart from their ``--methods``, and the rest have one or
two odd arguments."""

import contextlib
import io
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fedcollab import formats
from fedcollab.cli import main
from fedcollab.fedtrain import METHODS, TrainConfig, run_experiment
from fedcollab.selection import select_collaborators
from fedcollab.synthdata import PRESET_NAMES, SyntheticConfig, preset

from conftest import benefit_text, make_instance, make_usage, mutated

# simulate has the most arguments, so it gets two shares of the calls
COMMANDS = ["select", "verify", "partition", "simulate", "simulate", "report"]
# the arguments that may be odd, per command; an odd "argv" is one the parser refuses
ARGS = {"select": ["path", "out", "seed", "argv"], "partition": ["path", "out", "seed", "argv"],
        "verify": ["path", "out", "usage", "argv"], "report": ["path", "out", "argv"],
        "simulate": ["path", "out", "seed", "reps", "benefit", "report", "config", "argv"]}
REFUSALS = ["unknown option", "no subcommand", "no source", "both sources"]
# every call draws one of these, refused or not
METHOD_FLAGS = [None, "", "local", "local,", "ce,fedcompetitors", "local,local", "fedavg", "x"]


@cache
def _report_text() -> str:
    config = SyntheticConfig(n=3, samples=(12, 20, 8), flipped=(False, True, False), seed=2)
    competing = np.zeros((3, 3), dtype=bool)
    competing[0, 1] = competing[1, 0] = True
    report = run_experiment(config, competing, train_config=TrainConfig(rounds=1), reps=1)
    return formats.serialize_report(report)


def _config_text(rng: np.random.Generator, n: int) -> str:
    config = SyntheticConfig(n=n, samples=tuple(rng.integers(1, 31, n).tolist()),
                             flipped=tuple(rng.random(n) < 0.3),
                             rho=float(rng.choice([0.0, 0.01, 0.3])),
                             seed=int(rng.integers(100)))
    reps = [None, 1, 2][rng.integers(3)]
    return formats.serialize_sim_config(config, make_instance(rng, n).competing,
                                        TrainConfig(rounds=int(rng.integers(1, 3))), reps)


@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_call_ends_in_a_documented_exit_code(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))

    def choice(options):
        return options[rng.integers(len(options))]

    instance = make_instance(rng, int(rng.integers(1, 9)))
    other = make_instance(rng, instance.n % 8 + 1)  # another n
    command = choice(COMMANDS)
    odd = set(rng.choice(ARGS[command], size=choice([0, 0, 1, 2]), replace=False).tolist())

    def pick(arg, valid, odd_values):
        return choice(odd_values if arg in odd else valid)

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "dir").mkdir()

        def path(name, text):
            """A valid or edited file, one past MAX_NODES, a missing path or
            a directory."""
            kind = pick("path", ["valid"], ["edited", "too many", "missing", "dir"])
            if kind in ("missing", "dir"):
                return str(tmp / kind)
            if kind != "valid":
                text = data.draw(mutated(text)) if kind == "edited" else "n 4097\n"
            (tmp / name).write_text(text)
            return str(tmp / name)

        def flag(name, value):
            return [] if value is None else [name, value]

        seed = pick("seed", [None, "0", "3"], ["-1", "x"])
        if command in ("select", "partition"):
            source = choice([None, *PRESET_NAMES])
            instance_path = path("instance.txt", formats.serialize_instance(instance))
            argv = ["--instance", instance_path] if source is None else ["--preset", source]
            argv += flag("--seed", seed)
        elif command == "verify":
            # a selection, a random graph on the benefit support (often a
            # conflict), or a selection for another n
            usage = pick("usage", ["selection", "random"], ["other n"])
            if usage == "random":
                graph = make_usage(rng, instance.n, allowed=instance.benefit > 0)
                usage_text = formats.serialize_usage(graph)
            else:
                chosen = instance if usage == "selection" else other
                usage_text = formats.serialize_selection(chosen, *select_collaborators(chosen))
            argv = ["--instance", path("instance.txt", formats.serialize_instance(instance)),
                    "--usage", path("usage.txt", usage_text)]
        elif command == "simulate":
            methods = choice(METHOD_FLAGS)
            # a later line overrides: labels or models that overflow, or too much work
            config_text = _config_text(rng, instance.n) + pick("config", [""], [
                "rho 1e300\n", "learning_rate 1e300\n", "rounds 1000000000\n"])
            argv = ["--config", path("config.txt", config_text)]
            argv += flag("--seed", seed) + flag("--methods", methods)
            argv += flag("--reps", pick("reps", [None, "1", "2"], ["0", "-3", "x"]))
            benefit = pick("benefit", [None, instance], [other])
            if benefit is not None:
                argv += ["--benefit", path("benefit.txt", benefit_text(benefit))]
            report = pick("report", [None, str(tmp / "report.txt")],
                          [str(tmp / "missing" / "report.txt")])
            argv += flag("--report", report)
        else:
            argv = ["--in", path("report.txt", _report_text())]
        target = pick("out", [str(tmp / "out.txt"), None],
                      [str(tmp / "dir"), str(tmp / "missing" / "out.txt")])
        argv = [command, *argv, *flag("--out", target)]
        refusal = pick("argv", [None], REFUSALS)
        if refusal == "unknown option":
            argv.append("--bogus")
        elif refusal == "no subcommand":
            argv = argv[1:]
        elif refusal == "no source":  # each command's first option is its source
            argv = argv[:1] + argv[3:]
        elif refusal == "both sources":  # an unknown option where there is one source
            argv += ["--instance", "i.txt"] if "--preset" in argv else ["--preset", "weak_noniid"]

        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1, 2, 3, 4), (argv, code)
        assert refusal is None or code == 2, (argv, code)
        assert code != 1 or command == "verify", (argv, code)
        if code >= 2:  # one line, no traceback
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert "Traceback" not in err
        else:
            assert err == "", (argv, err)
        if code != 0:
            return
        written = stdout.getvalue() if target is None else Path(target).read_text()
        if command == "select":
            n = (formats.parse_instance(Path(instance_path).read_text()).n if source is None
                 else preset(source)[0].n)
            assert formats.parse_usage(written, expected_n=n).n == n
        elif command == "simulate":  # exactly the methods asked for, in their order
            asked = METHODS if methods is None else tuple(methods.split(","))
            assert written.splitlines()[0] == ",".join(("participant", *asked)), argv
            if report is not None:
                assert formats.parse_report(Path(report).read_text()).methods == asked
