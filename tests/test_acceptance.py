"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS lines and the measured margins.
"""

import time
from itertools import product

import numpy as np

from fedcollab.cli import main
from fedcollab.fedtrain import run_experiment
from fedcollab.graphs import Instance, UsageGraph, conflict_free
from fedcollab.oracle import conflict_free_by_paths, optimal_step
from fedcollab.partition import min_clique_cover
from fedcollab.selection import Selection, processing_order, select_collaborators, select_step
from fedcollab.synthdata import (STRONG_COMPETING_EDGES, WEAK_COMPETING_EDGES,
                                 competing_matrix, preset)

from conftest import closure_by_squaring, make_instance, make_usage


def report(num: int, name: str, detail: str) -> None:
    print(f"criterion {num} ({name}): PASS — {detail}")


def test_criterion_1_selection_always_feasible():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        inst = make_instance(rng, int(rng.integers(2, 11)), edge_prob=0.2, density=0.5)
        usage, _ = select_collaborators(inst)
        assert conflict_free(inst, usage)
        assert conflict_free_by_paths(inst, usage)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 1000
    assert elapsed < 30.0
    report(1, "selection feasibility", f"1000/1000 conflict-free in {elapsed:.1f}s")


def test_criterion_2_closure_and_path_checks_agree():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    agreements = 0
    for _ in range(1000):
        inst = make_instance(rng, int(rng.integers(2, 9)), edge_prob=0.3, density=0.5)
        usage = make_usage(rng, inst.n, allowed=inst.benefit > 0)
        assert conflict_free(inst, usage) == conflict_free_by_paths(inst, usage)
        agreements += 1
    elapsed = time.perf_counter() - start
    assert agreements == 1000
    assert elapsed < 60.0
    report(2, "constraint equivalence", f"1000/1000 agree in {elapsed:.1f}s")


def test_criterion_3_incremental_closure_bit_exact():
    rng = np.random.default_rng(103)
    start = time.perf_counter()
    insertions = 0
    while insertions < 10_000:
        n = int(rng.integers(2, 31))
        usage = UsageGraph(n)
        pool = [(j, i) for j, i in product(range(n), range(n)) if j != i]
        rng.shuffle(pool)
        for j, i in pool[: int(rng.integers(1, len(pool) + 1))]:
            usage.add_edge(j, i)
            insertions += 1
            assert np.array_equal(usage.closure, closure_by_squaring(usage.x))
            if insertions >= 10_000:
                break
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(3, "incremental closure", f"{insertions} insertions bit-exact in {elapsed:.1f}s")


def test_criterion_4_clique_cover_reproduction():
    weak = Instance(8, competing_matrix(8, WEAK_COMPETING_EDGES), np.ones((8, 8)))
    strong = Instance(8, competing_matrix(8, STRONG_COMPETING_EDGES), np.ones((8, 8)))
    weak_cover = min_clique_cover(weak)
    strong_cover = min_clique_cover(strong)
    assert weak_cover.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
    assert strong_cover.groups == ((0, 1, 4, 5), (2, 3, 6, 7))
    assert weak_cover.mode == strong_cover.mode == "exact"
    report(4, "clique covers", "both fixed topologies reproduced exactly")


def test_criterion_5_greedy_oracle_gap():
    rng = np.random.default_rng(105)
    start = time.perf_counter()
    gaps = []
    dominated = feasible = steps = 0
    for _ in range(200):
        inst = make_instance(rng, 6, edge_prob=0.3, density=0.5)
        selection = Selection(inst)
        for i in processing_order(inst):
            value, _ = optimal_step(inst, selection.usage, i)
            step = select_step(selection, i)
            steps += 1
            dominated += value >= step.objective - 1e-12
            feasible += conflict_free_by_paths(inst, selection.usage)
            gaps.append(step.objective / value if value else 1.0)
    elapsed = time.perf_counter() - start
    assert dominated == steps
    assert feasible == steps
    assert elapsed < 300.0
    mean_gap = float(np.mean(gaps))
    exact = sum(g >= 1.0 - 1e-12 for g in gaps)
    report(5, "greedy vs oracle", f"{steps} steps dominated; mean gap ratio "
           f"{mean_gap:.4f}; greedy exactly optimal in {exact}/{steps} steps; {elapsed:.1f}s")


def test_criterion_6_strong_noniid_table():
    start = time.perf_counter()
    cfg, edges = preset("strong_noniid", seed=7)
    rep = run_experiment(cfg, edges, reps=10, preset="strong_noniid")
    local = np.array(rep.mean["local"])
    fedavg = np.array(rep.mean["fedavg"])
    ce = np.array(rep.mean["ce"])
    fcomp = np.array(rep.mean["fedcompetitors"])
    elapsed = time.perf_counter() - start
    assert (fedavg >= 10.0 * local).all()          # (a)
    assert (fcomp <= local).all()                  # (b)
    assert (fcomp <= 1.1 * ce).all()               # (c)
    assert elapsed < 600.0
    report(6, "strongly non-IID table", f"FedAvg/Local >= {(fedavg / local).min():.1f}x, "
           f"FedComp <= Local and <= 1.1*CE for all 8 participants; {elapsed:.1f}s")


def test_criterion_7_weak_noniid_table():
    start = time.perf_counter()
    cfg, edges = preset("weak_noniid", seed=7)
    rep = run_experiment(cfg, edges, reps=10, preset="weak_noniid")
    local = np.array(rep.mean["local"])
    ce = np.array(rep.mean["ce"])
    fcomp = np.array(rep.mean["fedcompetitors"])
    small = [i for i, m in enumerate(cfg.samples) if m == 100]
    elapsed = time.perf_counter() - start
    assert small == [2, 3, 6, 7]
    for i in small:
        assert fcomp[i] <= 0.5 * local[i]
        assert fcomp[i] <= ce[i]
    assert elapsed < 600.0
    ratios = [fcomp[i] / local[i] for i in small]
    report(7, "weakly non-IID table", "small participants improve by >= 2x "
           f"(FedComp/Local ratios: {', '.join(f'{r:.2f}' for r in ratios)}); {elapsed:.1f}s")


def test_criterion_8_complexity_smoke():
    rng = np.random.default_rng(108)
    timings = {}
    instances = {n: make_instance(rng, n, edge_prob=0.2, density=0.5) for n in (100, 200)}
    for n, inst in instances.items():
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            usage, _ = select_collaborators(inst)
            best = min(best, time.perf_counter() - start)
        assert conflict_free(inst, usage)
        timings[n] = best
    assert timings[200] < 10.0
    ratio = timings[200] / max(timings[100], 1e-9)
    assert ratio <= 32.0
    report(8, "complexity smoke", f"n=200 in {timings[200]:.2f}s; "
           f"t(200)/t(100) = {ratio:.1f} <= 32")


def test_criterion_9_subcommand_determinism(tmp_path):
    instance_text = ("n 4\ncompeting v1 v3\nbenefit v2 v1 0.25\nbenefit v3 v2 1.5\n"
                     "benefit v1 v2 0.75\nbenefit v4 v1 0.5\n")
    sim_text = ("n 3\nrho 0.0\nsamples 60 50 40\nseed 5\ncompeting v1 v2\n"
                "rounds 4\nreps 2\n")
    inst = tmp_path / "inst.txt"
    inst.write_text(instance_text)
    sim = tmp_path / "sim.txt"
    sim.write_text(sim_text)

    def run_twice(argv_for, outputs):
        results = []
        for attempt in ("a", "b"):
            paths = {key: tmp_path / f"{key}_{attempt}" for key in outputs}
            code = main(argv_for(paths))
            results.append((code, {k: p.read_bytes() for k, p in paths.items()}))
        assert results[0] == results[1]
        return results[0]

    run_twice(lambda p: ["select", "--instance", str(inst), "--out", str(p["sel1"])],
              ["sel1"])
    run_twice(lambda p: ["select", "--preset", "weak_noniid", "--seed", "3",
                         "--out", str(p["sel2"])], ["sel2"])
    run_twice(lambda p: ["verify", "--instance", str(inst), "--usage",
                         str(tmp_path / "sel1_a"), "--out", str(p["ver"])], ["ver"])
    run_twice(lambda p: ["partition", "--instance", str(inst), "--out", str(p["part"])],
              ["part"])
    run_twice(lambda p: ["simulate", "--config", str(sim), "--out", str(p["csv"]),
                         "--report", str(p["rep"])], ["csv", "rep"])
    run_twice(lambda p: ["report", "--in", str(tmp_path / "rep_a"),
                         "--out", str(p["csv"])], ["csv"])
    report(9, "determinism", "all five subcommands byte-identical across reruns")
