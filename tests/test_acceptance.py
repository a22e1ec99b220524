"""Acceptance suite: one test per criterion, named so that `pytest -v`
emits exactly one pass/fail line for each."""

import subprocess
import sys
import time

import numpy as np

from conftest import cycle, small_instance_collection, enumerate_rank_orders
from fomlab.charging import (
    EXPONENTIAL,
    PIECEWISE,
    BoundGrid,
    _f_general_matrix,
    minimize_psi1,
    minimize_psi2,
    psi2,
    ratio_bipartite,
    ratio_general,
)
from fomlab.dual import verify_feasibility
from fomlab.engine import Side, ranks_from_values
from fomlab.hardness import (
    LayeredParams,
    adversary_p_sequence,
    adversary_ratio,
    empirical_ratio,
    gen_ranking_hard,
    omega_fixed_point,
)
from fomlab.instance import random_instance
from fomlab.oracle import (
    max_matching_bipartite,
    max_matching_bruteforce,
    max_matching_general,
)
from properties import check_all
from reference_oracle import reference_max_matching_bipartite


def _report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_bipartite_ratio_bound():
    t0 = time.time()
    ratio = ratio_bipartite(EXPONENTIAL, BoundGrid(step=1e-3))
    elapsed = time.time() - t0
    ok = 0.5540 <= ratio <= 0.5545 and elapsed < 1.0
    _report(1, ok, f"ratio={ratio:.6f}, {elapsed:.2f}s")


def test_criterion_02_general_ratio_bound():
    t0 = time.time()
    grid = BoundGrid(step=1e-3)
    ratio = ratio_general(PIECEWISE, grid)
    ys = grid.axis()
    f_vals = _f_general_matrix(ys, PIECEWISE, grid)
    bound = np.minimum(PIECEWISE.g_limit_grid(ys), 0.5349)
    worst = float(np.min(f_vals - bound))
    elapsed = time.time() - t0
    ok = ratio > 0.5211 and worst >= -1e-9 and elapsed < 30.0
    _report(2, ok, f"ratio={ratio:.6f}, min slack={worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_charging_constants():
    phi_lim = PIECEWISE.phi(1.0, Side.JUST_BELOW)
    h_lim = PIECEWISE.h(1.0, Side.JUST_BELOW)
    psi2_lim = psi2(0.5, 1.0, PIECEWISE, theta_side=Side.JUST_BELOW)
    v2, th2 = minimize_psi2(1.0, PIECEWISE)
    v1, th1 = minimize_psi1(1.0, PIECEWISE)
    ok = (
        abs(phi_lim - 0.21) < 1e-12
        and abs(h_lim - 0.197) < 1e-12
        and 0.53800 <= psi2_lim <= 0.53810
        and abs(v2 - 0.5359) < 5e-4
        and abs(th2 - 0.273) < 5e-3
        and abs(v1 - 0.5349) < 5e-4
        and abs(th1 - 0.127) < 5e-3
    )
    _report(
        3,
        ok,
        f"phi(1-)={phi_lim}, h(1-)={h_lim}, psi2(.,1-)={psi2_lim:.5f}, "
        f"stationary {v2:.4f}@{th2:.3f} and {v1:.4f}@{th1:.3f}",
    )


def test_criterion_04_dual_feasibility_bipartite():
    failing = 0
    cond1_bad = 0
    rng = np.random.default_rng(40)
    for i in range(50):
        n = int(rng.integers(2, 11))
        inst = random_instance(n, float(rng.uniform(0.3, 0.9)), True, 4000 + i)
        rep = verify_feasibility(inst, EXPONENTIAL, 0.5541, 100_000, 4100 + i)
        failing += len(rep.failing)
        cond1_bad += rep.cond1_violations
    ok = failing == 0 and cond1_bad == 0
    _report(4, ok, f"failing edges={failing}, cond1 violations={cond1_bad}")


def test_criterion_05_dual_feasibility_general():
    failing = 0
    cond1_bad = 0
    rng = np.random.default_rng(50)
    instances = [cycle(3), cycle(5), cycle(7)]
    while len(instances) < 50:
        n = int(rng.integers(2, 11))
        instances.append(
            random_instance(n, float(rng.uniform(0.3, 0.9)), False, 5000 + len(instances))
        )
    for i, inst in enumerate(instances):
        rep = verify_feasibility(inst, PIECEWISE, 0.5211, 100_000, 5100 + i)
        failing += len(rep.failing)
        cond1_bad += rep.cond1_violations
    ok = failing == 0 and cond1_bad == 0
    _report(5, ok, f"failing edges={failing}, cond1 violations={cond1_bad}")


def test_criterion_06_adversary_tree_prediction():
    pred = adversary_ratio(7, 8)
    ok = abs(pred.ratio_asymptotic - 0.631745) <= 1e-6
    # recurrence/closed-form agreement is asserted inside the helper
    for k in range(2, 51):
        adversary_p_sequence(k, 200)
    _report(6, ok, f"asymptotic={pred.ratio_asymptotic:.7f}")


def test_criterion_07_layered_hardness():
    omega = omega_fixed_point()
    inst = gen_ranking_hard(LayeredParams(k=100, h=50))
    mean, stderr = empirical_ratio(inst, "ranking", 200, 7)
    ok = abs(omega - 0.56714) <= 1e-5 and abs(mean - 0.567) <= 0.01
    _report(7, ok, f"omega={omega:.6f}, empirical={mean:.4f}±{stderr:.4f}")


def test_criterion_08_structural_property_suites():
    violations = 0
    exhaustive = 0
    for inst in small_instance_collection():
        for ranks in enumerate_rank_orders(inst):
            try:
                check_all(inst, ranks)
            except AssertionError:
                violations += 1
            exhaustive += 1
    rng = np.random.default_rng(80)
    randomized = 0
    instances = [
        random_instance(
            int(rng.integers(2, 13)),
            float(rng.uniform(0.2, 0.9)),
            bool(rng.integers(0, 2)),
            8000 + i,
        )
        for i in range(100)
    ]
    for inst in instances:
        for _ in range(100):
            try:
                check_all(inst, ranks_from_values(rng.random(inst.n)))
            except AssertionError:
                violations += 1
            randomized += 1
    ok = violations == 0 and randomized >= 10_000
    _report(
        8, ok,
        f"{exhaustive} exhaustive orders + {randomized} random trials, "
        f"{violations} violations",
    )


def test_criterion_09_oracle_cross_validation():
    rng = np.random.default_rng(90)
    mismatches = 0
    for _ in range(1000):
        while True:
            n = int(rng.integers(2, 10))
            inst = random_instance(
                n, float(rng.uniform(0.1, 0.8)), False, int(rng.integers(0, 2**31))
            )
            if inst.m <= 24:
                break
        if max_matching_general(inst).size != max_matching_bruteforce(inst).size:
            mismatches += 1
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        inst = random_instance(
            n, float(rng.uniform(0.1, 0.9)), True, int(rng.integers(0, 2**31))
        )
        if (
            max_matching_bipartite(inst).size
            != reference_max_matching_bipartite(inst).size
        ):
            mismatches += 1
    _report(9, mismatches == 0, f"mismatches={mismatches}")


def test_criterion_10_cli_determinism(tmp_path):
    import os

    inst_path = tmp_path / "inst.json"
    base = [sys.executable, "-m", "fomlab.cli"]
    subprocess.run(
        base + ["generate", "random", "--n", "8", "--p", "0.5", "--seed", "1",
                "--bipartite", "--out", str(inst_path)],
        check=True,
    )
    commands = [
        ["generate", "ranking-hard", "--k", "3", "--h", "3"],
        ["run", "--instance", str(inst_path), "--seed", "3", "--trace"],
        ["ratio", "--instance", str(inst_path), "--trials", "100", "--seed", "2"],
        ["ratio", "--instance", str(inst_path), "--alg", "greedy", "--trials", "30"],
        ["ratio", "--family", "adversary-tree", "--k", "2", "--h", "2",
         "--trials", "20", "--seed", "5"],
        ["verify-duals", "--instance", str(inst_path), "--charging", "exp",
         "--target", "0.5541", "--trials", "8192", "--seed", "4"],
        ["check-charging", "--kind", "piecewise", "--grid", "2e-3"],
        ["hardness", "adversary", "--k", "7", "--h", "8"],
    ]
    stable = True
    for cmd in commands:
        outs = set()
        for workers in ("1", "2", "3"):
            env = dict(os.environ, FOMLAB_THREADS=workers)
            res = subprocess.run(
                base + cmd, capture_output=True, text=True, env=env
            )
            outs.add((res.returncode, res.stdout))
        if len(outs) != 1:
            stable = False
    _report(10, stable, f"{len(commands)} subcommands x 3 worker levels")
