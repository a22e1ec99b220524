"""The benchmark's workloads: inputs made from a seed, tasks and their checks.

A workload is a list of tasks that one client runs back to back (a closed
loop).  Every input is generated here from the workload seed; the package
only receives instances and parameters.  Each task reports how many Monte
Carlo rank draws it completed, and its check compares the result with a
value from the `expected` table under a tolerance, so that a sampler that is
re-seeded but still correct keeps passing.

Library functions are looked up on their modules at call time
(`dual_mod.verify_feasibility`, not a name bound at import), so that the
traced run's wrappers see every call.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from fomlab import charging as charging_mod
from fomlab import dual as dual_mod
from fomlab import engine as engine_mod
from fomlab import hardness as hardness_mod
from fomlab import instance as instance_mod

# Untraced references for the checks, so checking never shows up as work.
_run_ranking = engine_mod.run_ranking
_ranks_from_values = engine_mod.ranks_from_values

EXPECTED = {
    "bipartite_ratio": (0.5540, 0.5545),  # criterion 1
    "general_ratio_min": 0.5211,  # criterion 2
    "phi_one_minus": 0.21,  # criterion 3 ...
    "h_one_minus": 0.197,
    "psi2_half_one_minus": (0.53800, 0.53810),
    "psi2_min": (0.5359, 0.273),
    "psi1_min": (0.5349, 0.127),
    "layered_mean": 0.5671,  # Omega, criterion 7
    "general_mean": (0.5, 1.0),
    "cond1_tol": 1e-9,
    # the per-edge expected cover each charging must reach: the paper's bounds
    "cover_target": {"exp": 0.5541, "piecewise": 0.5211},
}
"""Expected values of the checks.  The adversary-tree mean is compared with
`adversary_ratio(k, h).ratio_finite`, computed for the workload's (k, h)."""

FULL = {
    "dual-mc": {
        # Two instances per size: the cost of one instance varies with its
        # edges (n=40: 0.5-1.0 s over seeds).  8192 trials make two chunks;
        # n=160 gets 1024 (one chunk) to keep a pass near 8 s.
        "sizes": [
            # name, n, bipartite, charging, trials, instances
            ("general-n10", 10, False, "piecewise", 8192, 2),
            ("general-n40", 40, False, "piecewise", 8192, 2),
            ("general-n160", 160, False, "piecewise", 1024, 2),
            ("bipartite-n40", 40, True, "exp", 8192, 2),
        ],
        "degree": 6.0,
        "identity_task": "general-n40-0",
    },
    "ratio-mc": {
        "layered": (100, 50, 200),  # k, h, trials
        # 24 trials put the 0.01 tolerance 3.3 standard errors from the
        # measured mean (0.630 +- 0.011 per trial, against 0.6325 predicted).
        # A pass runs one block of 8 of them, in turn, so that a 30 s run
        # holds four passes instead of two; the check pools the three blocks.
        "tree": (7, 3, 24, 3),  # k, h, trials, blocks
        # several n=1000 instances, not one n=2000: blossom time at n=2000
        # ranged 1.7-3.9 s over seeds, which no bound could absorb
        "general": (3, 1000, 0.01, 1000),  # instances, n, p, trials
        "mean_tol": 0.01,
    },
    "analysis": {
        "bipartite_step": 1e-3,
        "general_step": 5e-4,
        "small": (300, 6, 14),  # instances, min n, max n
        "tiny": (60, 3, 4),
    },
}

SMOKE = {
    "dual-mc": {
        "sizes": [
            ("general-n10", 10, False, "piecewise", 4608, 1),
            ("general-n40", 40, False, "piecewise", 512, 1),
            ("bipartite-n10", 10, True, "exp", 512, 1),
        ],
        "degree": 6.0,
        "identity_task": "general-n10-0",
    },
    "ratio-mc": {
        "layered": (100, 50, 20),
        "tree": (7, 3, 3, 1),
        "general": (2, 200, 0.03, 200),
        # three trials of the tree only resolve the mean to a few percent
        "mean_tol": 0.04,
    },
    "analysis": {
        "bipartite_step": 1e-2,
        "general_step": 1e-2,
        "small": (4, 6, 8),
        "tiny": (3, 3, 4),
    },
}

WORKERS = {"dual-mc": 1, "ratio-mc": 2, "analysis": 1}
"""Workers per workload.  dual-mc stays at 1: a workers=2 pass of it varies
more than it gains on two cores.  ratio-mc runs at 2, where every call is one
chunk or serial, so the idle pool shows any change that splits the work."""


@dataclass
class Task:
    name: str
    run: Callable[[int], object]  # workers -> result
    check: Callable[[object], Optional[str]]  # result -> None, or why it failed
    draws: int = 0  # Monte Carlo rank draws the task completes


@dataclass
class Workload:
    name: str
    workers: int
    tasks: list[Task]
    warmup: Task
    # run once per measured run, outside the timed window
    extra_checks: list[Task] = field(default_factory=list)


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _json_roundtrip(inst, path: Path):
    """Write and read an instance file, as the CLI would receive it."""
    with open(path, "w") as fp:
        instance_mod.save_instance(inst, fp)
    with open(path) as fp:
        return instance_mod.load_instance(fp)


def _within(value: float, expected: float, tol: float, what: str) -> Optional[str]:
    if abs(value - expected) <= tol:
        return None
    return f"{what} {value:.6g} not within {tol} of {expected}"


# -- dual-mc -------------------------------------------------------------------


def _dual_task(name, inst, charging, target, trials, seed) -> Task:
    def run(workers):
        return dual_mod.verify_feasibility(
            inst, charging, target, trials, seed, workers=workers
        )

    def check(report):
        if report.failing or report.cond1_violations:
            return (
                f"{len(report.failing)} failing edges, "
                f"{report.cond1_violations} cond1 violations"
            )
        return None

    return Task(name, run, check, draws=trials)


def setup_dual_mc(seed: int, workdir: Path, sizes: dict, expected: dict) -> Workload:
    rng = np.random.default_rng([seed, 1])
    tasks = []
    for kind, n, bipartite, charging_name, trials, count in sizes["sizes"]:
        charging = charging_mod.by_name(charging_name)
        target = expected["cover_target"][charging_name]
        for i in range(count):
            name = f"{kind}-{i}"
            inst_seed, mc_seed = _seeds(rng, 2)
            inst = instance_mod.random_instance(
                n, min(1.0, sizes["degree"] / n), bipartite, inst_seed
            )
            inst = _json_roundtrip(inst, workdir / f"{name}.json")
            tasks.append(_dual_task(name, inst, charging, target, trials, mc_seed))
    by_name = {t.name: t for t in tasks}
    ident = by_name[sizes["identity_task"]]

    def identical(_workers):
        one = json.dumps(ident.run(1).as_dict())
        two = json.dumps(ident.run(2).as_dict())
        return one == two

    extra = Task(
        f"{ident.name}-workers-1-vs-2",
        identical,
        lambda same: None if same else "reports differ between workers=1 and 2",
    )
    return Workload("dual-mc", WORKERS["dual-mc"], tasks, tasks[0], [extra])


# -- ratio-mc ------------------------------------------------------------------


def _ratio_check(lo: float, hi: float, what: str):
    def check(result):
        mean, _stderr = result
        if lo <= mean <= hi:
            return None
        return f"{what} mean {mean:.6g} outside [{lo}, {hi}]"

    return check


def setup_ratio_mc(seed: int, workdir: Path, sizes: dict, expected: dict) -> Workload:
    rng = np.random.default_rng([seed, 2])
    tol = sizes["mean_tol"]
    tasks = []

    k, h, trials = sizes["layered"]
    (lay_seed,) = _seeds(rng, 1)

    def layered(workers):
        # built inside the task, as `fomlab ratio --family ranking-hard` does
        inst = hardness_mod.gen_ranking_hard(hardness_mod.LayeredParams(k=k, h=h))
        return hardness_mod.empirical_ratio(
            inst, "ranking", trials, lay_seed, workers=workers
        )

    omega = expected["layered_mean"]
    tasks.append(
        Task(
            f"layered-k{k}-h{h}",
            layered,
            _ratio_check(omega - tol, omega + tol, "layered"),
            draws=trials,
        )
    )

    tk, th, ttrials, blocks = sizes["tree"]
    block_trials = ttrials // blocks
    block_seeds = _seeds(rng, blocks)
    block_means: dict[int, float] = {}
    turn = [0]

    def tree_block(workers):
        # the callable source of `fomlab ratio --family adversary-tree`, one
        # block of trials per call, blocks in turn
        b = turn[0] % blocks
        turn[0] += 1

        def source(trial):
            return hardness_mod.gen_adversary_tree(
                hardness_mod.AdversaryTreeParams(k=tk, h=th, seed=block_seeds[b] + trial)
            )

        mean, _stderr = hardness_mod.empirical_ratio(
            source, "ranking", block_trials, block_seeds[b], workers=workers
        )
        return b, mean

    def record_block(result):
        b, mean = result
        block_means[b] = mean
        return None if 0.0 <= mean <= 1.0 else f"adversary block {b} mean {mean} outside [0, 1]"

    def pooled(workers):
        # blocks the timed passes did not reach run here, outside the timed window
        while len(block_means) < blocks:
            record_block(tree_block(workers))
        return sum(block_means.values()) / blocks, None

    tasks.append(
        Task(f"adversary-k{tk}-h{th}", tree_block, record_block, draws=block_trials)
    )
    predicted = hardness_mod.adversary_ratio(tk, th).ratio_finite
    pooled_check = Task(
        f"adversary-k{tk}-h{th}-{ttrials}-trials",
        pooled,
        _ratio_check(predicted - tol, predicted + tol, "adversary"),
    )

    count, n, p, gtrials = sizes["general"]
    lo, hi = expected["general_mean"]
    for i in range(count):
        inst_seed, mc_seed = _seeds(rng, 2)
        inst = instance_mod.random_instance(n, p, False, inst_seed)
        inst = _json_roundtrip(inst, workdir / f"general-{i}.json")

        def general(workers, inst=inst, mc_seed=mc_seed):
            return hardness_mod.empirical_ratio(
                inst, "ranking", gtrials, mc_seed, workers=workers
            )

        tasks.append(
            Task(
                f"general-n{n}-{i}",
                general,
                _ratio_check(lo, hi, "general"),
                draws=gtrials,
            )
        )
    return Workload("ratio-mc", WORKERS["ratio-mc"], tasks, tasks[-1], [pooled_check])


# -- analysis ------------------------------------------------------------------


def _constants_check(expected):
    def check(vals):
        phi_lim, h_lim, psi2_lim = vals
        lo, hi = expected["psi2_half_one_minus"]
        return (
            _within(phi_lim, expected["phi_one_minus"], 1e-12, "phi(1-)")
            or _within(h_lim, expected["h_one_minus"], 1e-12, "h(1-)")
            or (None if lo <= psi2_lim <= hi else f"psi2(0.5, 1-) {psi2_lim}")
        )

    return check


def _minimum_check(key: str, expected):
    value, theta = expected[key]

    def check(result):
        v, th = result
        return _within(v, value, 5e-4, key) or _within(th, theta, 5e-3, key + " theta")

    return check


def _marginal_check(inst, ranks):
    def check(thetas):
        for v, theta in enumerate(thetas):
            if theta > 0.0:
                probe = ranks.with_rank(v, theta, engine_mod.Side.JUST_BELOW)
                if _run_ranking(inst, probe).role[v] is not engine_mod.Role.PASSIVE:
                    return f"vertex {v} is not passive at theta={theta}-minus"
            else:
                # theta 0 means v is passive nowhere, so not at the lowest candidate
                lowest = min([r for u, r in enumerate(ranks.ranks) if u != v] + [1.0])
                probe = ranks.with_rank(v, lowest, engine_mod.Side.JUST_BELOW)
                if _run_ranking(inst, probe).role[v] is engine_mod.Role.PASSIVE:
                    return f"vertex {v} is passive below theta=0's candidates"
        return None

    return check


def _duals_check(inst, ranks, tol):
    def check(duals):
        size = _run_ranking(inst, ranks).size
        residual = abs(math.fsum(duals.alpha) - size)
        return None if residual <= tol else f"|sum alpha - |M|| = {residual:.3g}"

    return check


def _cover_check(target):
    def check(covers):
        low = min(covers)
        return None if low >= target else f"exact cover {low:.6g} < {target}"

    return check


def _small_instances(rng, count, n_lo, n_hi):
    out = []
    while len(out) < count:
        n = int(rng.integers(n_lo, n_hi + 1))
        p = float(rng.uniform(0.3, 0.8))
        bipartite = bool(rng.integers(0, 2))
        (inst_seed,) = _seeds(rng, 1)
        inst = instance_mod.random_instance(n, p, bipartite, inst_seed)
        if inst.m:
            out.append(inst)
    return out


def setup_analysis(seed: int, workdir: Path, sizes: dict, expected: dict) -> Workload:
    rng = np.random.default_rng([seed, 3])
    ch = charging_mod
    tasks = []
    bstep, gstep = sizes["bipartite_step"], sizes["general_step"]
    blo, bhi = expected["bipartite_ratio"]
    gmin = expected["general_ratio_min"]
    tasks.append(
        Task(
            "ratio-bipartite",
            lambda _w: ch.ratio_bipartite(ch.EXPONENTIAL, ch.BoundGrid(step=bstep)),
            lambda r: None if blo <= r <= bhi else f"bipartite ratio {r}",
        )
    )
    tasks.append(
        Task(
            "ratio-general",
            lambda _w: ch.ratio_general(ch.PIECEWISE, ch.BoundGrid(step=gstep)),
            lambda r: None if r > gmin else f"general ratio {r}",
        )
    )
    side = engine_mod.Side.JUST_BELOW
    tasks.append(
        Task(
            "charging-constants",
            lambda _w: (
                ch.PIECEWISE.phi(1.0, side),
                ch.PIECEWISE.h(1.0, side),
                ch.psi2(0.5, 1.0, ch.PIECEWISE, theta_side=side),
            ),
            _constants_check(expected),
        )
    )
    tasks.append(
        Task(
            "minimize-psi2",
            lambda _w: ch.minimize_psi2(1.0, ch.PIECEWISE),
            _minimum_check("psi2_min", expected),
        )
    )
    tasks.append(
        Task(
            "minimize-psi1",
            lambda _w: ch.minimize_psi1(1.0, ch.PIECEWISE),
            _minimum_check("psi1_min", expected),
        )
    )

    for i, inst in enumerate(_small_instances(rng, *sizes["small"])):
        (rank_seed,) = _seeds(rng, 1)
        ranks = _ranks_from_values(np.random.default_rng(rank_seed).random(inst.n))
        charging = ch.EXPONENTIAL if inst.is_bipartite() else ch.PIECEWISE

        def marginal(_w, inst=inst, ranks=ranks):
            return [dual_mod.marginal_rank(inst, ranks, v).theta for v in range(inst.n)]

        def duals(_w, inst=inst, ranks=ranks, charging=charging):
            return dual_mod.assign_duals(inst, ranks, charging)

        tasks.append(Task(f"marginal-{i}", marginal, _marginal_check(inst, ranks), 1))
        tasks.append(
            Task(f"duals-{i}", duals, _duals_check(inst, ranks, expected["cond1_tol"]), 1)
        )

    for i, inst in enumerate(_small_instances(rng, *sizes["tiny"])):
        kind = "exp" if inst.is_bipartite() else "piecewise"
        charging, target = ch.by_name(kind), expected["cover_target"][kind]

        def exact(_w, inst=inst, charging=charging):
            return [dual_mod.exact_edge_cover(inst, e, charging) for e in inst.edges]

        tasks.append(Task(f"exact-{i}", exact, _cover_check(target)))
    return Workload("analysis", WORKERS["analysis"], tasks, tasks[0])


SETUP = {
    "dual-mc": setup_dual_mc,
    "ratio-mc": setup_ratio_mc,
    "analysis": setup_analysis,
}


def setup(name: str, seed: int, workdir: Path, smoke: bool = False,
          expected: Optional[dict] = None) -> Workload:
    """Generate the workload's inputs from `seed` (files go to `workdir`)."""
    sizes = (SMOKE if smoke else FULL)[name]
    return SETUP[name](seed, workdir, sizes, expected or EXPECTED)
