"""The benchmark's tracer rebinds package functions by module and name.

These tests import `perfbench/tracing.py` as it is and check that every
name it patches still exists where it looks for it, and that its batch
hooks accept what the batch kernel returns.  A rename in `src/` then fails
here rather than in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import fomlab.dual
import fomlab.engine
from fomlab.charging import PIECEWISE
from fomlab.instance import random_instance

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists(tracing):
    patches = tracing._patches(tracing.Tracer())
    assert patches
    for owner, attr, _replacement in patches:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"


def test_batch_hooks_accept_the_kernel_result(tracing):
    inst = random_instance(20, 0.3, False, 1)
    ranks = np.random.default_rng(1).random((8, inst.n))
    tracer = tracing.Tracer()
    base = fomlab.engine.run_ranking_batch(inst, ranks)
    tracer._after_batch(base, (inst, ranks), {})
    assert tracer.counts["engine.batch_rows"] == 8
    assert tracer.counts["engine.batch_steps"] > 0
    tracer._after_dual_batch(base, (inst, ranks), {})
    w = max(range(inst.n), key=lambda v: len(inst.adj[v]))
    replay = fomlab.engine.run_ranking_batch(inst, ranks, removed=w)
    tracer._after_dual_batch(replay, (inst, ranks), {"removed": w})
    assert tracer.counts["dual.replay_rows"] == 8


def test_installed_tracer_sees_the_dual_batch_path(tracing):
    inst = random_instance(20, 0.3, False, 2)
    ranks = np.random.default_rng(2).random((16, inst.n))
    original = fomlab.engine.run_ranking_batch
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        fomlab.dual.simulate_alphas_batch(inst, PIECEWISE, ranks)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"dual.simulate", "engine.batch", "charging.grid"} <= names
    assert fomlab.engine.run_ranking_batch is original
    assert fomlab.dual.run_ranking_batch is original


def test_installed_tracer_sees_each_generator_build(tracing):
    # the generators call `build_instance` through the hardness module, where
    # the tracer rebinds it, so traced instance.build_s covers their builds
    import fomlab.hardness as hardness

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        built = [
            hardness.gen_ranking_hard(hardness.LayeredParams(k=3, h=4)),
            hardness.gen_adversary_tree(hardness.AdversaryTreeParams(k=2, h=2, seed=1)),
        ]
    spans = tracer.spans
    gens = [i for i, s in enumerate(spans) if s[tracing.NAME] == "hardness.gen"]
    builds = [s for s in spans if s[tracing.NAME] == "instance.build"]
    assert len(gens) == 2
    assert sorted(s[tracing.PARENT] for s in builds) == gens
    assert tracer.counts["instance.edges_built"] == sum(inst.m for inst in built)


def test_traced_marginal_rank_records_one_scalar_run(tracing):
    # marginal_rank runs Ranking once, without v, through engine.run_ranking
    # (removed=v); the tracer counts that span as its child
    inst = random_instance(9, 0.5, False, 3)
    ranks = fomlab.engine.ranks_from_values(np.random.default_rng(3).random(inst.n))
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for v in range(inst.n):
            fomlab.dual.marginal_rank(inst, ranks, v)
    spans = tracer.spans
    calls = [i for i, s in enumerate(spans) if s[tracing.NAME] == "dual.marginal_rank"]
    assert len(calls) == inst.n
    for i in calls:
        children = [s[tracing.NAME] for s in spans if s[tracing.PARENT] == i]
        assert children == ["engine.scalar"]


def test_installed_tracer_runs_empirical_ratio(tracing):
    # the traced ratio-mc run times `empirical_ratio` on a fixed instance and
    # on a callable source; under the rebinding both run and agree untraced
    import fomlab.hardness as hardness

    fixed = hardness.gen_ranking_hard(hardness.LayeredParams(k=4, h=5))

    def trees(trial):
        params = hardness.AdversaryTreeParams(k=2, h=2, seed=trial)
        return hardness.gen_adversary_tree(params)

    runs = [(source, alg) for source in (fixed, trees) for alg in ("ranking", "greedy")]
    want = [hardness.empirical_ratio(s, alg, 6, 1, workers=1) for s, alg in runs]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        got = [hardness.empirical_ratio(s, alg, 6, 1, workers=1) for s, alg in runs]
    assert got == want
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"hardness.ratio", "hardness.opt", "hardness.gen"} <= names
