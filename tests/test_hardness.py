import math
import time

import numpy as np
import pytest

from conftest import single_edge, traced_peak_mib
from fomlab.errors import ParamsInvalid, TooLarge
from fomlab import engine, hardness
from fomlab.hardness import (
    MAX_EDGES,
    MAX_FLUID_LEVELS,
    MAX_LEAVES,
    AdversaryTreeParams,
    LayeredParams,
    adversary_p_sequence,
    adversary_ratio,
    adversary_tree_source,
    empirical_ratio,
    fluid_recurrence,
    gen_adversary_tree,
    gen_ranking_hard,
    omega_fixed_point,
)
from fomlab.instance import build_instance, random_instance
from fomlab.oracle import max_matching_bipartite, max_matching_general
from fomlab.engine import (
    Role,
    ranks_from_values,
    run_greedy,
    run_ranking,
    run_ranking_batch,
)
from conftest import enumerate_rank_orders

OMEGA = 0.567143290409784


def test_params_validation():
    with pytest.raises(ParamsInvalid):
        AdversaryTreeParams(k=0, h=1, seed=0)
    with pytest.raises(ParamsInvalid):
        LayeredParams(k=2, h=0)
    with pytest.raises(ParamsInvalid):
        adversary_ratio(1, 3)


def test_closed_form_sizes_match_the_generators():
    for k in range(1, 5):
        for h in range(1, 4):
            params = AdversaryTreeParams(k=k, h=h, seed=k + h)
            inst = gen_adversary_tree(params)
            assert (inst.n, inst.m) == (2 * params.side_size, params.edge_count)
            layered = LayeredParams(k=k, h=h)
            inst = gen_ranking_hard(layered)
            assert (inst.n, inst.m) == (2 * layered.side_size, layered.edge_count)


def test_generator_edge_budget():
    # the largest instances the tests and the benchmark build stay inside it
    assert AdversaryTreeParams(k=7, h=3, seed=0).edge_count <= MAX_EDGES
    assert LayeredParams(k=100, h=50).edge_count == 495_000
    assert LayeredParams(k=100, h=50).edge_count * 33 < MAX_EDGES
    # 2h - 1 edges at k = 1
    assert LayeredParams(k=1, h=2**23).edge_count == MAX_EDGES - 1
    with pytest.raises(TooLarge):
        LayeredParams(k=1, h=2**23 + 1)
    start = time.perf_counter()
    for k, h in [(1000, 1000), (7, 8), (2, 31), (2, 32), (1, 10**12), (10**30, 1)]:
        with pytest.raises(TooLarge):
            AdversaryTreeParams(k=k, h=h, seed=0)
    for k, h in [(4000, 4000), (1, 10**8), (10**6, 10**6)]:
        with pytest.raises(TooLarge):
            LayeredParams(k=k, h=h)
    assert time.perf_counter() - start < 1.0


def test_adversary_tree_smallest():
    inst = gen_adversary_tree(AdversaryTreeParams(k=1, h=1, seed=0))
    assert inst.n == 4  # u1 + two children + one b-vertex
    assert inst.is_bipartite()


def test_adversary_tree_sizes():
    params = AdversaryTreeParams(k=3, h=2, seed=5)
    assert params.side_size == 13
    inst = gen_adversary_tree(params)
    assert inst.n == 26
    # revalidates through the constructor
    rebuilt = build_instance(
        inst.n, list(inst.events), list(inst.edges), inst.bipartition
    )
    assert rebuilt == inst


def test_adversary_tree_perfect_matching():
    for k, h, seed in [(2, 2, 0), (2, 3, 1), (3, 2, 2), (4, 2, 3)]:
        params = AdversaryTreeParams(k=k, h=h, seed=seed)
        inst = gen_adversary_tree(params)
        assert inst.n == 2 * params.side_size
        assert max_matching_bipartite(inst).size == params.side_size


def test_adversary_tree_deterministic():
    a = gen_adversary_tree(AdversaryTreeParams(k=3, h=3, seed=9))
    b = gen_adversary_tree(AdversaryTreeParams(k=3, h=3, seed=9))
    assert a == b


def test_p_sequence_recurrence_matches_closed_form():
    # the closed-form cross-check is asserted inside the helper
    for k in (2, 3, 7, 25, 50):
        ps = adversary_p_sequence(k, 200)
        assert ps[0] == 0.0
        assert ps[1] == pytest.approx(1 / (k + 1), abs=1e-12)
        assert ps[-1] == pytest.approx(1 / (k + 2), abs=1e-12)


def test_adversary_ratio_k7_asymptotic():
    pred = adversary_ratio(7, 8)
    closed = 62 / 63 - (6 / 7) * math.exp(-8 / 9)
    assert pred.ratio_asymptotic == pytest.approx(closed, abs=1e-12)
    assert pred.ratio_asymptotic == pytest.approx(0.631745, abs=1e-6)


def test_adversary_ratio_leaf_budget():
    start = time.perf_counter()
    for k, h in [(7, 30), (2, 24), (8, 8), (2, 10**12), (10**30, 1)]:
        with pytest.raises(TooLarge):
            adversary_ratio(k, h)
    assert time.perf_counter() - start < 1.0
    assert 7**8 < MAX_LEAVES == 2**23


def test_adversary_ratio_finite_approaches_asymptotic():
    deltas = [
        abs(adversary_ratio(7, h).ratio_finite - adversary_ratio(7, h).ratio_asymptotic)
        for h in (2, 4, 6, 8)
    ]
    assert deltas[-1] < 1e-5
    assert deltas[-1] < deltas[0]


def test_ranking_hard_structure():
    inst = gen_ranking_hard(LayeredParams(k=3, h=4))
    n = 12
    assert inst.n == 2 * n
    assert inst.is_bipartite()
    # pendants and complete bipartite between consecutive groups
    assert all((i, n + i) in inst.edges for i in range(n))
    assert inst.m == n + 3 * 3 * 3  # pendants + 3 consecutive group pairs
    # deadlines of u-vertices in index order, before all pendants
    dl = [inst.deadline_pos[v] for v in range(n)]
    assert dl == sorted(dl)
    assert max(dl) < min(inst.deadline_pos[n + i] for i in range(n))


def test_ranking_hard_perfect_matching():
    for k, h in [(1, 3), (3, 4), (5, 2)]:
        inst = gen_ranking_hard(LayeredParams(k=k, h=h))
        assert max_matching_bipartite(inst).size == k * h


def test_ranking_hard_k1_every_u_matched():
    inst = gen_ranking_hard(LayeredParams(k=1, h=3))
    n = 3
    for ranks in enumerate_rank_orders(inst):
        out = run_ranking(inst, ranks)
        for u in range(n):
            assert out.role[u] in (Role.ACTIVE, Role.PASSIVE)


def test_omega_fixed_point():
    x = omega_fixed_point()
    assert abs(x - math.exp(-x)) < 1e-12
    assert x * math.exp(x) == pytest.approx(1.0, abs=1e-12)
    assert x == pytest.approx(OMEGA, abs=1e-12)


def test_fluid_recurrence():
    res = fluid_recurrence(10, 3)
    assert res.fractions[0] == 1.0
    assert res.fractions[1] == pytest.approx(math.exp(-1.0))
    long = fluid_recurrence(10, 80)
    assert long.fractions[-1] == pytest.approx(omega_fixed_point(), abs=1e-9)


def test_fluid_recurrence_level_budget():
    assert MAX_FLUID_LEVELS == 2**20
    assert len(fluid_recurrence(2, MAX_FLUID_LEVELS).fractions) == MAX_FLUID_LEVELS
    for h in (MAX_FLUID_LEVELS + 1, 10**8, 10**30):
        with pytest.raises(TooLarge):
            fluid_recurrence(2, h)


def test_phase_simulation_matches_fluid_limit():
    """Directly simulate one group phase: each deadline consumes the
    minimum-rank unmatched group vertex unless the pendant outranks it."""
    k = 1000
    rng = np.random.default_rng(0)
    fractions = []
    for _ in range(60):
        group = np.sort(rng.random(k))
        ptr = 0
        for _ in range(k):
            if ptr < k and group[ptr] < rng.random():
                ptr += 1
        fractions.append((k - ptr) / k)
    assert np.mean(fractions) == pytest.approx(math.exp(-1.0), abs=0.01)


def test_empirical_ratio_single_edge_exact():
    mean, stderr = empirical_ratio(single_edge(), "ranking", 50, 0)
    assert mean == 1.0
    assert stderr == 0.0


def test_empirical_ratio_validation():
    with pytest.raises(ParamsInvalid):
        empirical_ratio(single_edge(), "ranking", 0, 0)
    with pytest.raises(ParamsInvalid):
        empirical_ratio(single_edge(), "dynamic", 10, 0)


def test_empirical_ratio_greedy_at_least_half():
    inst = gen_ranking_hard(LayeredParams(k=3, h=4))
    mean, _ = empirical_ratio(inst, "greedy", 3, 0)
    assert mean >= 0.5


def test_layered_ladder_approaches_omega():
    dists = []
    for k, h, trials in [(5, 5, 200), (20, 10, 200), (100, 50, 100)]:
        inst = gen_ranking_hard(LayeredParams(k=k, h=h))
        mean, stderr = empirical_ratio(inst, "ranking", trials, 1)
        dists.append(abs(mean - OMEGA))
        assert mean > OMEGA - 3 * stderr  # approaches from above
    assert dists[0] > dists[1] > dists[2]


def test_adversary_tree_empirical_matches_prediction():
    pred = adversary_ratio(3, 4)

    def gen(trial):
        return gen_adversary_tree(AdversaryTreeParams(k=3, h=4, seed=500 + trial))

    mean, stderr = empirical_ratio(gen, "ranking", 100, 0)
    assert mean == pytest.approx(pred.ratio_finite, abs=max(4 * stderr, 0.01))
    assert mean <= 0.64 + 3 * stderr


def _opt(inst):
    if inst.is_bipartite():
        return max_matching_bipartite(inst).size
    return max_matching_general(inst).size


def _tree_source(trial):
    return gen_adversary_tree(AdversaryTreeParams(k=2, h=3, seed=40 + trial))


def _recorded_rows(monkeypatch, source, trials, seed):
    """The rank rows `empirical_ratio` draws, one matrix per call of
    `drawn_ranking_sizes`, read from a copy of the generator it is handed."""
    seen = []
    real = hardness.drawn_ranking_sizes

    def recording(instance, rng, rows):
        copy = np.random.Generator(type(rng.bit_generator)())
        copy.bit_generator.state = rng.bit_generator.state
        seen.append(copy.random((rows, instance.n)))
        return real(instance, rng, rows)

    monkeypatch.setattr(hardness, "drawn_ranking_sizes", recording)
    empirical_ratio(source, "ranking", trials, seed)
    return seen


def test_per_trial_rank_rows_are_not_the_tree_streams(monkeypatch):
    # `adversary_tree_source` seeds tree t from SeedSequence([seed, t]);
    # trial t's ranks must come from a different stream
    seed = 5
    seen = _recorded_rows(monkeypatch, _tree_source, 4, seed)
    assert [rows.shape[0] for rows in seen] == [1] * 4
    for t, rows in enumerate(seen):
        n = rows.shape[1]
        ss = np.random.SeedSequence([seed, t])
        tree_seed = int(ss.generate_state(1, np.uint64)[0])
        for other in ([seed, t], tree_seed):
            assert not np.array_equal(rows[0], np.random.default_rng(other).random(n))


def test_adversary_tree_source_seeds_tree_t_from_seed_and_t():
    for k, h, seed in ((2, 3, 5), (3, 2, 0)):
        source = adversary_tree_source(k, h, seed)
        for t in range(4):
            ss = np.random.SeedSequence([seed, t])
            tree_seed = int(ss.generate_state(1, np.uint64)[0])
            want = gen_adversary_tree(AdversaryTreeParams(k, h, tree_seed))
            assert source(t) == want, (k, h, seed, t)


def test_per_trial_rank_tag_is_not_zero(monkeypatch):
    # numpy drops trailing zeros of a key, so the tag 0 would give back the
    # stream of [seed, t]
    n = 20
    zero = np.random.default_rng([3, 2, 0]).random(n)
    assert np.array_equal(zero, np.random.default_rng([3, 2]).random(n))
    seen = _recorded_rows(monkeypatch, _tree_source, 3, 3)
    row = seen[2][0]
    assert np.array_equal(row, np.random.default_rng([3, 2, 1]).random(len(row)))
    assert not np.array_equal(row, np.random.default_rng([3, 2, 0]).random(len(row)))


def test_ratio_sizes_equal_the_batch_kernel_on_the_same_rows():
    # the ratio path draws its rank rows a block at a time into the matching
    # loop; its sizes are run_ranking_batch's on the whole matrix of those
    # rows, and Greedy's are its one arrival-position row, repeated
    for inst in (
        gen_ranking_hard(LayeredParams(k=6, h=7)),
        gen_adversary_tree(AdversaryTreeParams(k=2, h=3, seed=4)),
        random_instance(40, 0.2, False, 3),
    ):
        rows = 37
        matrix = np.random.default_rng([4, 2]).random((rows, inst.n))
        want = run_ranking_batch(inst, matrix)[1].sum(axis=1)
        for block_rows in (5, rows):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "ARGSORT_ELEMENTS", block_rows * inst.n)
                got = hardness._sizes_chunk((inst, [4, 2], rows))
            assert np.array_equal(got, want)
        greedy = hardness._sizes_chunk((inst, None, 3))
        assert greedy.tolist() == [run_greedy(inst).size] * 3


def test_ratio_on_a_fixed_instance_memory_stays_flat():
    # on the layered k=100, h=50 instance (10,000 vertices), 200 trials' ranks
    # drawn as one float64 matrix (15.3 MiB) and an int32 partner array
    # (7.6 MiB) peak 33 MiB above the instance and its later-deadline CSR,
    # which is built on first use
    inst = gen_ranking_hard(LayeredParams(100, 50))
    inst.later
    peak = traced_peak_mib(lambda: empirical_ratio(inst, "ranking", 200, 1, workers=1))
    assert peak <= 16


def _mean_stderr(ratios):
    arr = np.asarray(ratios)
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(len(arr)))


def test_greedy_matches_run_greedy():
    for inst in (
        gen_ranking_hard(LayeredParams(k=4, h=5)),
        random_instance(30, 0.2, False, 1),
        random_instance(30, 0.2, True, 2),
    ):
        # the one size counts once per trial; summing 12,345 equal ratios
        # rounds, so the mean and stderr can miss r and 0 in the last digits
        want = [run_greedy(inst).size / _opt(inst)] * 12_345
        assert empirical_ratio(inst, "greedy", 12_345, 0) == _mean_stderr(want)
    want = [run_greedy(_tree_source(t)).size / _opt(_tree_source(t)) for t in range(6)]
    assert empirical_ratio(_tree_source, "greedy", 6, 9) == _mean_stderr(want)


@pytest.mark.parametrize(
    "source",
    [
        lambda t: random_instance(25, 0.25, False, 70 + t),
        lambda t: random_instance(25, 0.25, True, 80 + t),
        _tree_source,
    ],
    ids=["general", "bipartite", "adversary-tree"],
)
def test_per_trial_ranking_matches_scalar_reference(source):
    # trial t runs once on the documented ranks default_rng([seed, t, 1])
    seed, trials = 11, 12
    want = []
    for t in range(trials):
        inst = source(t)
        ranks = np.random.default_rng([seed, t, 1]).random(inst.n)
        want.append(run_ranking(inst, ranks_from_values(ranks)).size / _opt(inst))
    assert empirical_ratio(source, "ranking", trials, seed) == _mean_stderr(want)


@pytest.mark.parametrize(
    "source, trials, seed, want",
    [
        (
            gen_ranking_hard(LayeredParams(k=10, h=6)),
            200,
            7,
            "(0.63175, 0.0019506670393434119)",
        ),
        (
            lambda t: gen_adversary_tree(AdversaryTreeParams(k=3, h=3, seed=100 + t)),
            16,
            3,
            "(0.634375, 0.010427078130201837)",
        ),
        (
            random_instance(60, 0.1, False, 5),
            500,
            11,
            "(0.8713793103448275, 0.0015258830049079712)",
        ),
    ],
    ids=["layered", "adversary-tree", "general"],
)
def test_ranking_ratio_outputs_are_pinned(source, trials, seed, want):
    # values of the full-neighbourhood batch kernel: the later-deadline gather
    # must not move a single bit of them
    for workers in (1, 2):
        assert repr(empirical_ratio(source, "ranking", trials, seed, workers)) == want
