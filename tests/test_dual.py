import dataclasses
import hashlib
import json
import math
from itertools import permutations

import numpy as np
import pytest

from conftest import (
    complete,
    cycle,
    path,
    reference_cases,
    single_edge,
    small_instance_collection,
    traced_peak_mib,
    triangle,
)
from fomlab.charging import (
    B2_CONSTANTS,
    CAP_OFFSET,
    CAPPED,
    EXPONENTIAL,
    PIECEWISE,
    ChargingFunction,
    ChargingKind,
    check_properties,
    ratio_bipartite,
    ratio_general,
)
from fomlab.dual import (
    EXACT_MAX_N,
    _order_statistic_table,
    assign_duals,
    exact_edge_cover,
    exact_edge_covers,
    find_victim,
    marginal_rank,
    simulate_alphas_batch,
    verify_feasibility,
)
from fomlab.engine import (
    RankAssignment,
    Role,
    Side,
    ranks_from_values,
    run_ranking,
    run_ranking_batch,
    sample_ranks,
)
from fomlab.errors import (
    ChargingInvalid,
    IndexOutOfRange,
    InvariantViolated,
    NotActive,
    OutOfDomain,
    ParamsInvalid,
    RankMissing,
    TooLarge,
)
from fomlab.instance import A, D, build_instance, random_instance
from reference_dual import (
    reference_alphas,
    reference_exact_edge_covers,
    whole_matrix_exact_edge_covers,
)
from reference_engine import reference_assign_duals, reference_marginal_rank


def test_marginal_rank_single_edge():
    inst = single_edge()
    for y_u in (0.1, 0.5, 0.9):
        ranks = ranks_from_values([y_u, 0.0])
        assert marginal_rank(inst, ranks, 1).theta == 1.0


def test_marginal_rank_isolated_vertex():
    inst = build_instance(2, [A(0), A(1), D(0), D(1)], [])
    assert marginal_rank(inst, ranks_from_values([0.2, 0.8]), 1).theta == 0.0


def test_marginal_rank_triangle():
    inst = triangle()
    ranks = ranks_from_values([0.5, 0.3, 0.0])
    assert marginal_rank(inst, ranks, 2).theta == 0.3


def test_marginal_rank_requires_full_cover():
    with pytest.raises(RankMissing):
        marginal_rank(single_edge(), ranks_from_values([0.5]), 0)


def test_marginal_rank_definition_holds(small_instances):
    """theta-minus yields passive, and so does every lower candidate; every
    higher candidate does not."""

    rng = np.random.default_rng(2)
    for inst in small_instances:
        ranks = ranks_from_values(rng.random(inst.n))
        for v in range(inst.n):
            theta = marginal_rank(inst, ranks, v).theta
            candidates = sorted(
                {ranks.ranks[u] for u in range(inst.n) if u != v} | {1.0}
            )
            for c in candidates:
                out = run_ranking(inst, ranks.with_rank(v, c, Side.JUST_BELOW))
                assert (out.role[v] is Role.PASSIVE) == (c <= theta), (inst, v, c)


def _marginal_rank_scan(inst, ranks, v):
    """Reference for marginal_rank: probe the candidates from the top, one
    full Ranking run each, and stop at the first where v is passive."""
    candidates = sorted(
        {ranks.ranks[u] for u in range(inst.n) if u != v} | {1.0}, reverse=True
    )
    for c in candidates:
        out = run_ranking(inst, ranks.with_rank(v, c, Side.JUST_BELOW))
        if out.role[v] is Role.PASSIVE:
            return c
    return 0.0


def _rank_draws(rng, n):
    """Uniform ranks; ranks on a coarse grid that tie often, some exactly 1;
    and the same with random just-below sides on the vertices."""
    yield ranks_from_values(rng.random(n))
    coarse = np.round(rng.random(n), 1)
    yield ranks_from_values(coarse)
    quarters = rng.integers(0, 5, n) / 4.0
    sides = [Side.JUST_BELOW if b else Side.AT for b in rng.random(n) < 0.5]
    yield ranks_from_values(quarters, sides)
    sides = [Side.JUST_BELOW if b else Side.AT for b in rng.random(n) < 0.5]
    yield ranks_from_values(coarse, sides)


def _assert_marginal_rank_matches_scan(inst, ranks):
    for v in range(inst.n):
        theta = marginal_rank(inst, ranks, v).theta
        ref = _marginal_rank_scan(inst, ranks, v)
        assert theta == ref and math.copysign(1.0, theta) == math.copysign(1.0, ref), (
            inst, ranks, v, theta, ref,
        )


def test_marginal_rank_matches_scan_on_small_instances(small_instances):
    rng = np.random.default_rng(41)
    for inst in small_instances:
        for _ in range(5):
            for ranks in _rank_draws(rng, inst.n):
                _assert_marginal_rank_matches_scan(inst, ranks)


def test_marginal_rank_matches_scan_on_random_instances():
    rng = np.random.default_rng(42)
    seen = {"just_below_tie": 0, "at_one": 0, "isolated": 0}
    for i in range(400):
        n = int(rng.integers(1, 13))
        inst = random_instance(n, float(rng.uniform(0.05, 0.9)), bool(i % 2), 600 + i)
        seen["isolated"] += sum(not inst.adj[v] for v in range(n))
        for ranks in _rank_draws(rng, n):
            seen["at_one"] += ranks.ranks.count(1.0)
            below = [r for r, s in zip(ranks.ranks, ranks.sides) if s is Side.JUST_BELOW]
            seen["just_below_tie"] += len(below) - len(set(below))
            _assert_marginal_rank_matches_scan(inst, ranks)
    assert all(seen.values()), seen


def _marginal_rank_one_run(inst, ranks_others, v):
    """Reference for marginal_rank: its one-run rule with the candidate set
    and every key built per call, and eligibility by `earlier_deadline`."""
    without = run_ranking(inst, ranks_others, removed=v)
    candidates = {ranks_others.ranks[u] for u in range(inst.n) if u != v} | {1.0}
    eligible = [
        u
        for u in inst.adj[v]
        if inst.earlier_deadline(u, v) and without.role[u] is not Role.PASSIVE
    ]
    if any(without.partner[u] < 0 for u in eligible):
        return max(candidates)
    limit = max((ranks_others.key(without.partner[u]) for u in eligible), default=())
    return max((c for c in candidates if (c, 0, v) < limit), default=0.0)


def test_marginal_rank_matches_one_run_reference():
    # ties, just-below sides, ranks of exactly 1 and ranks off [0, 1], where
    # 1 is a candidate below other ranks
    rng = np.random.default_rng(44)
    for i in range(100):
        n = int(rng.integers(1, 13))
        inst = random_instance(n, float(rng.uniform(0.05, 0.9)), bool(i % 2), 900 + i)
        draws = list(_rank_draws(rng, n))
        draws.append(ranks_from_values(rng.integers(-2, 7, n) / 4.0))
        for ranks in draws:
            for v in range(n):
                theta = marginal_rank(inst, ranks, v).theta
                assert theta == _marginal_rank_one_run(inst, ranks, v), (inst, ranks, v)


def test_marginal_rank_corner_cases():
    # one vertex
    inst = build_instance(1, [A(0), D(0)], [])
    assert marginal_rank(inst, ranks_from_values([0.4]), 0).theta == 0.0
    # u = 0 decides first; without v = 2 it is unmatched, so it always picks v
    inst = build_instance(3, [A(0), A(1), A(2), D(0), D(1), D(2)], [(0, 2), (1, 2)])
    assert marginal_rank(inst, ranks_from_values([0.2, 0.7, 0.5]), 2).theta == 1.0
    # u = 2 decides first and takes b without v; b sits just below 0.5, so
    # v's probe at 0.5-minus ties b's rank and side and beats b only when
    # v's id is the smaller
    events = [A(v) for v in range(3)] + [D(2), D(0), D(1)]
    for v, b in ((0, 1), (1, 0)):
        others = [0.3, 0.3, 0.3]
        others[b] = 0.5
        sides = [Side.AT] * 3
        sides[b] = Side.JUST_BELOW
        inst = build_instance(3, events, [(2, v), (2, b)])
        ranks = ranks_from_values(others, sides)
        expected = 0.5 if v < b else 0.3
        assert marginal_rank(inst, ranks, v).theta == expected
        assert _marginal_rank_scan(inst, ranks, v) == expected
    # a neighbour that is passive without v is matched before its deadline
    events = [A(v) for v in range(3)] + [D(1), D(0), D(2)]
    inst = build_instance(3, events, [(0, 1), (0, 2)])
    ranks = ranks_from_values([0.1, 0.9, 0.6])
    assert marginal_rank(inst, ranks, 2).theta == _marginal_rank_scan(inst, ranks, 2) == 0.0


def test_marginal_rank_matches_role_reference():
    # the rule on run_ranking's roles against the same rule on the reference
    # event walk's, on every reference case
    for inst, ranks in reference_cases():
        for v in range(inst.n):
            got = marginal_rank(inst, ranks, v)
            assert got == reference_marginal_rank(inst, ranks, v), (inst, ranks, v)


@pytest.mark.parametrize("v", [99, 6, -1, -7])
def test_marginal_rank_rejects_vertices_out_of_range(v):
    inst = random_instance(6, 0.6, False, 1)
    with pytest.raises(IndexOutOfRange):
        marginal_rank(inst, sample_ranks(inst, 2), v)


def test_marginal_rank_makes_one_scalar_run(small_instances, monkeypatch):
    import fomlab.dual as dual_mod
    import fomlab.engine as engine_mod

    calls = []
    real = engine_mod.run_ranking

    def counting(*args, **kwargs):
        calls.append(kwargs.get("removed"))
        return real(*args, **kwargs)

    def no_batch(*args, **kwargs):
        raise AssertionError("run_ranking_batch called")

    monkeypatch.setattr(engine_mod, "run_ranking", counting)
    monkeypatch.setattr(dual_mod, "run_ranking", counting)
    monkeypatch.setattr(dual_mod, "run_ranking_batch", no_batch)
    rng = np.random.default_rng(43)
    for inst in small_instances:
        ranks = ranks_from_values(rng.random(inst.n))
        for v in range(inst.n):
            calls.clear()
            marginal_rank(inst, ranks, v)
            assert calls == [v]


def test_find_victim_triangle():
    inst = triangle()
    ranks = ranks_from_values([0.9, 0.3, 0.6])
    assert find_victim(inst, ranks, 0) == 2


def test_find_victim_single_edge():
    inst = single_edge()
    ranks = ranks_from_values([0.4, 0.6])
    assert find_victim(inst, ranks, 0) is None


def test_find_victim_requires_active():
    inst = single_edge()
    ranks = ranks_from_values([0.4, 0.6])
    with pytest.raises(NotActive):
        find_victim(inst, ranks, 1)


@pytest.mark.parametrize("w", [99, 3, -1, -3])
def test_find_victim_rejects_vertices_out_of_range(w, monkeypatch):
    import fomlab.dual as dual_mod

    # vertex 2 decides first and is active: read as vertex n - 1, w = -1
    # would find its victim
    events = [A(0), A(1), A(2), D(2), D(0), D(1)]
    inst = build_instance(3, events, [(0, 1), (1, 2), (0, 2)])
    ranks = ranks_from_values([0.3, 0.6, 0.9])
    outcome = run_ranking(inst, ranks)
    assert outcome.role[2] is Role.ACTIVE

    def no_run(*args, **kwargs):
        raise AssertionError("Ranking ran")

    monkeypatch.setattr(dual_mod, "run_ranking", no_run)
    for given in (None, outcome):
        with pytest.raises(IndexOutOfRange):
            find_victim(inst, ranks, w, given)


def test_find_victim_takes_the_base_outcome(small_instances, monkeypatch):
    import fomlab.dual as dual_mod

    rng = np.random.default_rng(31)
    for inst in small_instances:
        ranks = ranks_from_values(rng.random(inst.n))
        outcome = run_ranking(inst, ranks)
        for w in range(inst.n):
            if outcome.role[w] is Role.ACTIVE:
                assert find_victim(inst, ranks, w, outcome) == find_victim(inst, ranks, w)
    # assign_duals runs the base Ranking once per rank vector, and then one
    # run without each active vertex, to find its victim
    calls = []
    real = dual_mod.run_ranking

    def counting(*args, **kwargs):
        calls.append(kwargs.get("removed"))
        return real(*args, **kwargs)

    ranks = ranks_from_values([0.9, 0.3, 0.6])
    role = run_ranking(triangle(), ranks).role
    monkeypatch.setattr(dual_mod, "run_ranking", counting)
    assign_duals(triangle(), ranks, PIECEWISE)
    assert calls == [None] + [w for w in range(3) if role[w] is Role.ACTIVE]
    # exact_edge_cover runs every rank order as one row of a single batch call
    calls.clear()
    batch_calls = []
    real_batch = dual_mod.run_ranking_batch

    def counting_batch(*args, **kwargs):
        batch_calls.append(1)
        return real_batch(*args, **kwargs)

    def no_victim_replay(*args, **kwargs):
        raise AssertionError("find_victim called")

    monkeypatch.setattr(dual_mod, "run_ranking_batch", counting_batch)
    monkeypatch.setattr(dual_mod, "find_victim", no_victim_replay)
    exact_edge_cover(triangle(), (0, 1), PIECEWISE)
    assert len(calls) == 0
    assert len(batch_calls) == 1


def test_assign_duals_triangle_exponential():
    inst = triangle()
    ranks = ranks_from_values([0.5, 0.2, 0.8])
    d = assign_duals(inst, ranks, EXPONENTIAL)
    assert d.alpha[0] == pytest.approx(1 - math.exp(-0.8))
    assert d.alpha[1] == pytest.approx(math.exp(-0.8))
    assert d.alpha[2] == 0.0
    assert sum(d.alpha) == pytest.approx(1.0)


def test_assign_duals_triangle_piecewise():
    inst = triangle()
    ranks = ranks_from_values([0.5, 0.2, 0.8])
    d = assign_duals(inst, ranks, PIECEWISE)
    assert d.gain[1] == pytest.approx(0.502)
    assert d.comp_in[2] == pytest.approx(0.052)
    assert d.alpha[0] == pytest.approx(0.446)
    assert d.victim_of == {0: 2}
    assert sum(d.alpha) == pytest.approx(1.0)


def test_assign_duals_checks_each_charging_once_cached(monkeypatch):
    # check_properties is cached per (charging, grid); a charging that fails
    # it still fails every entry point that takes a charging, after a valid
    # one has been cached, and before any chunk list is built
    import fomlab.dual as dual_mod

    ranks = ranks_from_values([0.5, 0.2, 0.8])
    assign_duals(triangle(), ranks, PIECEWISE)
    bad = ChargingFunction(
        ChargingKind.PIECEWISE_GENERAL, dataclasses.replace(B2_CONSTANTS, kh1=1.2)
    )
    assert float(bad.phi(1.0, Side.JUST_BELOW)) < 0
    inst = random_instance(6, 0.7, False, 1)

    def no_chunk_list(*args):
        raise AssertionError("a chunk list was built")

    monkeypatch.setattr(dual_mod, "chunk_sizes", no_chunk_list)
    calls = [
        lambda: assign_duals(triangle(), ranks, bad),
        lambda: verify_feasibility(inst, bad, 0.5, 4096, 1),
        lambda: exact_edge_covers(inst, bad),
        lambda: ratio_bipartite(bad),
        lambda: ratio_general(bad),
    ]
    for call in calls:
        for _ in range(2):
            with pytest.raises(ChargingInvalid):
                call()
    assert sum(assign_duals(triangle(), ranks, PIECEWISE).alpha) == pytest.approx(1.0)


@pytest.mark.parametrize("t", [1.5, -0.5, math.nan])
def test_piecewise_breakpoint_outside_the_unit_interval(t):
    # a t outside (0, 1) leaves g and h one linear formula on [0, 1]; it is
    # no breakpoint, so check_properties judges the pair instead of raising
    # OutOfDomain on a grid point beyond 1 or below 0
    ch = ChargingFunction(
        ChargingKind.PIECEWISE_GENERAL, dataclasses.replace(B2_CONSTANTS, t=t)
    )
    assert ch.breakpoints == ()
    report = check_properties(ch).as_dict()
    failed = {name for name, ok in report.items() if not ok}
    xs = np.linspace(0.0, 1.0, 1001)
    inst = random_instance(6, 0.7, False, 1)
    if t == 1.5:
        # the first pieces hold on all of [0, 1], bit for bit
        assert failed == set()
        assert np.array_equal(ch.g(xs, Side.JUST_BELOW), 0.21 * xs + 0.46)
        g_line, h_line = (0.21, 0.46), (0.26, 0.0)
        report = verify_feasibility(inst, ch, 0.5, 256, 1)
        assert report.cond1_violations == 0
    elif t == -0.5:
        # the second pieces: g = 0.1x + 0.405 and h = 0.17x - 0.045, whose
        # h(y)/y rises
        assert failed == {"h_over_y_nonincreasing", "passed"}
        g_line, h_line = (0.1, 0.405), (0.17, -0.045)
    else:
        assert failed == {
            "g_nondecreasing", "h_nondecreasing", "h_over_y_nonincreasing",
            "phi_nonnegative", "passed",
        }
        g_line = h_line = (math.nan, math.nan)
    if t != 1.5:
        with pytest.raises(ChargingInvalid):
            verify_feasibility(inst, ch, 0.5, 256, 1)
    # one piece: E[k U_(r:n) + c] = k r / (n + 1) + c
    for which, (k, c) in (("g", g_line), ("h", h_line)):
        for n in range(1, EXACT_MAX_N + 1):
            want = k * np.arange(1, n + 1) / (n + 1) + c
            got = _order_statistic_table(ch, which, n)
            assert np.allclose(got, want, rtol=0.0, atol=1e-14, equal_nan=True)


def test_assign_duals_matches_per_vertex_reference():
    """Every field equals the per-vertex loop's, which calls g and h once per
    active vertex, on ties and just-below sides included."""
    rng = np.random.default_rng(12)
    for _ in range(120):
        n = int(rng.integers(1, 15))
        inst = random_instance(
            n, float(rng.uniform(0.2, 0.9)), bool(rng.integers(0, 2)),
            int(rng.integers(0, 2**31 - 1)),
        )
        sides = [Side.JUST_BELOW if b else Side.AT for b in rng.integers(0, 2, n)]
        for values in (rng.random(n), rng.integers(0, 3, n) / 2):
            for ranks in (ranks_from_values(values), ranks_from_values(values, sides)):
                for charging in (EXPONENTIAL, PIECEWISE, CAPPED):
                    got = assign_duals(inst, ranks, charging)
                    want = reference_assign_duals(inst, ranks, charging)
                    assert got == want
                    # Python floats, so that reports print the same digits
                    for f in (got.alpha, got.gain, got.comp_in, got.comp_out):
                        assert {type(x) for x in f} == {float}


def test_assign_duals_reads_only_the_passive_partners_ranks():
    # vertex 0 is active and its partner 1 passive on the single edge; in the
    # triangle 0 takes 1 and leaves 2 unmatched
    for side in Side:
        with pytest.raises(OutOfDomain):
            assign_duals(
                single_edge(), ranks_from_values([0.4, 1.5], [Side.AT, side]),
                PIECEWISE,
            )
    for inst, values in [
        (single_edge(), [1.5, 0.4]),
        (triangle(), [1.5, 0.2, 0.8]),
        (triangle(), [0.5, 0.2, 1.5]),
    ]:
        ranks = ranks_from_values(values)
        for charging in (EXPONENTIAL, PIECEWISE):
            got = assign_duals(inst, ranks, charging)
            assert got == reference_assign_duals(inst, ranks, charging)


def test_assign_duals_empty_matching():
    inst = build_instance(3, [A(v) for v in range(3)] + [D(v) for v in range(3)], [])
    d = assign_duals(inst, ranks_from_values([0.1, 0.2, 0.3]), PIECEWISE)
    assert d.alpha == (0.0, 0.0, 0.0)


def test_dual_invariants_random(small_instances):
    rng = np.random.default_rng(5)
    for inst in small_instances:
        for _ in range(20):
            ranks = ranks_from_values(rng.random(inst.n))
            out = run_ranking(inst, ranks)
            d = assign_duals(inst, ranks, PIECEWISE)
            assert all(a >= -1e-12 for a in d.alpha)
            assert sum(d.alpha) == pytest.approx(out.size, abs=1e-9)
            for v in range(inst.n):
                assert d.alpha[v] == pytest.approx(
                    d.gain[v] + d.comp_in[v] - d.comp_out[v]
                )
                if d.comp_out[v] > 0:
                    assert out.role[v] is Role.ACTIVE
                    assert v in d.victim_of
                # affordability: compensation never exceeds the gain share
                assert d.comp_out[v] <= d.gain[v] + 1e-12


def test_bipartite_reduces_to_plain_gain_sharing():
    rng = np.random.default_rng(6)
    for inst in small_instance_collection():
        if not inst.is_bipartite():
            continue
        for _ in range(10):
            ranks = ranks_from_values(rng.random(inst.n))
            d = assign_duals(inst, ranks, EXPONENTIAL)
            assert d.comp_in == (0.0,) * inst.n
            assert d.comp_out == (0.0,) * inst.n


def test_batch_alphas_match_scalar(small_instances):
    rng = np.random.default_rng(9)
    for inst in small_instances:
        matrix = rng.random((40, inst.n))
        for charging in (EXPONENTIAL, PIECEWISE):
            alpha, msize = simulate_alphas_batch(inst, charging, matrix)
            for i in range(matrix.shape[0]):
                ranks = ranks_from_values(matrix[i])
                d = assign_duals(inst, ranks, charging)
                assert np.allclose(alpha[i], d.alpha, atol=1e-12), (inst, i)
                assert msize[i] == run_ranking(inst, ranks).size


def _alphas_full_replay(inst, charging, matrix):
    """Reference for simulate_alphas_batch: one full counterfactual replay
    of every row per active vertex.  Also returns the number of (row,
    vertex) pairs that paid a compensation."""
    trials, n = matrix.shape
    partner, active = run_ranking_batch(inst, matrix)
    alpha = np.zeros((trials, n))
    rows = np.arange(trials)
    for v in range(n):
        sel = active[:, v]
        if not sel.any():
            continue
        p = partner[sel, v]
        gp = charging.g_limit_grid(matrix[sel, p])
        alpha[sel, v] += 1.0 - gp
        alpha[rows[sel], p] += gp
    paid = 0
    for w in range(n):
        if not active[:, w].any() or not inst.adj[w]:
            continue
        partner_wo, _ = run_ranking_batch(inst, matrix, removed=w)
        victim = np.full(trials, -1, dtype=np.int64)
        for z in inst.adj[w]:
            hit = active[:, w] & (partner[:, z] < 0) & (partner_wo[:, z] >= 0)
            assert not (hit & (victim >= 0)).any()
            victim[hit] = z
        sel = victim >= 0
        paid += int(sel.sum())
        if not sel.any():
            continue
        p = partner[sel, w]
        amount = charging.h_limit_grid(matrix[sel, p])
        alpha[sel, w] -= amount
        alpha[rows[sel], victim[sel]] += amount
    return alpha, active.sum(axis=1), paid


def _assert_matches_full_replay(inst, charging, matrix):
    """Checks simulate_alphas_batch bitwise against the full replay and the
    trial-major form of the rule; returns the replay's paid count."""
    alpha, msize = simulate_alphas_batch(inst, charging, matrix)
    ref_alpha, ref_msize, paid = _alphas_full_replay(inst, charging, matrix)
    assert np.array_equal(alpha, ref_alpha)
    assert np.array_equal(msize, ref_msize)
    _assert_matches_trial_major_reference(inst, charging, matrix)
    return paid


def _assert_matches_trial_major_reference(inst, charging, matrix):
    alpha, msize = simulate_alphas_batch(inst, charging, matrix)
    ref_alpha, ref_msize = reference_alphas(
        inst, matrix, charging.g_limit_grid, charging.h_limit_grid
    )
    assert alpha.shape == ref_alpha.shape == matrix.shape
    assert np.array_equal(alpha, ref_alpha)
    assert np.array_equal(msize, ref_msize)


def test_batch_alphas_match_full_replay_small(small_instances):
    rng = np.random.default_rng(21)
    paid = 0
    for inst in small_instances:
        matrix = rng.random((200, inst.n))
        for charging in (EXPONENTIAL, PIECEWISE):
            paid += _assert_matches_full_replay(inst, charging, matrix)
    assert paid > 0


def test_batch_alphas_match_full_replay_random():
    rng = np.random.default_rng(22)
    paid = {False: 0, True: 0}
    for i in range(24):
        n = int(rng.integers(2, 41))
        bipartite = bool(i % 2)
        inst = random_instance(n, float(rng.uniform(0.1, 0.6)), bipartite, 300 + i)
        charging = PIECEWISE if i % 4 < 2 else EXPONENTIAL
        matrix = rng.random((128, n))
        paid[bipartite] += _assert_matches_full_replay(inst, charging, matrix)
    assert paid[False] > 0


def test_batch_alphas_match_full_replay_n160():
    inst = random_instance(160, 0.025, False, 7)
    matrix = np.random.default_rng(23).random((256, inst.n))
    assert _assert_matches_full_replay(inst, PIECEWISE, matrix) > 0
    inst = random_instance(160, 0.025, True, 8)
    _assert_matches_full_replay(inst, EXPONENTIAL, matrix)


def test_batch_alphas_match_full_replay_with_tied_ranks(small_instances):
    # ranks on a coarse grid tie often; ties go to the smaller vertex id
    rng = np.random.default_rng(25)
    paid = 0
    for i, inst in enumerate(small_instances):
        matrix = np.round(rng.random((200, inst.n)), 1)
        paid += _assert_matches_full_replay(inst, PIECEWISE, matrix)
    for i in range(12):
        n = int(rng.integers(2, 30))
        inst = random_instance(n, float(rng.uniform(0.1, 0.8)), bool(i % 2), 400 + i)
        matrix = rng.integers(0, 4, (150, n)) / 4.0
        paid += _assert_matches_full_replay(inst, PIECEWISE, matrix)
    assert paid > 0


def test_batch_alphas_match_full_replay_one_row():
    rng = np.random.default_rng(26)
    for i in range(40):
        n = int(rng.integers(2, 25))
        inst = random_instance(n, float(rng.uniform(0.1, 0.8)), bool(i % 2), 500 + i)
        _assert_matches_full_replay(inst, PIECEWISE, rng.random((1, n)))


def test_batch_alphas_partner_without_later_neighbour():
    # w = 0 takes 1 or 2 first and the other stays free; either partner's
    # only neighbour is w, so the path without w ends where it starts
    events = [A(0), A(1), A(2), D(0), D(1), D(2)]
    inst = build_instance(3, events, [(0, 1), (0, 2)])
    matrix = np.random.default_rng(27).random((300, 5))
    assert _assert_matches_full_replay(inst, PIECEWISE, matrix[:, :3]) == 0
    # partner 1's other neighbour, 2, has its deadline before w's
    events = [A(v) for v in range(5)] + [D(2), D(0), D(1), D(3), D(4)]
    inst = build_instance(5, events, [(0, 1), (0, 4), (1, 2), (2, 3)])
    assert _assert_matches_full_replay(inst, PIECEWISE, matrix) == 0


def test_batch_alphas_without_edges():
    for n in (3, 0):
        inst = build_instance(n, [A(v) for v in range(n)] + [D(v) for v in range(n)], [])
        matrix = np.random.default_rng(28).random((50, n))
        alpha, msize = simulate_alphas_batch(inst, PIECEWISE, matrix)
        assert alpha.shape == (50, n)
        assert not alpha.any() and not msize.any()
        _assert_matches_full_replay(inst, PIECEWISE, matrix)
    assert verify_feasibility(inst, PIECEWISE, 0.5, 10, 0).passed


def _reference_case_matrices():
    """`reference_cases()` as one rank matrix per instance: the batch rule
    reads the rank values only, every side being At."""
    groups = []
    for inst, ranks in reference_cases():
        if not groups or groups[-1][0] is not inst:
            groups.append((inst, []))
        groups[-1][1].append(ranks.ranks)
    return [(inst, np.array(rows).reshape(len(rows), inst.n)) for inst, rows in groups]


def test_batch_alphas_match_trial_major_reference_on_reference_cases():
    for inst, matrix in _reference_case_matrices():
        for charging in (EXPONENTIAL, PIECEWISE):
            _assert_matches_trial_major_reference(inst, charging, matrix)


def test_exact_edge_covers_match_trial_major_reference(small_instances):
    edgeless = [
        build_instance(n, [A(v) for v in range(n)] + [D(v) for v in range(n)], [])
        for n in (0, 3)
    ]
    for inst in small_instances + edgeless + [random_instance(7, 0.5, False, 9)]:
        for charging in (EXPONENTIAL, PIECEWISE, CAPPED):
            assert np.array_equal(
                exact_edge_covers(inst, charging),
                reference_exact_edge_covers(inst, charging),
            ), (inst, charging)


def test_exact_edge_covers_equal_the_whole_matrix_mean():
    # the blocked edge sums over n! make each edge's mean bit for bit
    rng = np.random.default_rng(26)
    for i in range(204):
        n, bipartite = 3 + i % 6, bool(i // 6 % 2)
        inst = random_instance(n, rng.uniform(0.2, 0.9), bipartite, 600 + i)
        charging = (EXPONENTIAL, PIECEWISE, CAPPED)[i // 12 % 3]
        want = whole_matrix_exact_edge_covers(inst, charging)
        assert np.array_equal(exact_edge_covers(inst, charging), want), (i, inst)


def test_exact_edge_covers_memory_on_k8():
    # 15.0 MiB in edge blocks; the whole (28 x 8!) cover matrix and its two
    # gathers peaked at 22.7 MiB
    inst = complete(8)
    _order_statistic_table(PIECEWISE, "g", 8)
    _order_statistic_table(PIECEWISE, "h", 8)
    assert traced_peak_mib(lambda: exact_edge_covers(inst, PIECEWISE)) < 20


def test_batch_alphas_are_a_view_of_a_vertex_major_array():
    matrix = np.random.default_rng(33).random((7, 5))
    alpha, msize = simulate_alphas_batch(cycle(5), PIECEWISE, matrix)
    assert alpha.shape == (7, 5) and msize.shape == (7,)
    assert alpha.T.flags.c_contiguous


def test_edge_covers_do_not_depend_on_the_block_size(monkeypatch):
    import fomlab.dual as dual_mod

    inst = random_instance(30, 0.3, False, 12)
    trials = 300
    ranks = np.random.default_rng([5, 0]).random((trials, inst.n))
    alpha, msize = simulate_alphas_batch(inst, PIECEWISE, ranks)
    eu, ev = inst.edge_array.T
    # the whole (edges x trials) array, each edge's covers a contiguous row
    cover = np.ascontiguousarray((alpha[:, eu] + alpha[:, ev]).T)
    want = (cover.sum(axis=1), (cover * cover).sum(axis=1))
    assert inst.m % 7
    for block in (1, 7 * trials, inst.m * trials, dual_mod.COVER_BLOCK):
        monkeypatch.setattr(dual_mod, "COVER_BLOCK", block)
        sums, sumsqs, bad = dual_mod._edge_cover_chunk((inst, PIECEWISE, 5, 0, trials))
        assert np.array_equal(sums, want[0]) and np.array_equal(sumsqs, want[1])
        assert bad == 0


def test_victims_come_from_one_base_run_per_chunk(monkeypatch):
    """The victims follow each alternating path through the base run's
    arrays: one batch run per chunk and no counterfactual replay."""
    import fomlab.dual as dual_mod

    assert "rank_positions" not in vars(dual_mod)
    assert "resume_ranking_batch" not in vars(dual_mod)
    calls = []
    real = dual_mod.run_ranking_batch

    def counting(*args, **kwargs):
        calls.append(kwargs.get("removed"))
        return real(*args, **kwargs)

    monkeypatch.setattr(dual_mod, "run_ranking_batch", counting)
    verify_feasibility(cycle(5), PIECEWISE, 0.5211, 2 * 4096 + 7, 4, workers=1)
    assert calls == [None, None, None]


def test_batch_rule_rejects_two_victims_for_one_column():
    # in the triangle at these ranks, vertex 0 is active and 2 is its victim
    inst = triangle()
    matrix = np.array([[0.9, 0.3, 0.5]])
    assert find_victim(inst, ranks_from_values(matrix[0]), 0) == 2
    simulate_alphas_batch(inst, PIECEWISE, matrix)
    # a CSR that lists the victim twice in vertex 0's row holds two victims
    # for the column (row 0, w = 0); the kernel keeps the sound later CSR
    indices = np.array([1, 2, 2, 0, 2, 0, 1], dtype=inst.indices.dtype)
    indptr = np.array([0, 3, 5, 7], dtype=inst.indptr.dtype)
    doubled = dataclasses.replace(inst, indptr=indptr, indices=indices)
    doubled.__dict__["later"] = inst.later
    with pytest.raises(InvariantViolated, match="multiple victims for vertex 0"):
        simulate_alphas_batch(doubled, PIECEWISE, matrix)


def test_batch_alphas_reject_nonfinite_ranks():
    matrix = np.array([[0.5, 0.2, 0.3], [0.5, math.inf, 0.3]])
    with pytest.raises(ParamsInvalid):
        simulate_alphas_batch(path(3), PIECEWISE, matrix)


def test_verify_feasibility_without_edges():
    inst = build_instance(2, [A(0), A(1), D(0), D(1)], [])
    report = verify_feasibility(inst, EXPONENTIAL, 0.5, 10, 0)
    assert report.min_mean is None
    assert report.passed
    summary = json.loads(json.dumps(report.as_dict(), allow_nan=False))["summary"]
    assert summary["min_mean"] is None


def test_trials_must_be_positive():
    for trials in (0, -5):
        with pytest.raises(ParamsInvalid):
            verify_feasibility(path(3), EXPONENTIAL, 0.5, trials, 0)


def test_single_edge_cover_exponential():
    (est,) = verify_feasibility(single_edge(), EXPONENTIAL, 0.5, 5000, 1).edges
    assert (est.u, est.v, est.mean, est.stderr) == (0, 1, 1.0, 0.0)


def test_single_edge_cover_piecewise():
    # the active endpoint has no victim, so no compensation leaves the edge
    # and the cover is exactly 1 in every trial (zero-sum rule)
    (est,) = verify_feasibility(single_edge(), PIECEWISE, 0.5, 5000, 1).edges
    assert (est.u, est.v, est.mean, est.stderr) == (0, 1, 1.0, 0.0)


def _assert_exact_within_4_sigma(inst, charging, seed):
    # one run estimates every edge, and one call covers every edge, both in
    # edge_array order
    report = verify_feasibility(inst, charging, 0.0, 200_000, seed)
    covers = exact_edge_covers(inst, charging)
    assert len(covers) == len(report.edges) == inst.m
    for est, exact in zip(report.edges, covers):
        assert est.mean == pytest.approx(exact, abs=max(4 * est.stderr, 1e-4))


def test_exact_edge_cover_matches_monte_carlo():
    for inst in [triangle(), path(3), path(4), cycle(4)]:
        for charging in (EXPONENTIAL, PIECEWISE):
            _assert_exact_within_4_sigma(inst, charging, 13)


def test_exact_edge_cover_matches_monte_carlo_up_to_n8():
    for n, bipartite, seed in [(5, False, 1), (6, True, 0), (7, False, 2), (8, True, 0), (8, False, 0)]:
        inst = random_instance(n, 0.7, bipartite, seed)
        assert inst.m >= 5
        _assert_exact_within_4_sigma(inst, EXPONENTIAL if bipartite else PIECEWISE, 17)


def _smooth_pieces(charging):
    """[0, 1] split where g or h changes formula: at t for the piecewise
    pair, and where e^(x-1) + CAP_OFFSET reaches 1 for the capped g."""
    points = [0.0, 1.0]
    if charging.kind is ChargingKind.PIECEWISE_GENERAL:
        points.insert(1, charging.constants.t)
    elif charging.kind is ChargingKind.CAPPED_EXPONENTIAL:
        points.insert(1, 1.0 + math.log(1.0 - CAP_OFFSET))
    return list(zip(points, points[1:]))


def _order_statistic_expectation(charging, which, r, n):
    """E[f(U_(r:n))] by Gauss-Legendre on each smooth piece of f."""
    fn = charging.g if which == "g" else charging.h
    coef = math.factorial(n) / (math.factorial(r - 1) * math.factorial(n - r))
    nodes, weights = np.polynomial.legendre.leggauss(32)
    total = 0.0
    for a, b in _smooth_pieces(charging):
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        vals = fn(xs) * xs ** (r - 1) * (1.0 - xs) ** (n - r)
        total += 0.5 * (b - a) * float(np.dot(weights, vals))
    return coef * total


def _exact_edge_cover_per_order(inst, edge, charging):
    """Reference for exact_edge_cover: one scalar Ranking run and one
    find_victim replay per active vertex in each rank order, with each
    alpha's g and h terms collected at the order statistics by hand."""
    n = inst.n
    eu, ev = min(edge), max(edge)
    total = 0.0
    orders = list(permutations(range(n)))
    for perm in orders:
        # perm[i] = vertex holding the i-th smallest rank
        position = {vtx: i for i, vtx in enumerate(perm)}
        rep = RankAssignment(
            tuple((position[v] + 0.5) / n for v in range(n)), (Side.AT,) * n
        )
        outcome = run_ranking(inst, rep)
        const = 0.0
        terms = {}

        def add(vtx, c, which, at, sign):
            nonlocal const
            if vtx not in (eu, ev):
                return
            const += c
            key = (which, position[at] + 1)
            terms[key] = terms.get(key, 0.0) + sign

        for a in range(n):
            if outcome.role[a] is not Role.ACTIVE:
                continue
            p = outcome.partner[a]
            add(a, 1.0, "g", p, -1.0)  # active share 1 - g(y_p)
            add(p, 0.0, "g", p, +1.0)  # passive share g(y_p)
            z = find_victim(inst, rep, a, outcome)
            if z is not None:
                add(a, 0.0, "h", p, -1.0)
                add(z, 0.0, "h", p, +1.0)
        total += const + sum(
            c * _order_statistic_expectation(charging, wf, r, n)
            for (wf, r), c in terms.items()
        )
    return total / len(orders)


def test_exact_edge_cover_matches_per_order_reference(small_instances):
    # the single edge, path(3), path(4), triangle, cycle(4), K4, star(3)
    # and the interleaved path
    insts = [inst for inst in small_instances if inst.n <= 4]
    assert len(insts) == 8
    for inst in insts:
        for charging in (EXPONENTIAL, PIECEWISE, CAPPED):
            covers = exact_edge_covers(inst, charging)
            for edge, exact in zip(inst.edges, covers, strict=True):
                ref = _exact_edge_cover_per_order(inst, edge, charging)
                assert exact == pytest.approx(ref, abs=1e-12), (inst, edge, charging)


def test_exact_edge_cover_reads_one_entry_of_all_covers(monkeypatch):
    import fomlab.dual as dual_mod

    calls = []
    real = dual_mod._alphas

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dual_mod, "_alphas", counting)
    for inst in (triangle(), path(4), random_instance(6, 0.6, False, 3)):
        for charging in (EXPONENTIAL, PIECEWISE):
            calls.clear()
            covers = exact_edge_covers(inst, charging)
            assert calls == [1]
            assert covers.shape == (inst.m,)
            for i, (u, v) in enumerate(inst.edges):
                assert exact_edge_cover(inst, (v, u), charging) == covers[i]
    inst = build_instance(3, [A(v) for v in range(3)] + [D(v) for v in range(3)], [])
    assert exact_edge_covers(inst, PIECEWISE).shape == (0,)


def test_exact_edge_cover_checks_mass_balance_on_every_order(monkeypatch):
    import fomlab.dual as dual_mod

    real = dual_mod._alphas

    def one_order_off(*args):
        alpha, msize = real(*args)
        alpha[-1, 0] += 1e-6
        return alpha, msize

    monkeypatch.setattr(dual_mod, "_alphas", one_order_off)
    with pytest.raises(InvariantViolated):
        exact_edge_cover(path(4), (0, 1), PIECEWISE)


def test_order_statistic_tables_are_cached_read_only():
    for charging in (EXPONENTIAL, PIECEWISE, CAPPED):
        for which in ("g", "h"):
            for n in range(1, EXACT_MAX_N + 1):
                table = _order_statistic_table(charging, which, n)
                assert _order_statistic_table(charging, which, n) is table
                fresh = _order_statistic_table.__wrapped__(charging, which, n)
                assert np.array_equal(table, fresh)
                with pytest.raises(ValueError):
                    table[0] = 0.0


def test_capped_order_statistic_tables_split_at_the_cap():
    # the capped g has a kink where it reaches 1: a Gauss-Legendre rule on
    # each side of it is exact to rounding, one rule across it is off by 2.8e-5
    for which in ("g", "h"):
        for n in range(1, EXACT_MAX_N + 1):
            want = [
                _order_statistic_expectation(CAPPED, which, r, n)
                for r in range(1, n + 1)
            ]
            got = _order_statistic_table(CAPPED, which, n)
            assert np.allclose(got, want, rtol=0.0, atol=1e-13), (which, n)


def test_exact_edge_cover_size_limit():
    assert EXACT_MAX_N == 8
    inst = random_instance(9, 0.8, False, 0)
    with pytest.raises(TooLarge):
        exact_edge_cover(inst, inst.edges[0], EXPONENTIAL)
    with pytest.raises(TooLarge):
        exact_edge_covers(inst, EXPONENTIAL)
    with pytest.raises(RankMissing):
        exact_edge_cover(path(3), (0, 2), EXPONENTIAL)


def test_verify_feasibility_report():
    inst = path(4)
    report = verify_feasibility(inst, EXPONENTIAL, 0.5541, 20_000, 3)
    assert report.cond1_violations == 0
    assert report.passed
    assert not report.failing
    data = report.as_dict()
    assert set(data) == {"edges", "summary"}
    assert data["summary"]["pass"] is True
    assert len(data["edges"]) == inst.m


def test_verify_feasibility_flags_unreachable_target():
    inst = triangle()
    report = verify_feasibility(inst, EXPONENTIAL, 0.99, 5000, 3)
    assert report.failing
    assert not report.passed


def test_figure_one_scenario_victim_persists():
    """Odd-cycle scenario: w actively matches away from v for every rank of
    v between v's marginal rank and 1, and v stays w's victim throughout."""
    inst = triangle()
    w, mid, v = 0, 1, 2
    base = ranks_from_values([0.9, 0.3, 0.5])
    theta = marginal_rank(inst, base, v).theta
    assert theta == 0.3
    # tau = marginal rank of v with w removed: mid always matches v there
    probes = [theta + 1e-9, 0.31, 0.45, 0.6, 0.89, 0.91, 0.999]
    for y in probes:
        ranks = base.with_rank(v, y)
        out = run_ranking(inst, ranks)
        assert out.role[w] is Role.ACTIVE
        assert find_victim(inst, ranks, w) == v


def test_determinism_across_worker_counts():
    inst = cycle(5)
    a = verify_feasibility(inst, PIECEWISE, 0.5211, 10_000, 2, workers=1)
    b = verify_feasibility(inst, PIECEWISE, 0.5211, 10_000, 2, workers=3)
    assert a == b


@pytest.mark.parametrize(
    "inst, charging, target, seed, digest, min_mean",
    [
        (
            random_instance(40, 0.15, False, 11),
            PIECEWISE,
            0.5211,
            5,
            "28bb58b6261c8536eaf518746b8680d12b13e67c549609057d00e2e40670c1c5",
            0.5634776646186832,
        ),
        (
            random_instance(40, 0.15, True, 12),
            EXPONENTIAL,
            0.5541,
            6,
            "2ae23910358f2a0c4171fadd4b9728881ace6859f888a581bcfa0a9d74133acf",
            0.6295422217552744,
        ),
    ],
    ids=["general-piecewise", "bipartite-exp"],
)
def test_verify_feasibility_outputs_are_pinned(inst, charging, target, seed, digest, min_mean):
    # values of the per-vertex gain and compensation loops, at 8192 trials
    # (two chunks): the whole-array dual rule must not move a single bit
    for workers in (1, 2):
        data = verify_feasibility(inst, charging, target, 8192, seed, workers).as_dict()
        stats = json.dumps([[e["mean"], e["stderr"]] for e in data["edges"]])
        assert hashlib.sha256(stats.encode()).hexdigest() == digest
        assert data["summary"]["min_mean"] == min_mean
        assert data["summary"]["pass"] and data["summary"]["cond1_violations"] == 0
