import numpy as np
import pytest

from conftest import (
    enumerate_rank_orders,
    single_edge,
    small_instance_collection,
    star,
    triangle,
)
from fomlab.engine import (
    Role,
    Side,
    ranks_from_values,
    run_greedy,
    run_ranking,
    run_ranking_batch,
    run_without,
    sample_ranks,
)
from fomlab.errors import IndexOutOfRange, RankMissing
from fomlab.instance import A, D, EventKind, build_instance, random_instance
from fomlab.oracle import max_matching_general


def test_sample_ranks_deterministic():
    inst = single_edge()
    assert sample_ranks(inst, 5) == sample_ranks(inst, 5)
    assert sample_ranks(inst, 5) != sample_ranks(inst, 6)


def test_sample_ranks_mean():
    inst = build_instance(
        10**5,
        [A(v) for v in range(10**5)] + [D(v) for v in range(10**5)],
        [],
    )
    ranks = sample_ranks(inst, 42)
    assert abs(np.mean(ranks.ranks) - 0.5) < 0.01


def test_single_edge_forced_match():
    inst = single_edge()
    out = run_ranking(inst, ranks_from_values([0.7, 0.1]))
    assert out.pairs == frozenset({(0, 1)})
    assert out.role[0] is Role.ACTIVE
    assert out.role[1] is Role.PASSIVE


def test_triangle_hand_traces():
    inst = triangle()
    out = run_ranking(inst, ranks_from_values([0.5, 0.2, 0.8]))
    assert out.pairs == frozenset({(0, 1)})
    assert out.unmatched == frozenset({2})
    out = run_ranking(inst, ranks_from_values([0.5, 0.9, 0.1]))
    assert out.pairs == frozenset({(0, 2)})
    assert out.unmatched == frozenset({1})


def test_rank_missing():
    with pytest.raises(RankMissing):
        run_ranking(single_edge(), ranks_from_values([0.5]))


def test_active_deadline_precedes_passive():
    for inst in small_instance_collection():
        ranks = sample_ranks(inst, 17)
        out = run_ranking(inst, ranks)
        for u, v in out.pairs:
            active = u if out.role[u] is Role.ACTIVE else v
            passive = v if active == u else u
            assert inst.earlier_deadline(active, passive)


def test_maximality():
    for inst in small_instance_collection():
        out = run_ranking(inst, sample_ranks(inst, 3))
        for u, v in inst.edges:
            assert not (u in out.unmatched and v in out.unmatched)


def test_greedy_star():
    inst = star(3)
    out = run_greedy(inst)
    assert out.size == 1
    assert out.partner[0] == 1  # earliest-arrived leaf


def _greedy_reference(instance):
    """Earliest-arrival rule, written out: partner and role per vertex."""
    partner = [-1] * instance.n
    role = [None] * instance.n
    for ev in instance.events:
        v = ev.vertex
        if ev.kind is not EventKind.DEADLINE or partner[v] >= 0:
            continue
        free = [u for u in instance.adj[v] if partner[u] < 0]
        if free:
            u = min(free, key=lambda w: (instance.arrival_pos[w], w))
            partner[v], partner[u] = u, v
            role[v], role[u] = Role.ACTIVE, Role.PASSIVE
    return partner, role


def test_greedy_is_ranking_by_arrival_position():
    rng = np.random.default_rng(17)
    for i in range(200):
        n = int(rng.integers(2, 41))
        inst = random_instance(n, float(rng.uniform(0.1, 0.9)), i % 2 == 1, 900 + i)
        partner, role = _greedy_reference(inst)
        out = run_greedy(inst)
        assert out.pairs == frozenset(
            (v, p) for v, p in enumerate(partner) if 0 <= v < p
        )
        assert list(out.role) == role


def test_greedy_half_of_opt():
    for inst in small_instance_collection():
        opt = max_matching_general(inst).size
        assert run_greedy(inst).size >= (opt + 1) // 2


def test_ranking_half_of_opt():
    for inst in small_instance_collection():
        opt = max_matching_general(inst).size
        for seed in range(5):
            assert run_ranking(inst, sample_ranks(inst, seed)).size >= opt / 2


def test_run_without_single_edge():
    inst = single_edge()
    ranks = ranks_from_values([0.4, 0.6])
    assert run_without(inst, ranks, 0).size == 0
    assert run_without(inst, ranks, 1).size == 0


def test_run_without_triangle():
    inst = triangle()
    ranks = ranks_from_values([0.5, 0.2, 0.8])
    assert run_without(inst, ranks, 0).pairs == frozenset({(1, 2)})


def test_run_without_isolated_vertex():
    inst = build_instance(3, [A(0), A(1), A(2), D(0), D(1), D(2)], [(0, 1)])
    ranks = ranks_from_values([0.3, 0.6, 0.9])
    assert run_without(inst, ranks, 2).pairs == run_ranking(inst, ranks).pairs
    with pytest.raises(IndexOutOfRange):
        run_without(inst, ranks, 5)


def test_just_below_side_breaks_ties():
    # equal rank values: JustBelow sorts before At, then smaller id
    inst = star(2)
    ranks = ranks_from_values([0.9, 0.5, 0.5], sides=[Side.AT, Side.AT, Side.JUST_BELOW])
    out = run_ranking(inst, ranks)
    assert out.partner[0] == 2


def test_trace_format():
    inst = single_edge()
    out = run_ranking(inst, ranks_from_values([0.25, 0.125]), with_trace=True)
    assert out.trace == (
        "deadline v=0 decision=match partner=1 rank=0.125",
        "deadline v=1 decision=already-matched partner=0 rank=0.25",
    )


def test_batch_matches_scalar_exhaustively():
    """The numpy kernel must replay the scalar engine exactly."""
    for inst in small_instance_collection():
        if inst.n > 5:
            continue
        ranks_rows = [list(r.ranks) for r in enumerate_rank_orders(inst)]
        matrix = np.array(ranks_rows)
        partner, active = run_ranking_batch(inst, matrix)
        for i, row in enumerate(ranks_rows):
            out = run_ranking(inst, ranks_from_values(row))
            assert tuple(partner[i]) == out.partner
            for v in range(inst.n):
                assert active[i, v] == (out.role[v] is Role.ACTIVE)


def test_batch_matches_scalar_random():
    rng = np.random.default_rng(0)
    for inst in small_instance_collection():
        matrix = rng.random((50, inst.n))
        partner, active = run_ranking_batch(inst, matrix)
        removed = inst.n // 2
        partner_wo, _ = run_ranking_batch(inst, matrix, removed=removed)
        for i in range(50):
            ranks = ranks_from_values(matrix[i])
            out = run_ranking(inst, ranks)
            assert tuple(partner[i]) == out.partner
            out_wo = run_without(inst, ranks, removed)
            assert tuple(partner_wo[i]) == out_wo.partner
