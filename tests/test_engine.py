import numpy as np
import pytest

from conftest import (
    enumerate_rank_orders,
    path,
    single_edge,
    small_instance_collection,
    star,
    triangle,
)
from fomlab import engine
from fomlab.engine import (
    Role,
    Side,
    rank_positions,
    ranks_from_values,
    run_greedy,
    run_ranking,
    run_ranking_batch,
    run_without,
    sample_ranks,
)
from fomlab.errors import IndexOutOfRange, ParamsInvalid, RankMissing
from fomlab.hardness import (
    AdversaryTreeParams,
    LayeredParams,
    gen_adversary_tree,
    gen_ranking_hard,
)
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


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_batch_rejects_nonfinite_ranks(bad):
    # the scalar engine orders inf like any rank; the batch kernel refuses it
    inst = path(3)
    matrix = np.array([[0.5, 0.3, 0.3], [0.5, bad, 0.3]])
    with pytest.raises(ParamsInvalid):
        run_ranking_batch(inst, matrix)
    with pytest.raises(ParamsInvalid):
        run_ranking_batch(inst, matrix, removed=0)


def test_batch_removed_out_of_range():
    with pytest.raises(IndexOutOfRange):
        run_ranking_batch(path(3), np.zeros((1, 3)), removed=3)


# -- the rank-position kernel against the float argmin kernel it replaced -------


def _argmin_kernel(instance, ranks_matrix, removed=None):
    """Reference: per deadline, the argmin of the unmatched neighbours' ranks
    over sorted neighbour ids (ties to the smaller id), row-major."""
    trials, n = ranks_matrix.shape
    partner = np.full((trials, n), -1, dtype=np.int32)
    active = np.zeros((trials, n), dtype=bool)
    rows = np.arange(trials)
    for v in instance.deadline_order:
        if v == removed:
            continue
        nbrs = [u for u in instance.adj[v] if u != removed]
        if not nbrs:
            continue
        nbrs_arr = np.array(nbrs, dtype=np.int32)
        cand_ranks = np.where(
            (partner[:, nbrs_arr] < 0), ranks_matrix[:, nbrs_arr], np.inf
        )
        best_idx = np.argmin(cand_ranks, axis=1)
        best_rank = cand_ranks[rows, best_idx]
        decide = (partner[:, v] < 0) & np.isfinite(best_rank)
        chosen = nbrs_arr[best_idx[decide]]
        rsel = rows[decide]
        partner[rsel, v] = chosen
        partner[rsel, chosen] = v
        active[rsel, v] = True
    return partner, active


def _kernel_instances():
    out = list(small_instance_collection())
    out.append(gen_ranking_hard(LayeredParams(k=10, h=6)))
    out += [gen_adversary_tree(AdversaryTreeParams(k=3, h=3, seed=s)) for s in (1, 2)]
    for i, (n, bipartite) in enumerate(
        [(20, False), (40, True), (60, False), (100, True), (160, False), (160, True)]
    ):
        out.append(random_instance(n, min(1.0, 6.0 / n), bipartite, 40 + i))
    return out


def _with_ties(matrix):
    tied = matrix.copy()
    tied[:, ::3] = np.round(tied[:, ::3], 1)
    return tied


@pytest.mark.parametrize("rows", [1, 31, 32, 33, 300])
def test_rank_position_kernel_matches_argmin_kernel(rows):
    rng = np.random.default_rng(rows)
    for inst in _kernel_instances():
        plain = rng.random((rows, inst.n))
        for matrix in (plain, _with_ties(plain)):
            for removed in (None, int(rng.integers(inst.n))):
                want = _argmin_kernel(inst, matrix, removed)
                # default argsort blocks, then blocks of 32 rows
                for block_elements in (engine.ARGSORT_ELEMENTS, 32 * inst.n):
                    with pytest.MonkeyPatch.context() as mp:
                        mp.setattr(engine, "ARGSORT_ELEMENTS", block_elements)
                        got = run_ranking_batch(inst, matrix, removed)
                    assert got[0].shape == (rows, inst.n)
                    assert got[0].dtype == np.int32 and got[1].dtype == bool
                    assert np.array_equal(got[0], want[0]), (inst.n, removed)
                    assert np.array_equal(got[1], want[1]), (inst.n, removed)


def test_rank_positions_order_ties_by_vertex_id():
    matrix = np.array([[0.5, 0.2, 0.5, 0.2], [0.1, 0.4, 0.3, 0.2]])
    K, V = rank_positions(matrix)
    assert K.T.tolist() == [[2, 0, 3, 1], [0, 3, 2, 1]]
    assert V.T.tolist() == [[1, 3, 0, 2], [0, 3, 2, 1]]
    assert K.dtype == np.int16

