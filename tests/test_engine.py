import math
import pickle

import numpy as np
import pytest

from conftest import (
    enumerate_rank_orders,
    path,
    reference_cases,
    reference_rank_variants,
    single_edge,
    small_instance_collection,
    star,
    triangle,
)
from fomlab import engine
from fomlab.engine import (
    RankAssignment,
    Role,
    Side,
    drawn_ranking_sizes,
    rank_positions,
    ranks_from_values,
    run_greedy,
    run_ranking,
    run_ranking_batch,
    sample_ranks,
)
from fomlab.errors import IndexOutOfRange, ParamsInvalid, RankMissing
from fomlab.hardness import (
    AdversaryTreeParams,
    LayeredParams,
    gen_adversary_tree,
    gen_ranking_hard,
)
from fomlab.instance import (
    A,
    D,
    EventKind,
    build_instance,
    from_one_sided,
    random_instance,
    random_one_sided,
)
from fomlab.oracle import max_matching_general
from reference_engine import reference_run_ranking


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
    assert run_ranking(inst, ranks, removed=0).size == 0
    assert run_ranking(inst, ranks, removed=1).size == 0


def test_run_without_triangle():
    inst = triangle()
    ranks = ranks_from_values([0.5, 0.2, 0.8])
    assert run_ranking(inst, ranks, removed=0).pairs == frozenset({(1, 2)})


def test_run_without_isolated_vertex():
    inst = build_instance(3, [A(0), A(1), A(2), D(0), D(1), D(2)], [(0, 1)])
    ranks = ranks_from_values([0.3, 0.6, 0.9])
    without = run_ranking(inst, ranks, removed=2)
    assert without.pairs == run_ranking(inst, ranks).pairs
    assert without.unmatched == frozenset()
    with pytest.raises(IndexOutOfRange):
        run_ranking(inst, ranks, removed=5)


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


def test_run_ranking_matches_event_walk_exhaustively():
    """Every rank order of every n <= 5 instance, with ties and just-below
    sides, every removed vertex and traces: the deadline-order walk equals
    the event walk of the reference."""
    for inst in small_instance_collection():
        if inst.n > 5:
            continue
        for order in enumerate_rank_orders(inst):
            for ranks in reference_rank_variants(order):
                for removed in [None, *range(inst.n)]:
                    for with_trace in (False, True):
                        got = run_ranking(
                            inst, ranks, removed=removed, with_trace=with_trace
                        )
                        want = reference_run_ranking(
                            inst, ranks, removed=removed, with_trace=with_trace
                        )
                        assert got == want


def test_run_ranking_matches_event_walk_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        inst = random_instance(
            n, float(rng.uniform(0.2, 0.9)), bool(rng.integers(0, 2)),
            int(rng.integers(0, 2**31 - 1)),
        )
        sides = [Side.JUST_BELOW if b else Side.AT for b in rng.integers(0, 2, n)]
        for values in (rng.random(n), rng.integers(0, 3, n) / 2):
            ranks = ranks_from_values(values, sides)
            for removed in (None, int(rng.integers(0, n))):
                got = run_ranking(inst, ranks, removed=removed, with_trace=True)
                assert got == reference_run_ranking(
                    inst, ranks, removed=removed, with_trace=True
                )


def test_run_ranking_matches_event_walk_every_removed():
    """On every reference case and every removed vertex, the run equals the
    reference event walk's, and its pairs and unmatched vertices, read off
    the partner list on use, are the ones the reference's roles give."""
    for inst, ranks in reference_cases():
        for removed in [None, *range(inst.n)]:
            got = run_ranking(inst, ranks, removed=removed)
            want = reference_run_ranking(inst, ranks, removed=removed)
            assert got == want, (inst, ranks, removed)
            role = want.role
            assert got.pairs == {
                (min(v, p), max(v, p))
                for v, p in enumerate(want.partner)
                if role[v] is Role.ACTIVE
            }
            assert got.unmatched == {
                v for v in range(inst.n) if role[v] is None and v != removed
            }


@pytest.mark.parametrize("removed", [99, 6, -1, -7])
def test_scalar_removed_out_of_range(removed):
    # scalar and batch runs reject the same vertices
    inst = random_instance(6, 0.6, False, 1)
    ranks = sample_ranks(inst, 2)
    runs = [
        lambda: run_ranking(inst, ranks, removed=removed),
        lambda: run_ranking(inst, ranks, removed=removed, with_trace=True),
        lambda: run_ranking_batch(inst, np.array([ranks.ranks]), removed),
    ]
    for run in runs:
        with pytest.raises(IndexOutOfRange):
            run()


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
            out_wo = run_ranking(inst, ranks, removed=removed)
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


def test_batch_checks_removed_before_allocating(monkeypatch):
    def no_positions(*args, **kwargs):
        raise AssertionError("rank positions allocated before the check")

    monkeypatch.setattr(engine, "rank_positions", no_positions)
    for removed in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            run_ranking_batch(path(3), np.zeros((1, 3)), removed=removed)


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


def _interleaved():
    """Arrivals and deadlines interleaved, with edges to earlier and later
    deadlines from most vertices, and two isolated vertices (7 and 8)."""
    events = [A(0), A(1), A(2), D(0), A(3), A(4), D(2), A(7), A(5), D(1),
              A(6), D(4), D(7), A(8), D(3), D(8), D(6), D(5)]
    edges = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 4), (3, 4), (3, 5),
             (1, 5), (4, 5), (4, 6), (3, 6), (5, 6)]
    return build_instance(9, events, edges)


def _kernel_instances():
    out = list(small_instance_collection())
    out.append(gen_ranking_hard(LayeredParams(k=10, h=6)))
    out += [gen_adversary_tree(AdversaryTreeParams(k=3, h=3, seed=s)) for s in (1, 2)]
    for i, (n, bipartite) in enumerate(
        [(20, False), (40, True), (60, False), (100, True), (160, False), (160, True)]
    ):
        out.append(random_instance(n, min(1.0, 6.0 / n), bipartite, 40 + i))
    # every offline vertex's later-deadline row is empty
    out += [random_one_sided(12, 0.3, 5), random_one_sided(30, 0.2, 6)]
    out.append(from_one_sided(4, [[0, 1], [], [1, 2, 3], [0, 3], [2]]))
    out.append(_interleaved())
    out.append(build_instance(4, [A(0), A(1), D(1), A(2), D(0), A(3), D(3), D(2)], []))
    out.append(build_instance(0, [], []))
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
            for removed in (None, int(rng.integers(inst.n))) if inst.n else (None,):
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


def test_later_rows_are_the_later_deadline_neighbours():
    for inst in _kernel_instances():
        ptr, later = inst.later
        assert ptr.dtype == np.int64 and later.dtype == np.int32
        assert ptr[0] == 0 and (np.diff(ptr) >= 0).all()
        for v in range(inst.n):
            want = [
                u for u in inst.adj[v] if inst.deadline_pos[u] > inst.deadline_pos[v]
            ]
            assert later[ptr[v] : ptr[v + 1]].tolist() == want
        assert ptr[-1] == inst.m == len(later)


def test_pickled_instance_keeps_later_and_kernel_output():
    inst = random_instance(50, 0.15, False, 8)
    assert "later" not in inst.__dict__
    inst.later
    copy = pickle.loads(pickle.dumps(inst))
    assert "later" in copy.__dict__
    assert copy == inst and hash(copy) == hash(inst)
    for got, want in zip(copy.later, inst.later):
        assert np.array_equal(got, want)
    matrix = _with_ties(np.random.default_rng(8).random((40, inst.n)))
    for removed in (None, 7):
        for got, want in zip(
            run_ranking_batch(copy, matrix, removed),
            run_ranking_batch(inst, matrix, removed),
        ):
            assert np.array_equal(got, want)


def test_drawn_positions_equal_positions_of_the_drawn_matrix():
    # a generator fills an array in order, so rows drawn one argsort block at
    # a time are the rows of the whole matrix; 23 trials are no multiple of 7
    trials = 23
    real = engine._positions
    for n in (1, 13, 40):
        inst = random_instance(n, 0.3, False, n)
        for block_rows in (1, 7, trials):
            seen = []

            def recording(*args):
                K, V = real(*args)
                seen.append((K.copy(), V.copy()))  # the loop overwrites K
                return K, V

            rng = np.random.default_rng([n, 5])
            matrix = rng.random((trials, n))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "ARGSORT_ELEMENTS", block_rows * n)
                want = rank_positions(matrix)
                mp.setattr(engine, "_positions", recording)
                drawing = np.random.default_rng([n, 5])
                sizes = drawn_ranking_sizes(inst, drawing, trials)
            (got,) = seen
            for a, b, c in zip(got, want, _stable_positions(matrix)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (n, block_rows)
                assert np.array_equal(a, c), (n, block_rows)
            assert np.array_equal(sizes, run_ranking_batch(inst, matrix)[1].sum(axis=1))
            # and it took exactly the matrix's numbers from the stream
            assert drawing.random() == rng.random()


def test_drawn_sizes_equal_the_batch_counts_from_a_copied_generator():
    # the same numbers through both paths: the drawn rows from a copy of the
    # generator, the matrix from the original.  n = 2**15 + 3 gives int32
    # positions, and sort blocks smaller than the row count split each draw
    rng = np.random.default_rng(16)
    for inst, trials in ((random_instance(60, 0.1, False, 16), 12), (_long_path(np.random.default_rng(15)), 3)):
        for block_rows in (1, 5, trials):
            drawing = np.random.Generator(type(rng.bit_generator)())
            drawing.bit_generator.state = rng.bit_generator.state
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "ARGSORT_ELEMENTS", block_rows * inst.n)
                got = drawn_ranking_sizes(inst, drawing, trials)
            _, active = run_ranking_batch(inst, rng.random((trials, inst.n)))
            want = active.sum(axis=1)
            assert got.dtype == want.dtype and np.array_equal(got, want), inst.n
            assert drawing.random() == rng.random()


@pytest.mark.parametrize("v", range(4))
def test_nan_ranks_are_rejected(v):
    # a NaN key compares as neither below nor above any other: on this star,
    # whose center decides first, (0.9, nan, 0.3, 0.6) made the center take
    # vertex 1 rather than vertex 2 at rank 0.3
    values = [0.9, 0.2, 0.3, 0.6]
    bad = values[:v] + [math.nan] + values[v + 1 :]
    ranks = ranks_from_values(values)
    with pytest.raises(ParamsInvalid):
        ranks_from_values(bad)
    for side in Side:
        with pytest.raises(ParamsInvalid):
            ranks.with_rank(v, math.nan, side)
    with pytest.raises(ParamsInvalid):
        RankAssignment(tuple(bad), (Side.AT,) * 4)
    # +-inf keeps its place in the scalar order, both at once included
    inf = ranks_from_values([math.inf, -math.inf, 0.3, 0.6])
    assert run_ranking(star(3), inf).partner[0] == 1


def test_sides_must_be_one_side_per_rank():
    # one side short made run_ranking fail with an IndexError inside key;
    # a string side was read as AT
    values = (0.1, 0.2, 0.3, 0.4)
    with pytest.raises(ParamsInvalid, match="4 ranks but 3 sides"):
        RankAssignment(values, (Side.AT,) * 3)
    with pytest.raises(ParamsInvalid, match="3 ranks but 2 sides"):
        ranks_from_values(values[:3], sides=[Side.AT] * 2)
    with pytest.raises(ParamsInvalid, match="5 ranks"):
        RankAssignment(values + (0.5,), (Side.AT,) * 4)
    for bad in ("at", None, Side.AT.value):
        with pytest.raises(ParamsInvalid, match="must be a Side"):
            RankAssignment(values, (Side.AT, bad, Side.AT, Side.AT))
    ranks = ranks_from_values(values, [Side.JUST_BELOW] * 4)
    with pytest.raises(ParamsInvalid, match="must be a Side"):
        ranks.with_rank(2, 0.5, "just_below")
    assert run_ranking(star(3), ranks).partner[0] == 1


def test_with_rank_checks_the_vertex():
    # v = -1 rewrote vertex 2's rank; v = 3 died with a bare IndexError
    ranks = ranks_from_values([0.1, 0.2, 0.3])
    for v in (-1, 3):
        for side in Side:
            with pytest.raises(IndexOutOfRange, match=rf"^vertex {v} out of range"):
                ranks.with_rank(v, 0.9, side)
    assert ranks.with_rank(2, 0.9).ranks == (0.1, 0.2, 0.9)


def test_rank_assignment_caches_positions_outside_equality():
    # ties on rank and side go to the smaller id, ties on rank alone to the
    # just-below side
    sides = [Side.AT, Side.JUST_BELOW, Side.JUST_BELOW, Side.AT, Side.JUST_BELOW]
    values = [0.5, 0.2, 0.5, 1.0, 0.2]
    ranks = ranks_from_values(values, sides)
    fresh = ranks_from_values(values, sides)
    assert ranks.positions == (3, 0, 2, 4, 1)
    keys = [ranks.key(v) for v in range(5)]
    for u in range(5):
        for v in range(5):
            assert (keys[u] < keys[v]) == (ranks.positions[u] < ranks.positions[v])
    assert ranks.sorted_ranks == (0.2, 0.2, 0.5, 0.5, 1.0)
    assert {"positions", "sorted_ranks"} <= set(vars(ranks))
    assert ranks == fresh and hash(ranks) == hash(fresh)
    assert repr(ranks) == repr(fresh)
    assert pickle.loads(pickle.dumps(ranks)) == fresh


def test_rank_positions_order_ties_by_vertex_id():
    matrix = np.array([[0.5, 0.2, 0.5, 0.2], [0.1, 0.4, 0.3, 0.2]])
    K, V = rank_positions(matrix)
    assert K.T.tolist() == [[2, 0, 3, 1], [0, 3, 2, 1]]
    assert V.T.tolist() == [[1, 3, 0, 2], [0, 3, 2, 1]]
    assert K.dtype == np.int16


def _stable_positions(matrix):
    """(K, V) by the definition: V is the stable argsort, K its inverse."""
    order = np.argsort(matrix, axis=1, kind="stable")
    inverse = np.argsort(order, axis=1, kind="stable")
    return inverse.T, order.T


def _near_tie_rows(rng, rows, n):
    """Rows whose values 0.5 and its next float sit at ids 1 and 0: their
    packed keys differ only in the id bits, which order them wrongly."""
    matrix = rng.random((rows, n))
    if n >= 2:
        matrix[:, 0] = np.nextafter(0.5, 1.0)
        matrix[:, 1] = 0.5
    return matrix


def _position_cases(rng, n):
    rows = 7
    plain = rng.random((rows, n))
    signed = rng.normal(size=(rows, n))
    zeros = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(rows, n))
    subnormal = rng.integers(-40, 40, size=(rows, n)) * 5e-324
    # the more negative value at the larger id
    near_negative = -_near_tie_rows(rng, rows, n)[:, ::-1]
    return {
        "float64": plain,
        "float32": plain.astype(np.float32),
        "int": rng.integers(-5, 6, size=(rows, n)),
        # distinct int64 values that round to one float64
        "int64-wide": 2**60 + rng.permutation(rows * n).reshape(rows, n),
        "signed": signed,
        "signed-zeros": zeros,
        "subnormal": subnormal,
        "exact-ties": np.round(plain, 1),
        "near-ties": _near_tie_rows(rng, rows, n),
        "near-ties-negative": near_negative,
        "mixed-rows": np.vstack([plain[:3], _near_tie_rows(rng, 2, n), plain[3:]]),
    }


@pytest.mark.parametrize("n", [1, 2, 3, 17, 300, 2**15 - 1, 2**15])
def test_rank_positions_are_the_inverse_of_a_stable_argsort(n):
    rng = np.random.default_rng(n)
    cases = _position_cases(rng, n)
    if n >= 2**14:  # a few of the cases, to keep the suite quick
        cases = {k: cases[k] for k in ("float64", "exact-ties", "near-ties")}
    dtype = np.int16 if n < 2**15 else np.int32
    for name, matrix in cases.items():
        want = _stable_positions(matrix)
        # one block, then blocks of 2 rows, so that near-tie rows share a
        # block with plain ones
        for block_elements in (engine.ARGSORT_ELEMENTS, 2 * n):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "ARGSORT_ELEMENTS", block_elements)
                got = rank_positions(matrix)
            for a, b in zip(got, want):
                assert a.dtype == dtype and np.array_equal(a, b), (name, n)


def test_int16_flat_indices_match_the_scalar_engine():
    # 300 vertices x 200 trials: the loop's flat indices pass 2**15, so an
    # int16 product would wrap
    inst = random_instance(300, 0.02, False, 11)
    matrix = np.random.default_rng(11).random((200, inst.n))
    inst.later
    K, V = rank_positions(matrix)
    assert K.dtype == np.int16 and K.size > 2**15
    partner, active = run_ranking_batch(inst, matrix)
    for t, row in enumerate(matrix):
        out = run_ranking(inst, ranks_from_values(row))
        assert partner[t].tolist() == list(out.partner), t
        assert active[t].tolist() == [r is Role.ACTIVE for r in out.role], t


def _long_path(rng):
    """A path of 2**15 + 3 vertices with 2,000 chords drawn from rng,
    deadlines in random order: its positions are int32."""
    n = 2**15 + 3
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [(int(u), int(u) + 7) for u in rng.choice(n - 7, 2000, replace=False)]
    events = [A(v) for v in range(n)] + [D(int(v)) for v in rng.permutation(n)]
    return build_instance(n, events, edges)


def test_int32_positions_match_the_argmin_kernel():
    # from n = 2**15 on, the positions and the kernel's choice are int32; a
    # path with a few chords, deadlines in random order, keeps both kernels
    # under a second
    rng = np.random.default_rng(15)
    inst = _long_path(rng)
    n = inst.n
    # ranks on a grid of 1,000 values tie often
    matrix = np.round(rng.random((3, n)), 3)
    inst.later
    assert rank_positions(matrix)[0].dtype == np.int32
    partner, active = run_ranking_batch(inst, matrix)
    want = _argmin_kernel(inst, matrix)
    assert partner.dtype == np.int32 and active.any()
    assert np.array_equal(partner, want[0])
    assert np.array_equal(active, want[1])


def test_choice_holds_each_pair_once_on_its_deadline_side():
    rng = np.random.default_rng(12)
    for inst in _kernel_instances():
        matrix = _with_ties(rng.random((40, inst.n)))
        inst.later
        K, V = rank_positions(matrix)
        choice = engine._run_ranking_positions(inst, K, V)
        partner, active = run_ranking_batch(inst, matrix)
        assert choice.dtype == V.dtype and choice.shape == (inst.n, 40)
        assert np.array_equal((choice >= 0).sum(axis=0), active.sum(axis=1))
        assert np.array_equal(choice >= 0, active.T)
        deciders, cols = np.nonzero(choice >= 0)
        chosen = choice[deciders, cols].astype(np.intp)
        dpos = np.array(inst.deadline_pos, dtype=np.int64)
        assert (dpos[deciders] < dpos[chosen]).all()
        assert (choice[chosen, cols] == -1).all()
        assert (partner[cols, deciders] == chosen).all()
        assert (partner[cols, chosen] == deciders).all()
        assert (partner >= 0).sum() == 2 * len(deciders)
