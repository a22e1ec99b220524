"""The array-backed Instance against the pure-Python reference builder.

`build_instance` validates and stores edges with numpy; these tests check
that every view the scalar paths read (`edges`, `adj`, the event positions
and the deadline order) and every error class match the one-edge-at-a-time
reference, and that the vectorised generators reproduce the Python loops'
instances from the same RNG stream.
"""

import pickle

import numpy as np
import pytest

from fomlab.hardness import (
    AdversaryTreeParams,
    LayeredParams,
    empirical_ratio,
    gen_adversary_tree,
    gen_ranking_hard,
)
from fomlab.errors import DuplicateEdge, InvariantViolated, TooLarge
from fomlab.instance import (
    MAX_PAIRS,
    A,
    D,
    build_instance,
    from_one_sided,
    random_instance,
    random_one_sided,
)
from fomlab.oracle import _check_witness
from conftest import traced_peak_mib
from reference_instance import (
    reference_adversary_tree,
    reference_build,
    reference_random,
    reference_ranking_hard,
)

VIEWS = ("edges", "adj", "deadline_order", "arrival_pos", "deadline_pos")


def _assert_matches_reference(inst, raw):
    n, events, edges, bipartition = raw
    ref = reference_build(n, events, edges, bipartition)
    for name in VIEWS:
        assert getattr(inst, name) == ref[name], name
    assert inst.events == tuple(events)
    assert inst.bipartition == (None if bipartition is None else tuple(bipartition))
    assert inst.edge_array.dtype == np.int32 and inst.indices.dtype == np.int32
    assert inst.edge_array.shape == (len(ref["edges"]), 2)
    for v in range(n):
        assert inst.neighbors(v).tolist() == list(ref["adj"][v])


def _assert_same_arrays(inst, other):
    """Equal instances with bitwise equal edge and CSR arrays, dtypes included."""
    assert inst == other
    for name in ("edge_array", "indptr", "indices"):
        a, b = getattr(inst, name), getattr(other, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def _scrambled(edges, seed):
    """The same edges in another order, some flipped."""
    rng = np.random.default_rng(seed)
    flipped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    return [flipped[i] for i in rng.permutation(len(flipped))]


@pytest.mark.parametrize("bipartite", [False, True])
def test_random_instances_match_reference_on_the_same_stream(bipartite):
    for seed in range(25):
        for n in (0, 1, 2, 7, 19):
            for p in (0.0, 0.35, 1.0):
                raw = reference_random(n, p, bipartite, seed)
                inst = random_instance(n, p, bipartite, seed)
                _assert_matches_reference(inst, raw)
                flipped = [(v, u) for u, v in raw[2]]
                for each in (_scrambled(raw[2], seed), flipped):
                    _assert_same_arrays(build_instance(n, raw[1], each, raw[3]), inst)
                    for dtype in (np.int8, np.uint16, np.int32, np.int64):
                        as_array = np.array(each, dtype=dtype).reshape(-1, 2)
                        other = build_instance(n, raw[1], as_array, raw[3])
                        _assert_same_arrays(other, inst)


def test_vertices_of_degree_zero_keep_empty_rows():
    # the first, a middle and the last vertex have no edges
    n = 9
    events = [A(v) for v in range(n)] + [D(v) for v in range(n)]
    edges = [(5, 1), (2, 7), (1, 2), (7, 6), (3, 5), (1, 7)]
    inst = build_instance(n, events, edges)
    _assert_matches_reference(inst, (n, events, edges, None))
    assert np.diff(inst.indptr)[[0, 4, 8]].tolist() == [0, 0, 0]


def test_wide_instance_keys_do_not_wrap():
    # the key u * n + v of an edge on the top ids: int32 at n = 46,340 (just
    # below 2^31), int64 at n = 46,341, and past 2^32 at n = 65,537
    for n in (46_340, 46_341, 65_537):
        events = [A(v) for v in range(n)] + [D(v) for v in range(n)]
        top = n - 1
        edges = [(top, top - 1), (0, top), (top - 2, top), (top - 1, 1), (3, 2)]
        inst = build_instance(n, events, edges)
        _assert_matches_reference(inst, (n, events, edges, None))
        for dtype in (np.int32, np.int64):
            as_array = np.array(edges, dtype=dtype)
            _assert_same_arrays(build_instance(n, events, as_array), inst)
        with pytest.raises(DuplicateEdge, match=rf"\({top - 1}, {top}\)"):
            build_instance(n, events, edges + [(top - 1, top)])
        # the witness check keys its pairs by the same rule
        _check_witness(inst, {(top, top - 1), (3, 2)})
        with pytest.raises(InvariantViolated, match=rf"\({top - 2}, {top - 1}\)"):
            _check_witness(inst, {(top - 2, top - 1)})


def test_hardness_builds_memory_stays_flat():
    # sorting both orientations of every edge as int64 keys peaks at
    # 66.5 MiB on the layered k=100, h=50 build (495,000 edges), and int64
    # edge keys alone at 28.3 MiB
    assert traced_peak_mib(lambda: gen_ranking_hard(LayeredParams(100, 50))) <= 26
    assert traced_peak_mib(lambda: gen_adversary_tree(AdversaryTreeParams(7, 3, 5))) < 7


def test_random_instance_spans_several_pair_blocks():
    # n = 600 masks its candidate pairs in blocks of whole rows
    for bipartite in (False, True):
        raw = reference_random(600, 0.02, bipartite, 11)
        _assert_matches_reference(random_instance(600, 0.02, bipartite, 11), raw)


def test_random_one_sided_matches_scalar_draws():
    # one uniform per (online, offline) pair in row-major order, as a scalar
    # loop draws them; n = 600 spans two blocks of rows
    for n, seeds in ((0, [0]), (1, [0]), (12, range(8)), (300, range(8)), (600, [3])):
        for seed in seeds:
            rng = np.random.default_rng(seed)
            adjacency = [[o for o in range(n) if rng.random() < 0.3] for _ in range(n)]
            assert random_one_sided(n, 0.3, seed) == from_one_sided(n, adjacency)


def test_random_generators_pair_budget():
    # 23,170 vertices have just under 2^28 pairs u < v; 16,384^2 is 2^28
    with pytest.raises(TooLarge):
        random_instance(23_171, 0.0, False, 0)
    with pytest.raises(TooLarge):
        random_instance(23_171, 0.0, True, 0)
    with pytest.raises(TooLarge):
        random_one_sided(16_385, 0.0, 0)
    assert 23_170 * 23_169 // 2 <= MAX_PAIRS == 16_384**2


@pytest.mark.parametrize("k,h", [(1, 1), (1, 4), (3, 1), (3, 4), (6, 5)])
def test_ranking_hard_matches_reference(k, h):
    inst = gen_ranking_hard(LayeredParams(k=k, h=h))
    _assert_matches_reference(inst, reference_ranking_hard(k, h))


TREE_CASES = [(1, 1, 0), (2, 2, 3), (2, 3, 1), (3, 2, 7), (7, 3, 5)]
TREE_CASES += [
    (k, h, seed)
    for k in (1, 2, 3, 7)
    for h in (1, 2, 3)
    for seed in (0, 1, 2, 9, 2**31 - 2)
    if (k, h, seed) not in TREE_CASES
]


@pytest.mark.parametrize("k,h,seed", TREE_CASES)
def test_adversary_tree_matches_reference(k, h, seed):
    # the generator draws a level's demoted children at once, the reference
    # one rng.permutation per parent, in turn
    inst = gen_adversary_tree(AdversaryTreeParams(k=k, h=h, seed=seed))
    _assert_matches_reference(inst, reference_adversary_tree(k, h, seed))


def test_one_sided_encodings_match_reference():
    rng = np.random.default_rng(3)
    for offline in (0, 1, 3, 6):
        for online in (0, 1, 4, 7):
            adjacency = [
                [o for o in range(offline) if rng.random() < 0.5]
                for _ in range(online)
            ]
            inst = from_one_sided(offline, adjacency)
            edges = [
                (o, offline + i) for i, nbrs in enumerate(adjacency) for o in nbrs
            ]
            raw = (inst.n, list(inst.events), edges, [0] * offline + [1] * online)
            _assert_matches_reference(inst, raw)


EV2 = [A(0), A(1), D(0), D(1)]
EV3 = [A(0), A(1), A(2), D(0), D(1), D(2)]
LATE = [A(0), A(1), D(0), A(2), D(1), D(2)]  # 0 leaves before 2 arrives

MALFORMED = [
    (-1, [], [], None),
    (2, EV2[:3], [], None),
    (1, [A(0), A(0)], [], None),
    (1, [D(0), A(0)], [], None),
    (2, [A(0), A(2), D(0), D(1)], [], None),
    (2, EV2, [(0, 2)], None),
    (2, EV2, [(-1, 1)], None),
    (2, EV2, [(0, 10**30)], None),
    (2, EV2, [(-(10**30), 1)], None),
    (2, EV2, [(0, 0)], None),
    (2, EV2, [(0, 1), (1, 0)], None),
    (3, LATE, [(0, 2)], None),
    (2, EV2, [(0, 1)], [0, 0]),
    (2, EV2, [(0, 1)], [0]),
    (2, EV2, [(0, 1)], [0, 2]),
    (2, EV2, [(0, 1, 1)], None),
    (2, EV2, [(0,)], None),
    (2, EV2, [()], None),
    (2, EV2, [(0, 1), ()], None),
    (0, [], [(0, 1)], None),
    # several faults: the first faulty edge in input order decides
    (3, EV3, [(1, 1), (0, 5)], None),
    (3, EV3, [(0, 5), (1, 1)], None),
    (3, EV3, [(0, 1), (1, 0), (2, 2)], None),
    (3, EV3, [(2, 2), (0, 1), (1, 0)], None),
    (3, LATE, [(0, 1), (0, 2), (0, 2)], None),
    (3, LATE, [(0, 1), (1, 0), (0, 2)], None),
    (3, EV3, [(0, 2), (3, 0)], [0, 0, 1]),
    (3, EV3, [(0, 1), (0, 2)], [0, 1, 0]),
    # integer arrays narrower than int64
    (3, EV3, np.array([(0, 1), (1, 0)], dtype=np.int32), None),
    (3, LATE, np.array([(0, 1), (2, 0)], dtype=np.int32), None),
    (3, EV3, np.array([(2, 2), (0, 1)], dtype=np.int32), None),
    (3, EV3, np.array([(0, 1), (-1, 2)], dtype=np.int32), None),
    (3, EV3, np.array([(0, 1), (65_535, 2)], dtype=np.uint16), None),
    (3, EV3, np.array([(2, 1), (1, 2)], dtype=np.uint16), None),
    (3, EV3, np.array([(1, 1)], dtype=np.uint16), None),
    (3, LATE, np.array([(2, 0)], dtype=np.uint16), None),
]


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_raises_the_reference_error(case):
    with pytest.raises(Exception) as expected:
        reference_build(*case)
    with pytest.raises(Exception) as got:
        build_instance(*case)
    assert type(got.value) is type(expected.value), (got.value, expected.value)


def test_equality_hash_and_repr_ignore_the_cached_views():
    a = random_instance(12, 0.5, True, 3)
    b = random_instance(12, 0.5, True, 3)
    assert a.adj and a.edges  # cached on a only
    assert "adj" in a.__dict__ and "adj" not in b.__dict__
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert repr(a) == repr(b) and "adj" not in repr(a)
    assert a != random_instance(12, 0.5, True, 4)
    assert a != build_instance(a.n, list(a.events), a.edges[1:], a.bipartition)
    copy = pickle.loads(pickle.dumps(b))
    assert copy == a and copy.adj == a.adj


def test_has_edge_reads_the_csr_rows():
    inst = random_instance(15, 0.4, False, 2)
    found = {
        (u, v)
        for u in range(-1, inst.n + 1)
        for v in range(-1, inst.n + 1)
        if inst.has_edge(u, v)
    }
    assert "edges" not in inst.__dict__ and "adj" not in inst.__dict__
    assert found == set(inst.edges) | {(v, u) for u, v in inst.edges}


def test_layered_ratio_builds_no_tuple_views():
    # one Python int per adjacency entry is what raised peak memory on the
    # full-size layered instance; its sampling path needs the arrays only
    inst = gen_ranking_hard(LayeredParams(20, 6))
    empirical_ratio(inst, "ranking", 16, 0, workers=1)
    assert "adj" not in inst.__dict__
    assert "edges" not in inst.__dict__


def test_instance_arrays_are_read_only():
    # the kernel caches `later` from `indices`; a write would leave it stale
    inst = random_instance(20, 0.3, False, 4)
    inst.later
    copies = [pickle.loads(pickle.dumps(inst, protocol=p)) for p in (2, 4, 5)]
    for each in (inst, *copies):  # protocols below 5 restore arrays writeable
        assert each == inst
        for array in (each.stream, each.edge_array, each.indptr, each.indices,
                      *each.later):
            with pytest.raises(ValueError):
                array[0] = 1
        with pytest.raises(ValueError):
            each.neighbors(3)[:] = 0
    # the generators build the stream as codes, with no Event objects
    for gen in (gen_ranking_hard(LayeredParams(3, 4)),
                gen_adversary_tree(AdversaryTreeParams(2, 3, 1)), inst):
        assert "events" not in vars(gen) and gen.stream.dtype == np.int32


def test_pickle_drops_the_tuple_views_and_keeps_later():
    # a pool worker rebuilds the views it reads; `later` it would rebuild
    # on every call, so it travels
    bare = gen_ranking_hard(LayeredParams(8, 5))
    bare.later
    full = gen_ranking_hard(LayeredParams(8, 5))
    full.later, full.events, full.edges, full.adj
    assert len(pickle.dumps(bare)) == len(pickle.dumps(full))
    copy = pickle.loads(pickle.dumps(full))
    assert copy == full and hash(copy) == hash(full)
    assert "later" in vars(copy)
    assert not {"events", "edges", "adj"} & set(vars(copy))
    assert copy.events == full.events
    assert copy.edges == full.edges and copy.adj == full.adj
