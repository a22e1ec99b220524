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
from fomlab.errors import TooLarge
from fomlab.instance import (
    MAX_PAIRS,
    A,
    D,
    build_instance,
    from_one_sided,
    random_instance,
    random_one_sided,
)
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
                scrambled = _scrambled(raw[2], seed)
                assert build_instance(n, raw[1], scrambled, raw[3]) == inst
                as_array = np.array(scrambled, dtype=np.int32).reshape(-1, 2)
                assert build_instance(n, raw[1], as_array, raw[3]) == inst


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


@pytest.mark.parametrize(
    "k,h,seed", [(1, 1, 0), (2, 2, 3), (2, 3, 1), (3, 2, 7), (7, 3, 5)]
)
def test_adversary_tree_matches_reference(k, h, seed):
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
