import sys
from collections import Counter

import numpy as np
import pytest

from conftest import complete, cycle, path, single_edge, star, triangle
from fomlab.errors import InvariantViolated, NotBipartite, TooLarge
from fomlab.hardness import (
    AdversaryTreeParams,
    LayeredParams,
    gen_adversary_tree,
    gen_ranking_hard,
)
from fomlab.instance import A, D, build_instance, random_instance
from reference_oracle import (
    reference_max_matching_bipartite,
    reference_max_matching_general,
)
from fomlab.oracle import (
    BRUTEFORCE_EDGE_BUDGET,
    _check_witness,
    _greedy_start,
    max_matching_bipartite,
    max_matching_bruteforce,
    max_matching_general,
)


def test_single_edge():
    assert max_matching_bipartite(single_edge()).size == 1


def test_path_of_four():
    res = max_matching_bipartite(path(4))
    assert res.size == 2


def test_triangle_and_cycles():
    assert max_matching_general(triangle()).size == 1
    assert max_matching_general(cycle(5)).size == 2
    assert max_matching_general(complete(4)).size == 2


def test_empty_graph():
    inst = build_instance(3, [A(v) for v in range(3)] + [D(v) for v in range(3)], [])
    assert max_matching_bruteforce(inst).size == 0


def test_not_bipartite_error():
    with pytest.raises(NotBipartite):
        max_matching_bipartite(triangle())


def test_bruteforce_budget():
    inst = random_instance(12, 0.9, False, 0)
    if inst.m > 24:
        with pytest.raises(TooLarge):
            max_matching_bruteforce(inst)


def _random_with_edge_budget(rng, bipartite):
    for _ in range(50):
        n = int(rng.integers(2, 10))
        p = float(rng.uniform(0.1, 0.8))
        inst = random_instance(n, p, bipartite, int(rng.integers(0, 2**31)))
        if inst.m <= 24:
            return inst
    raise AssertionError("could not sample a small instance")


def test_blossom_vs_bruteforce_thousand_graphs():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        inst = _random_with_edge_budget(rng, bipartite=False)
        a = max_matching_general(inst)
        b = max_matching_bruteforce(inst)
        assert a.size == b.size, inst


def test_bipartite_vs_blossom_thousand_graphs():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        n = int(rng.integers(2, 12))
        p = float(rng.uniform(0.1, 0.9))
        inst = random_instance(n, p, True, int(rng.integers(0, 2**31)))
        a = reference_max_matching_bipartite(inst)
        b = max_matching_bipartite(inst)
        assert a.size == b.size, inst


def test_witnesses_are_matchings(small_instances):
    for inst in small_instances:
        res = max_matching_general(inst)
        used = set()
        for u, v in res.witness:
            assert (u, v) in inst.edges
            assert u not in used and v not in used
            used.update((u, v))


def _python_stdout(*args):
    """Run a fresh interpreter on this checkout's package; return its stdout."""
    import os
    import subprocess

    import fomlab

    src = os.path.dirname(os.path.dirname(fomlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.strip()


def test_witness_check_survives_optimize_flag():
    """The witness check is a raise, not an assert, so `python -O` keeps it."""
    code = (
        "from fomlab.errors import InvariantViolated\n"
        "from fomlab.instance import A, D, build_instance\n"
        "from fomlab.oracle import _check_witness\n"
        "inst = build_instance(3, [A(0), A(1), A(2), D(0), D(1), D(2)], [(0, 1)])\n"
        "try:\n"
        "    _check_witness(inst, {(1, 2)})\n"
        "except InvariantViolated:\n"
        "    print('raised')\n"
    )
    assert _python_stdout("-O", "-c", code) == "raised"


def _all_present(n, edges, bipartition=None):
    """Every vertex arrives before any deadline, so any edge set is valid."""
    events = [A(v) for v in range(n)] + [D(v) for v in range(n)]
    return build_instance(n, events, edges, bipartition)


def _relabelled(n, edges, rng):
    perm = rng.permutation(n)
    return _all_present(n, [(int(perm[u]), int(perm[v])) for u, v in edges])


def _blossom_shapes(rng):
    """General graphs whose maximum matchings need blossom contractions:
    odd cycles with tails, cliques with pendants, chained triangles and odd
    cycles joined by paths, each under random vertex labels."""
    for length in (3, 5, 7, 9, 15):
        cyc = [(i, (i + 1) % length) for i in range(length)]
        yield length, cyc
        tails = [(i, length + 2 * i) for i in range(length)]
        tails += [(length + 2 * i, length + 2 * i + 1) for i in range(length)]
        yield 3 * length, cyc + tails
    for size in (5, 7):
        clique = [(i, j) for i in range(size) for j in range(i + 1, size)]
        yield size, clique
        yield size + 3, clique + [(0, size), (size, size + 1), (size + 1, size + 2)]
    for count in (1, 2, 5, 12):
        chain = [(2 * i, 2 * i + 1) for i in range(count)]
        chain += [(2 * i + 1, 2 * i + 2) for i in range(count)]
        chain += [(2 * i, 2 * i + 2) for i in range(count)]
        yield 2 * count + 1, chain
        yield 2 * count + 2, chain + [(2 * count, 2 * count + 1)]
    for _ in range(20):
        # five triangles and pentagons strung together by short paths
        edges, n = [], 0
        for _ in range(5):
            size = int(rng.choice([3, 5]))
            edges += [(n + i, n + (i + 1) % size) for i in range(size)]
            if n:
                edges.append((n - 1, n + int(rng.integers(0, size))))
            n += size
            edges.append((n - 1 - int(rng.integers(0, size)), n))
            n += 1
        yield n, edges


def _networkx_size(inst, nx):
    g = nx.Graph()
    g.add_nodes_from(range(inst.n))
    g.add_edges_from(inst.edges)
    return len(nx.max_weight_matching(g, maxcardinality=True))


def test_blossom_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(200):
        n = int(rng.integers(20, 201))
        p = float(rng.uniform(0.5, 6.0)) / n
        cases.append(random_instance(n, p, False, int(rng.integers(0, 2**31))))
    for n, edges in _blossom_shapes(rng):
        for _ in range(3):
            cases.append(_relabelled(n, edges, rng))
    for inst in cases:
        res = max_matching_general(inst)
        assert res.size == _networkx_size(inst, nx), inst.edges


def test_blossom_shapes_vs_bruteforce():
    rng = np.random.default_rng(12)
    for n, edges in _blossom_shapes(rng):
        if len(edges) <= BRUTEFORCE_EDGE_BUDGET:
            inst = _relabelled(n, edges, rng)
            assert max_matching_general(inst).size == max_matching_bruteforce(inst).size


def test_blossom_witness_matches_whole_tree_scan_on_random_graphs():
    # the union-find search makes every decision of the scan, so the
    # witness, not only the size, is the same
    rng = np.random.default_rng(21)
    for _ in range(1000):
        n = int(rng.integers(4, 201))
        p = float(rng.uniform(0.5, 6.0)) / n
        inst = random_instance(n, min(p, 1.0), False, int(rng.integers(0, 2**31)))
        assert max_matching_general(inst) == reference_max_matching_general(inst)


def test_blossom_witness_matches_whole_tree_scan_on_blossom_shapes():
    rng = np.random.default_rng(22)
    for n, edges in _blossom_shapes(rng):
        for _ in range(20):
            inst = _relabelled(n, edges, rng)
            assert max_matching_general(inst) == reference_max_matching_general(inst)


def _ratio_mc_general_instances(seed):
    """The three n = 1000, p = 0.01 general instances of the benchmark's
    ratio-mc workload at `seed`, drawn as perfbench/workloads.py draws them."""
    rng = np.random.default_rng([seed, 2])
    rng.integers(0, 2**31 - 1, size=1)  # the layered task's seed
    rng.integers(0, 2**31 - 1, size=3)  # the adversary blocks' seeds
    for _ in range(3):
        inst_seed, _mc_seed = rng.integers(0, 2**31 - 1, size=2).tolist()
        yield random_instance(1000, 0.01, False, inst_seed)


@pytest.mark.parametrize("seed", [1, 2])
def test_blossom_witness_matches_whole_tree_scan_on_ratio_mc_instances(seed):
    for inst in _ratio_mc_general_instances(seed):
        assert max_matching_general(inst) == reference_max_matching_general(inst)


def test_hopcroft_karp_vs_blossom_up_to_n200():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(2, 201))
        p = float(rng.uniform(0.5, 8.0)) / n
        inst = random_instance(n, min(p, 1.0), True, int(rng.integers(0, 2**31)))
        ref = reference_max_matching_bipartite(inst)
        assert ref.size == max_matching_bipartite(inst).size


def test_bipartite_sizes_match_hopcroft_karp_up_to_n3000():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(500, 3001))
        p = float(rng.uniform(1.0, 6.0)) / n
        inst = random_instance(n, p, True, int(rng.integers(0, 2**31)))
        res = max_matching_bipartite(inst)
        ref = reference_max_matching_bipartite(inst)
        assert res.size == ref.size, (n, p)
        _check_witness(inst, res.witness)
        _check_witness(inst, ref.witness)


@pytest.mark.parametrize("k,h", [(1, 1), (2, 3), (3, 2), (7, 2)])
def test_oracles_on_hardness_families(k, h):
    for seed in range(3):
        params = AdversaryTreeParams(k=k, h=h, seed=seed)
        tree = gen_adversary_tree(params)
        assert max_matching_bipartite(tree).size == params.side_size
        assert max_matching_general(tree).size == params.side_size
    layered = gen_ranking_hard(LayeredParams(k=k, h=h))
    assert max_matching_bipartite(layered).size == k * h
    assert max_matching_general(layered).size == k * h


def _long_augmenting_path(n):
    """A path p0 .. p_{n-5} with a two-edge tail y'-y-p0 and z'-z-p_{n-5} at
    its ends, labelled so that the greedy start matches (p1, p2), (p3, p4),
    ...: it leaves p0 and p_{n-5} free, joined by one augmenting path through
    all n - 4 path vertices."""
    length = n - 4
    label = {pos: pos - 1 for pos in range(1, length - 1)}
    label[0], label[length - 1] = length - 2, length - 1
    edges = [(label[pos], label[pos + 1]) for pos in range(length - 1)]
    y, y_leaf, z, z_leaf = length, length + 1, length + 2, length + 3
    edges += [(y_leaf, y), (y, label[0]), (z_leaf, z), (z, label[length - 1])]
    side = {label[pos]: pos % 2 for pos in range(length)}
    side.update({y: 1, y_leaf: 0, z: length % 2, z_leaf: 1 - length % 2})
    return _all_present(n, edges, [side[v] for v in range(n)])


def test_hopcroft_karp_long_augmenting_path_is_iterative():
    inst = _long_augmenting_path(20_000)
    greedy = _greedy_start(inst)
    assert greedy.count(-1) == 2
    limit = sys.getrecursionlimit()
    for oracle in (max_matching_bipartite, reference_max_matching_bipartite):
        res = oracle(inst)
        assert res.size == inst.n // 2
        assert sys.getrecursionlimit() == limit


def test_blossom_builds_the_tuple_adjacency_only_for_a_search():
    # the greedy start is perfect on both hardness families, so no vertex
    # starts a search and the tuple views stay unbuilt
    for inst in (
        gen_ranking_hard(LayeredParams(k=10, h=5)),
        gen_adversary_tree(AdversaryTreeParams(k=3, h=2, seed=0)),
    ):
        res = max_matching_general(inst)
        assert res.size == inst.n // 2
        assert "adj" not in inst.__dict__
    # a 5-cycle 0-2-3-1-5 with a pendant 4 at 0: greedy matches (0, 4) and
    # (1, 3), and leaves 2 and 5 to the augmenting path 2-3-1-5
    inst = _all_present(6, [(0, 2), (0, 4), (0, 5), (1, 3), (1, 5), (2, 3)])
    assert _greedy_start(inst) == [4, 3, -1, 1, 0, -1]
    res = max_matching_general(inst)
    assert "adj" in inst.__dict__
    assert res == reference_max_matching_general(inst)
    assert res.witness == {(0, 4), (1, 5), (2, 3)}


class _CountingRows(tuple):
    """An adjacency tuple that counts the reads of each row."""

    def __getitem__(self, v):
        self.reads[v] += 1
        return tuple.__getitem__(self, v)


def test_blossom_skips_the_trees_of_failed_searches():
    # the greedy start matches leaf 1 to the centre 0; the searches from
    # leaves 2 to 5 each reach 0 and its mate 1, and fail.  Each search reads
    # its root's row; only the first reads 1's, as later ones skip the
    # failed tree {2, 0, 1}, which no augmenting path can cross
    inst = star(5)
    assert _greedy_start(inst) == [1, 0, -1, -1, -1, -1]
    rows = _CountingRows(inst.adj)
    rows.reads = Counter()
    inst.__dict__["adj"] = rows
    res = max_matching_general(inst)
    assert res.size == 1 and res.witness == {(0, 1)}
    assert max(rows.reads.values()) <= 2, rows.reads


def test_witness_check_rejects_non_matching():
    with pytest.raises(InvariantViolated, match="not a matching"):
        _check_witness(path(4), {(0, 1), (1, 2)})
    with pytest.raises(InvariantViolated, match="not in graph"):
        _check_witness(path(4), {(0, 2)})
    with pytest.raises(InvariantViolated, match="not in graph"):
        _check_witness(path(4), {(3, 4)})
    _check_witness(path(4), {(0, 1), (2, 3)})


@pytest.mark.parametrize(
    "witness, message",
    [
        ({(0, 1), (2, 4)}, r"witness edge \(2, 4\) not in graph"),
        ({(1, 0), (5, 3)}, r"witness edge \(5, 3\) not in graph"),
        ({(0, 1), (-1, 2)}, r"witness edge \(-1, 2\) not in graph"),
        ({(0, 1), (4, 6)}, r"witness edge \(4, 6\) not in graph"),
        ({(2, 3), (3, 4), (0, 1)}, "witness is not a matching"),
        ({(1, 2), (0, 1)}, "witness is not a matching"),
        # the first bad edge in sorted order decides which fault is named
        ({(3, 4), (0, 1), (1, 2), (9, 7)}, "witness is not a matching"),
        ({(3, 4), (0, 1), (1, 5), (4, 5)}, r"witness edge \(1, 5\) not in graph"),
    ],
)
def test_witness_check_names_the_first_bad_edge(witness, message):
    with pytest.raises(InvariantViolated, match=f"^{message}$"):
        _check_witness(path(6), witness)


def test_witness_check_accepts_matchings():
    for inst in (path(6), path(1), _all_present(0, [])):
        _check_witness(inst, frozenset())
    _check_witness(path(6), {(1, 0), (2, 3), (5, 4)})
    _check_witness(path(6), frozenset({(2, 1), (3, 4)}))


def test_import_does_not_load_networkx():
    code = (
        "import sys\n"
        "import fomlab, fomlab.cli, fomlab.hardness, fomlab.oracle\n"
        "print('networkx' in sys.modules)\n"
    )
    assert _python_stdout("-c", code) == "False"
