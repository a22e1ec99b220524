import numpy as np
import pytest

from conftest import complete, cycle, path, single_edge, triangle
from fomlab.errors import NotBipartite, TooLarge
from fomlab.instance import A, D, build_instance, random_instance
from fomlab.oracle import (
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
        a = max_matching_bipartite(inst)
        b = max_matching_general(inst)
        assert a.size == b.size, inst


def test_witnesses_are_matchings(small_instances):
    for inst in small_instances:
        res = max_matching_general(inst)
        used = set()
        for u, v in res.witness:
            assert (u, v) in inst.edges
            assert u not in used and v not in used
            used.update((u, v))


def test_witness_check_survives_optimize_flag():
    """The witness check is a raise, not an assert, so `python -O` keeps it."""
    import os
    import subprocess
    import sys

    import fomlab

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
    src = os.path.dirname(os.path.dirname(fomlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "raised"
