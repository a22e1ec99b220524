"""Shared fixtures: curated small instances and rank-order enumeration."""

from __future__ import annotations

import os
from itertools import permutations
from pathlib import Path

import pytest

from fomlab.engine import RankAssignment, Side, ranks_from_values
from fomlab.instance import A, D, Instance, build_instance, random_instance

# the CLI tests start `python -m fomlab.cli` in subprocesses, which import the
# package from src/ the way pyproject's pythonpath lets this process do
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def triangle() -> Instance:
    return build_instance(
        3, [A(0), A(1), A(2), D(0), D(1), D(2)], [(0, 1), (1, 2), (0, 2)]
    )


def single_edge() -> Instance:
    return build_instance(2, [A(0), A(1), D(0), D(1)], [(0, 1)], [0, 1])


def path(n: int) -> Instance:
    events = [A(v) for v in range(n)] + [D(v) for v in range(n)]
    edges = [(i, i + 1) for i in range(n - 1)]
    return build_instance(n, events, edges, [i % 2 for i in range(n)])


def cycle(n: int) -> Instance:
    events = [A(v) for v in range(n)] + [D(v) for v in range(n)]
    edges = [(i, (i + 1) % n) for i in range(n)]
    bip = [i % 2 for i in range(n)] if n % 2 == 0 else None
    return build_instance(n, events, edges, bip)


def complete(n: int) -> Instance:
    events = [A(v) for v in range(n)] + [D(v) for v in range(n)]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return build_instance(n, events, edges)


def star(leaves: int, center_first: bool = True) -> Instance:
    n = leaves + 1
    events = [A(v) for v in range(n)]
    if center_first:
        events += [D(0)] + [D(v) for v in range(1, n)]
    else:
        events += [D(v) for v in range(1, n)] + [D(0)]
    edges = [(0, v) for v in range(1, n)]
    return build_instance(n, events, edges, [0] + [1] * leaves)


def interleaved_path() -> Instance:
    # deadlines interleaved with later arrivals: exercises laziness
    events = [A(0), A(1), A(2), D(1), A(3), D(0), D(2), D(3)]
    edges = [(0, 1), (1, 2), (2, 3)]
    return build_instance(4, events, edges, [0, 1, 0, 1])


def small_instance_collection() -> list[Instance]:
    """Curated diverse instances with n <= 6, bipartite and general."""
    out = [
        single_edge(),
        path(3),
        path(4),
        path(5),
        triangle(),
        cycle(4),
        cycle(5),
        cycle(6),
        complete(4),
        complete(5),
        star(3),
        star(4, center_first=False),
        interleaved_path(),
    ]
    for seed in range(4):
        out.append(random_instance(6, 0.6, bipartite=bool(seed % 2), seed=seed))
    return out


def representative_ranks(n: int) -> list[float]:
    return [(i + 0.5) / n for i in range(n)]


def enumerate_rank_orders(instance: Instance):
    """Every assignment of distinct representative ranks to the vertices."""
    values = representative_ranks(instance.n)
    for perm in permutations(range(instance.n)):
        yield ranks_from_values([values[perm[v]] for v in range(instance.n)])


@pytest.fixture(scope="session")
def small_instances() -> list[Instance]:
    return small_instance_collection()
