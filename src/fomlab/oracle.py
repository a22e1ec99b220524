"""Offline maximum-matching oracles used as competitive-ratio denominators.

Three redundant routes: a hand-written Hopcroft-Karp for bipartite
instances, networkx's blossom-based matcher for general graphs, and an
exponential branch-and-bound for tiny edge counts.  The test suite
cross-validates them against each other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import networkx as nx

from .errors import InvariantViolated, NotBipartite, TooLarge
from .instance import Instance

BRUTEFORCE_EDGE_BUDGET = 24


@dataclass(frozen=True)
class OracleResult:
    size: int
    witness: frozenset[tuple[int, int]]


def _check_witness(instance: Instance, witness) -> None:
    edge_set = set(instance.edges)
    used: set[int] = set()
    for u, v in witness:
        if (min(u, v), max(u, v)) not in edge_set:
            raise InvariantViolated(f"witness edge {(u, v)} not in graph")
        if u in used or v in used:
            raise InvariantViolated("witness is not a matching")
        used.add(u)
        used.add(v)


def max_matching_bipartite(instance: Instance) -> OracleResult:
    """Exact maximum matching via Hopcroft-Karp with layered BFS phases."""
    if instance.bipartition is None:
        raise NotBipartite("instance carries no bipartition witness")
    left = [v for v in range(instance.n) if instance.bipartition[v] == 0]
    INF = instance.n + 1
    match = [-1] * instance.n

    # greedy initialization cuts the number of augmenting phases
    for u in left:
        for w in instance.adj[u]:
            if match[w] == -1:
                match[u] = w
                match[w] = u
                break

    dist = {}

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if match[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        dist[-1] = INF
        while queue:
            u = queue.popleft()
            if dist[u] < dist[-1]:
                for w in instance.adj[u]:
                    nxt = match[w]
                    if dist[nxt] == INF:
                        dist[nxt] = dist[u] + 1
                        queue.append(nxt)
        return dist[-1] != INF

    def dfs(u: int) -> bool:
        if u == -1:
            return True
        for w in instance.adj[u]:
            nxt = match[w]
            if dist[nxt] == dist[u] + 1 and dfs(nxt):
                match[w] = u
                match[u] = w
                return True
        dist[u] = INF
        return False

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * instance.n + 100))
    try:
        while bfs():
            for u in left:
                if match[u] == -1:
                    dfs(u)
    finally:
        sys.setrecursionlimit(old_limit)

    witness = frozenset(
        (u, match[u]) for u in left if match[u] != -1
    )
    witness = frozenset((min(u, v), max(u, v)) for u, v in witness)
    _check_witness(instance, witness)
    return OracleResult(size=len(witness), witness=witness)


def max_matching_general(instance: Instance) -> OracleResult:
    """Exact maximum matching on general graphs (blossom, via networkx)."""
    g = nx.Graph()
    g.add_nodes_from(range(instance.n))
    g.add_edges_from(instance.edges)
    matching = nx.max_weight_matching(g, maxcardinality=True)
    witness = frozenset((min(u, v), max(u, v)) for u, v in matching)
    _check_witness(instance, witness)
    return OracleResult(size=len(witness), witness=witness)


def max_matching_bruteforce(instance: Instance) -> OracleResult:
    """Exact maximum matching by include/exclude branching on edges."""
    edges = instance.edges
    if len(edges) > BRUTEFORCE_EDGE_BUDGET:
        raise TooLarge(
            f"{len(edges)} edges exceeds brute-force budget {BRUTEFORCE_EDGE_BUDGET}"
        )
    best_size = 0
    best: list[tuple[int, int]] = []
    used = [False] * instance.n
    chosen: list[tuple[int, int]] = []

    def recurse(i: int) -> None:
        nonlocal best_size, best
        # prune: even taking every remaining edge cannot beat the incumbent
        if len(chosen) + (len(edges) - i) <= best_size:
            return
        if i == len(edges):
            if len(chosen) > best_size:
                best_size = len(chosen)
                best = list(chosen)
            return
        u, v = edges[i]
        if not used[u] and not used[v]:
            used[u] = used[v] = True
            chosen.append((u, v))
            recurse(i + 1)
            chosen.pop()
            used[u] = used[v] = False
        recurse(i + 1)

    recurse(0)
    witness = frozenset(best)
    _check_witness(instance, witness)
    return OracleResult(size=best_size, witness=witness)
