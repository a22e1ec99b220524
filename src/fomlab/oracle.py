"""Offline maximum-matching oracles used as competitive-ratio denominators.

Edmonds' cardinality blossom algorithm is the one exact search, for
bipartite and general graphs alike, with an exponential branch-and-bound
for tiny edge counts.  Blossom bases sit in a union-find, so a contraction
costs the blossom's two tree paths, not a scan of the whole tree.  The
tests cross-validate both oracles with each other, with networkx and with
tests/reference_oracle.py: Hopcroft-Karp and the whole-tree-scan blossom.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import InvariantViolated, NotBipartite, TooLarge
from .instance import Instance, edge_keys

BRUTEFORCE_EDGE_BUDGET = 24


@dataclass(frozen=True)
class OracleResult:
    size: int
    witness: frozenset[tuple[int, int]]


def _check_witness(instance: Instance, witness) -> None:
    """Raise InvariantViolated unless `witness` is a matching of the
    instance's edges, naming the first bad edge in sorted witness order.

    One search of the witness keys in the sorted edge keys and one endpoint
    count; the edges are walked one at a time only to name a fault.
    """
    n = instance.n
    pairs = np.fromiter(chain.from_iterable(witness), np.int64).reshape(-1, 2)
    lo, hi = np.minimum(*pairs.T), np.maximum(*pairs.T)
    keys = edge_keys(lo, hi, n)
    graph_keys = edge_keys(*instance.edge_array.T, n)
    at = np.searchsorted(graph_keys, keys)
    if (
        ((lo >= 0) & (hi < n) & (at < len(graph_keys))).all()
        and (graph_keys[at] == keys).all()
        and np.bincount(pairs.ravel(), minlength=n).max(initial=0) <= 1
    ):
        return
    used: set[int] = set()
    for u, v in sorted(witness):
        if not instance.has_edge(u, v):
            raise InvariantViolated(f"witness edge {(u, v)} not in graph")
        if u in used or v in used:
            raise InvariantViolated("witness is not a matching")
        used.update((u, v))


def _greedy_start(instance: Instance) -> list[int]:
    """A maximal matching as `match[v]` (partner or -1) to seed the exact
    search: vertices in ascending degree, each matched to its free
    neighbour of lowest degree.  Low-degree vertices have the fewest
    chances to be matched later, so this leaves few augmenting paths."""
    deg_array = np.diff(instance.indptr)
    deg = deg_array.tolist()
    match = [-1] * instance.n
    for v in np.argsort(deg_array, kind="stable").tolist():
        if match[v] != -1:
            continue
        best = -1
        for w in instance.neighbors(v).tolist():
            if match[w] == -1 and (best == -1 or deg[w] < deg[best]):
                best = w
        if best != -1:
            match[v] = best
            match[best] = v
    return match


def _result(instance: Instance, match: list[int]) -> OracleResult:
    witness = frozenset((u, w) for u, w in enumerate(match) if u < w)
    _check_witness(instance, witness)
    return OracleResult(size=len(witness), witness=witness)


def max_matching_bipartite(instance: Instance) -> OracleResult:
    """Exact maximum matching of an instance that carries a bipartition: the
    blossom search, which finds no odd cycle to contract here."""
    if instance.bipartition is None:
        raise NotBipartite("instance carries no bipartition witness")
    return max_matching_general(instance)


def max_matching_general(instance: Instance) -> OracleResult:
    """Exact maximum matching on general graphs (Edmonds' blossom algorithm).

    One alternating-tree search per free vertex, from a greedy start.  A
    vertex with no augmenting path has none after later augmentations
    either, so a single pass over the vertices is exact.  Blossom bases are
    a union-find with path compression: a contraction links the bases on
    its two paths to the new base, and touches no other vertex of the tree.
    """
    n = instance.n
    match = _greedy_start(instance)
    # only a free vertex with an edge can start an augmenting path; when the
    # greedy start leaves none, the tuple adjacency is never built
    roots = np.flatnonzero(np.equal(match, -1) & (np.diff(instance.indptr) > 0))
    if not roots.size:
        return _result(instance, match)
    adj = instance.adj
    # Per-search state, reset after each search on the vertices it touched:
    # parent[w] is the tree parent of an odd vertex w, outer[v] whether v is
    # an even vertex, and base[v] a union-find link towards the base of the
    # blossom holding v (a base links to itself).  pos[v] is v's index in
    # the search's `tree` list; it is set whenever v joins a tree.
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n
    pos = [0] * n

    def find(v: int) -> int:
        root = base[v]
        while base[root] != root:
            root = base[root]
        while base[v] != root:
            base[v], v = root, base[v]
        return root

    def lca(a: int, b: int) -> int:
        path = set()
        while True:
            a = find(a)
            path.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = find(b)
            if b in path:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, bases: set) -> None:
        while (bv := find(v)) != b:
            bases.add(bv)
            bases.add(find(match[v]))
            parent[v] = child
            child = match[v]
            v = parent[child]

    def search(root: int, tree: list[int]) -> None:
        # Grow an alternating tree from the free vertex `root`, listing every
        # vertex it touches in `tree`; augment on reaching another free one.
        outer[root] = True
        pos[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            bv = find(v)
            for w in adj[v]:
                # find(w), without the call when w links to bv or to a base
                bw = base[w]
                if bw != bv and base[bw] != bw:
                    bw = find(w)
                if bw == bv or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    # w is even too: the edge closes a blossom; contract it
                    b = lca(v, w)
                    bases: set[int] = set()
                    mark_path(v, b, w, bases)
                    mark_path(w, b, v, bases)
                    for x in bases:
                        base[x] = b
                    # the odd vertices on the paths are their own bases; they
                    # turn even in the order they joined the tree
                    odd = [x for x in bases if not outer[x]]
                    for x in sorted(odd, key=pos.__getitem__):
                        outer[x] = True
                        queue.append(x)
                    bv = b  # v is in the new blossom
                elif parent[w] == -1:
                    parent[w] = v
                    pos[w] = len(tree)
                    tree.append(w)
                    mate = match[w]
                    if mate == -1:
                        while w != -1:
                            pv = parent[w]
                            nxt = match[pv]
                            match[w] = pv
                            match[pv] = w
                            w = nxt
                        return
                    pos[mate] = len(tree)
                    tree.append(mate)
                    outer[mate] = True
                    queue.append(mate)

    for root in roots.tolist():
        # an augmenting path from an earlier root may have ended at this one
        if match[root] == -1:
            tree = [root]
            search(root, tree)
            for x in tree:
                parent[x] = -1
                base[x] = x
                outer[x] = False
    return _result(instance, match)


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
