"""The blossom search that relabelled bases by scanning the whole tree.

`max_matching_general` replaced the scan on each contraction with a
union-find of blossom bases; this is the earlier form, kept so that tests
can check that the two make every decision alike and so return the same
witness.
"""

from __future__ import annotations

from collections import deque

from fomlab.instance import Instance
from fomlab.oracle import OracleResult, _greedy_start, _result


def reference_max_matching_general(instance: Instance) -> OracleResult:
    """Edmonds' blossom algorithm, relabelling bases by a whole-tree scan.

    One alternating-tree search per free vertex, from a greedy start.  A
    vertex with no augmenting path has none after later augmentations
    either, so a single pass over the vertices is exact.
    """
    n, adj = instance.n, instance.adj
    match = _greedy_start(instance)
    # Per-search state, reset after each search on the vertices it touched:
    # parent[w] is the tree parent of an odd vertex w, base[v] the base of
    # the blossom holding v, outer[v] whether v is an even vertex.
    parent = [-1] * n
    base = list(range(n))
    outer = [False] * n

    def lca(a: int, b: int) -> int:
        path = set()
        while True:
            a = base[a]
            path.add(a)
            if match[a] == -1:
                break
            a = parent[match[a]]
        while True:
            b = base[b]
            if b in path:
                return b
            b = parent[match[b]]

    def mark_path(v: int, b: int, child: int, bases: set) -> None:
        while base[v] != b:
            bases.add(base[v])
            bases.add(base[match[v]])
            parent[v] = child
            child = match[v]
            v = parent[child]

    def search(root: int, tree: list[int]) -> None:
        # Grow an alternating tree from the free vertex `root`, listing every
        # vertex it touches in `tree`; augment on reaching another free one.
        outer[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if base[v] == base[w] or match[v] == w:
                    continue
                if w == root or (match[w] != -1 and parent[match[w]] != -1):
                    # w is even too: the edge closes a blossom; contract it
                    b = lca(v, w)
                    bases: set[int] = set()
                    mark_path(v, b, w, bases)
                    mark_path(w, b, v, bases)
                    for x in tree:
                        if base[x] in bases:
                            base[x] = b
                            if not outer[x]:
                                outer[x] = True
                                queue.append(x)
                elif parent[w] == -1:
                    parent[w] = v
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
                    tree.append(mate)
                    outer[mate] = True
                    queue.append(mate)

    for root in range(n):
        if match[root] == -1 and adj[root]:
            tree = [root]
            search(root, tree)
            for x in tree:
                parent[x] = -1
                base[x] = x
                outer[x] = False
    return _result(instance, match)
