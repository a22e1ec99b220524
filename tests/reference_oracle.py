"""Earlier exact searches, kept as references for the production oracle.

`reference_max_matching_bipartite` is Hopcroft-Karp with layered BFS
phases; the blossom search serves bipartite instances now, and tests check
its sizes against this independent algorithm.
`reference_max_matching_general` is the blossom search that relabelled
bases by scanning the whole tree; `max_matching_general` replaced the scan
on each contraction with a union-find of blossom bases, and tests check
that the two make every decision alike and so return the same witness.
"""

from __future__ import annotations

from collections import deque

from fomlab.errors import NotBipartite
from fomlab.instance import Instance
from fomlab.oracle import OracleResult, _greedy_start, _result


def reference_max_matching_bipartite(instance: Instance) -> OracleResult:
    """Exact maximum matching via Hopcroft-Karp with layered BFS phases."""
    if instance.bipartition is None:
        raise NotBipartite("instance carries no bipartition witness")
    left = [v for v in range(instance.n) if instance.bipartition[v] == 0]
    match = _greedy_start(instance)
    adj = instance.adj
    INF = instance.n + 1
    # dist[-1], the sentinel slot, is the layer of the free right vertices:
    # match[w] == -1 indexes it.
    dist = [INF] * (instance.n + 1)

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
                for w in adj[u]:
                    nxt = match[w]
                    if dist[nxt] == INF:
                        dist[nxt] = dist[u] + 1
                        queue.append(nxt)
        return dist[-1] != INF

    def dfs(root: int, cursor: list[int]) -> None:
        # Iterative: an augmenting path can be as long as the graph.
        # adj[u][cursor[u] - 1] is the edge u last took down the path.
        stack = [root]
        while stack:
            u = stack[-1]
            nbrs = adj[u]
            i = cursor[u]
            while i < len(nbrs):
                nxt = match[nbrs[i]]
                i += 1
                if dist[nxt] == dist[u] + 1:
                    break
            else:
                cursor[u] = i
                dist[u] = INF
                stack.pop()
                continue
            cursor[u] = i
            if nxt != -1:
                stack.append(nxt)
                continue
            for u in stack:
                w = adj[u][cursor[u] - 1]
                match[u] = w
                match[w] = u
            return

    while bfs():
        cursor = [0] * instance.n
        for u in left:
            if match[u] == -1:
                dfs(u, cursor)
    return _result(instance, match)


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
