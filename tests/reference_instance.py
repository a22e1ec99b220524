"""Pure-Python references for the numpy instance builder and generators.

`reference_build` is the one-edge-at-a-time builder that `build_instance`
replaced; it returns the tuple views and positions that the array-backed
Instance must reproduce.  The generators below emit the raw pieces the way
the Python loops did, drawing from the same RNG stream, so that the
vectorised generators can be checked against them edge for edge.
"""

from __future__ import annotations

import numpy as np

from fomlab.errors import (
    DuplicateEdge,
    EdgeViolatesModel,
    IndexOutOfRange,
    MalformedEvents,
    SelfLoop,
)
from fomlab.instance import A, D, EventKind


def reference_build(n, events, edges, bipartition=None) -> dict:
    if n < 0:
        raise MalformedEvents(f"negative vertex count {n}")
    if len(events) != 2 * n:
        raise MalformedEvents(f"expected {2 * n} events, got {len(events)}")
    arrival_pos = [-1] * n
    deadline_pos = [-1] * n
    for pos, ev in enumerate(events):
        if not (0 <= ev.vertex < n):
            raise MalformedEvents("event vertex out of range")
        slot = arrival_pos if ev.kind is EventKind.ARRIVAL else deadline_pos
        if slot[ev.vertex] != -1:
            raise MalformedEvents("duplicate event")
        slot[ev.vertex] = pos
    for v in range(n):
        if arrival_pos[v] == -1 or deadline_pos[v] == -1:
            raise MalformedEvents("missing event")
        if arrival_pos[v] > deadline_pos[v]:
            raise MalformedEvents("deadline before arrival")

    seen = set()
    norm_edges = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange("edge out of range")
        if u == v:
            raise SelfLoop("self-loop")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise DuplicateEdge("duplicate edge")
        seen.add(e)
        a, b = e
        if max(arrival_pos[a], arrival_pos[b]) > min(deadline_pos[a], deadline_pos[b]):
            raise EdgeViolatesModel("edge violates the model")
        norm_edges.append(e)
    norm_edges.sort()

    if bipartition is not None:
        if len(bipartition) != n or any(s not in (0, 1) for s in bipartition):
            raise MalformedEvents("bad bipartition")
        for u, v in norm_edges:
            if bipartition[u] == bipartition[v]:
                raise MalformedEvents("edge does not cross the bipartition")

    adj = [[] for _ in range(n)]
    for u, v in norm_edges:
        adj[u].append(v)
        adj[v].append(u)
    return {
        "edges": tuple(norm_edges),
        "adj": tuple(tuple(sorted(a)) for a in adj),
        "deadline_order": tuple(sorted(range(n), key=lambda v: deadline_pos[v])),
        "arrival_pos": tuple(arrival_pos),
        "deadline_pos": tuple(deadline_pos),
    }


def reference_random(n, edge_prob, bipartite, seed):
    """The raw pieces of `random_instance`, one `rng.random()` per pair."""
    rng = np.random.default_rng(seed)
    slots = rng.permutation(2 * n)
    events = [None] * (2 * n)
    arrival_pos = [0] * n
    deadline_pos = [0] * n
    for v in range(n):
        a, d = sorted((int(slots[2 * v]), int(slots[2 * v + 1])))
        events[a] = A(v)
        events[d] = D(v)
        arrival_pos[v] = a
        deadline_pos[v] = d
    bipartition = None
    if bipartite:
        bipartition = [int(s) for s in rng.integers(0, 2, size=n)]
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if bipartition is not None and bipartition[u] == bipartition[v]:
                continue
            if rng.random() >= edge_prob:
                continue
            if max(arrival_pos[u], arrival_pos[v]) > min(
                deadline_pos[u], deadline_pos[v]
            ):
                continue
            edges.append((u, v))
    return n, events, edges, bipartition


def reference_ranking_hard(k, h):
    n = k * h
    color = [(i // k) % 2 for i in range(n)] + [1 - (i // k) % 2 for i in range(n)]
    edges = [(i, n + i) for i in range(n)]
    for i in range(n):
        g = i // k
        if g + 1 < h:
            edges.extend((i, j) for j in range((g + 1) * k, (g + 2) * k))
    events = [A(v) for v in range(2 * n)] + [D(v) for v in range(2 * n)]
    return 2 * n, events, edges, color


def reference_adversary_tree(k, h, seed):
    rng = np.random.default_rng(seed)
    events, edges, color = [], [], []

    def new_vertex(c):
        color.append(c)
        return len(color) - 1

    root = new_vertex(0)
    events.append(A(root))
    frontier = [root]
    for _ in range(h):
        next_frontier = []
        for u in frontier:
            children = [new_vertex(1 - color[u]) for _ in range(k + 1)]
            for c in children:
                events.append(A(c))
                edges.append((u, c))
            events.append(D(u))
            keep = rng.permutation(k + 1)[:k]
            next_frontier.extend(children[i] for i in sorted(keep))
        frontier = next_frontier
    a_order = [frontier[i] for i in rng.permutation(len(frontier))]
    b_color = 1 - color[a_order[0]]
    for i in range(len(a_order)):
        b = new_vertex(b_color)
        events.append(A(b))
        edges.extend((b, a) for a in a_order[i:])
        events.append(D(b))
    seen = {ev.vertex for ev in events if ev.kind is EventKind.DEADLINE}
    events.extend(D(v) for v in range(len(color)) if v not in seen)
    return len(color), events, edges, color
