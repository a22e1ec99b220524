"""Executable structural properties of Ranking, shared by the property and
acceptance suites.  Each checker raises AssertionError on violation."""

from __future__ import annotations

from fomlab.dual import find_victim, marginal_rank
from fomlab.engine import (
    RankAssignment,
    Role,
    Side,
    run_ranking,
)
from fomlab.instance import Instance

EPS_FRACTION = 0.25  # region probe offset, as a fraction of the rank spacing


def _region_probes(values, lo, hi, spacing):
    """One probe value inside each maximal interval of (lo, hi) free of the
    given breakpoint values."""
    pts = sorted({lo, hi} | {v for v in values if lo < v < hi})
    probes = []
    for a, b in zip(pts, pts[1:]):
        probes.append((a + b) / 2.0)
    # also probe just above each breakpoint to catch boundary effects
    for v in pts[:-1]:
        probes.append(min(hi - spacing * 0.01, v + spacing * EPS_FRACTION))
    return sorted({p for p in probes if lo <= p < hi})


def check_monotonicity(instance: Instance, ranks: RankAssignment) -> None:
    """Raising an active/unmatched vertex's rank changes nothing; lowering a
    passive vertex's rank keeps it passive."""
    out = run_ranking(instance, ranks)
    n = instance.n
    spacing = 1.0 / max(1, n)
    for u in range(n):
        y_u = ranks.ranks[u]
        if out.role[u] is Role.PASSIVE:
            for y in _region_probes(ranks.ranks, 0.0, y_u, spacing):
                lower = run_ranking(instance, ranks.with_rank(u, y))
                assert lower.role[u] is Role.PASSIVE, (u, y)
        else:
            for y in _region_probes(ranks.ranks, y_u, 1.0, spacing):
                if y <= y_u:
                    continue
                higher = run_ranking(instance, ranks.with_rank(u, y))
                assert higher.pairs == out.pairs, (u, y)
                assert higher.role == out.role, (u, y)


def _situation(instance, outcome, v):
    """Comparable situation under the better-order; larger tuples are better.

    Passive > Active > unmatched; within passive, earlier partner deadline is
    better; within active, higher partner rank (smaller y) is better."""
    if outcome.role[v] is Role.PASSIVE:
        return (2, -instance.deadline_pos[outcome.partner[v]])
    if outcome.role[v] is Role.ACTIVE:
        return (1, None)  # refined with ranks by the caller
    return (0, None)


def _better(instance, ranks, out_a, out_b, v) -> int:
    """Sign of (situation in out_a) - (situation in out_b) for vertex v."""
    sa, sb = _situation(instance, out_a, v), _situation(instance, out_b, v)
    if sa[0] != sb[0]:
        return 1 if sa[0] > sb[0] else -1
    if sa[0] == 2:
        if sa[1] == sb[1]:
            return 0
        return 1 if sa[1] > sb[1] else -1
    if sa[0] == 1:
        ra = ranks.ranks[out_a.partner[v]]
        rb = ranks.ranks[out_b.partner[v]]
        if ra == rb:
            return 0
        return 1 if ra < rb else -1  # higher rank = smaller y is better
    return 0


def check_alternating_path(instance: Instance, ranks: RankAssignment) -> None:
    """Removing a matched vertex flips matches along one alternating path;
    odd-position vertices end up strictly worse, even-position strictly
    better."""
    out = run_ranking(instance, ranks)
    for u in range(instance.n):
        if not out.is_matched(u):
            continue
        without = run_ranking(instance, ranks, removed=u)
        diff = out.pairs ^ without.pairs
        # walk the path from u, alternating M(y) and M(y - u) edges
        path = [u]
        use_m = True
        remaining = {frozenset(e) for e in diff}
        while True:
            cur = path[-1]
            source = out.pairs if use_m else without.pairs
            nxt = None
            for a, b in source:
                e = frozenset((a, b))
                if e in remaining and cur in e:
                    nxt = b if a == cur else a
                    break
            if nxt is None:
                break
            remaining.discard(frozenset((path[-1], nxt)))
            path.append(nxt)
            use_m = not use_m
        assert not remaining, f"diff is not a single path from {u}: {diff}"
        for i, v in enumerate(path[1:], start=1):
            cmp = _better(instance, ranks, out, without, v)
            if i % 2 == 1:
                assert cmp > 0, (u, path, v, "odd position must get worse")
            else:
                assert cmp < 0, (u, path, v, "even position must get better")


def _earlier_neighbor_ok(instance, probe, out, v, u, theta) -> None:
    if out.role[u] is Role.PASSIVE:
        return
    assert out.role[u] is Role.ACTIVE, (v, u, probe.ranks[v], "u unmatched")
    assert probe.ranks[out.partner[u]] <= theta + 1e-12, (v, u, "partner rank")


def check_unmatched_neighbor(instance: Instance, ranks: RankAssignment) -> None:
    """Above a vertex's marginal rank, every earlier-deadline neighbor is
    passive or actively matched to rank <= theta; in bipartite instances the
    same holds below the marginal rank."""
    n = instance.n
    spacing = 1.0 / max(1, n)
    for v in range(n):
        if not instance.adj[v]:
            continue
        theta = marginal_rank(instance, ranks, v).theta
        earlier = [u for u in instance.adj[v] if instance.earlier_deadline(u, v)]
        if not earlier:
            continue
        others = [ranks.ranks[u] for u in range(n) if u != v]
        if theta < 1.0:
            for y in _region_probes(others, theta, 1.0, spacing):
                probe = ranks.with_rank(v, y)
                out = run_ranking(instance, probe)
                for u in earlier:
                    _earlier_neighbor_ok(instance, probe, out, v, u, theta)
        if instance.is_bipartite() and 0.0 < theta < 1.0:
            for y in _region_probes(others, 0.0, theta, spacing):
                probe = ranks.with_rank(v, y)
                out = run_ranking(instance, probe)
                for u in earlier:
                    _earlier_neighbor_ok(instance, probe, out, v, u, theta)


def check_victim_uniqueness(instance: Instance, ranks: RankAssignment) -> None:
    """At most one vertex flips from unmatched to matched when an active
    vertex is removed; on bipartite instances no victim exists at all."""
    out = run_ranking(instance, ranks)
    for w in range(instance.n):
        if out.role[w] is not Role.ACTIVE:
            continue
        victim = find_victim(instance, ranks, w)  # asserts uniqueness inside
        if instance.is_bipartite():
            assert victim is None, (w, victim)


ALL_CHECKS = (
    check_monotonicity,
    check_alternating_path,
    check_unmatched_neighbor,
    check_victim_uniqueness,
)


def check_all(instance: Instance, ranks: RankAssignment) -> None:
    for check in ALL_CHECKS:
        check(instance, ranks)
