"""Online algorithms over an instance's event stream.

Both Ranking and Greedy are lazy: all decisions happen at deadline events;
Greedy is Ranking with arrival positions as ranks.
The deadline vertex of each matched pair is labeled active, its partner
passive.  `run_ranking_batch` is a numpy kernel that replays the same
execution for many rank vectors at once; it is cross-checked against the
scalar engine in the test suite.  It works on integer rank positions
(`rank_positions`), vertex-major, so that each deadline is one contiguous
gather of its neighbours' positions and one min.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import IndexOutOfRange, ParamsInvalid, RankMissing
from .instance import EventKind, Instance


ARGSORT_ELEMENTS = 1 << 18
"""Ranks argsorted at a time by `rank_positions` (whole rows, at least one),
which bounds its int64 scratch to about 2 MB."""


class Side(Enum):
    """Whether a rank value means exactly y or the limit y-minus."""

    AT = "at"
    JUST_BELOW = "just_below"


class Role(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class RankAssignment:
    ranks: tuple[float, ...]
    sides: tuple[Side, ...]

    def key(self, v: int) -> tuple[float, int, int]:
        """Comparison key: rank, then just-below before at, then vertex id."""
        return (self.ranks[v], 0 if self.sides[v] is Side.JUST_BELOW else 1, v)

    def with_rank(
        self, v: int, rank: float, side: Side = Side.AT
    ) -> "RankAssignment":
        ranks = list(self.ranks)
        sides = list(self.sides)
        ranks[v] = rank
        sides[v] = side
        return RankAssignment(tuple(ranks), tuple(sides))


def ranks_from_values(values, sides=None) -> RankAssignment:
    vals = tuple(float(x) for x in values)
    if sides is None:
        side_t = (Side.AT,) * len(vals)
    else:
        side_t = tuple(sides)
    return RankAssignment(vals, side_t)


def sample_ranks(instance: Instance, seed: int) -> RankAssignment:
    """I.i.d. uniform [0,1) ranks, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return ranks_from_values(rng.random(instance.n))


@dataclass(frozen=True)
class MatchingOutcome:
    pairs: frozenset[tuple[int, int]]
    partner: tuple[int, ...]  # -1 for unmatched
    role: tuple[Optional[Role], ...]
    unmatched: frozenset[int]
    trace: Optional[tuple[str, ...]] = None

    @property
    def size(self) -> int:
        return len(self.pairs)

    def is_matched(self, v: int) -> bool:
        return self.partner[v] >= 0


def _trace_line(v: int, u: Optional[int], decision: str, ranks: RankAssignment) -> str:
    if u is None:
        return f"deadline v={v} decision=unmatched partner=- rank=-"
    return f"deadline v={v} decision={decision} partner={u} rank={ranks.ranks[u]:.12g}"


def run_ranking(
    instance: Instance,
    ranks: RankAssignment,
    *,
    removed: Optional[int] = None,
    with_trace: bool = False,
) -> MatchingOutcome:
    """Lazy Ranking: a deadline vertex takes its min-rank unmatched neighbor."""
    if len(ranks.ranks) != instance.n:
        raise RankMissing(
            f"rank assignment covers {len(ranks.ranks)} of {instance.n} vertices"
        )
    partner = [-1] * instance.n
    role: list[Optional[Role]] = [None] * instance.n
    trace: Optional[list[str]] = [] if with_trace else None
    for ev in instance.events:
        v = ev.vertex
        if ev.kind is not EventKind.DEADLINE or v == removed:
            continue
        if partner[v] >= 0:
            if trace is not None:
                trace.append(_trace_line(v, partner[v], "already-matched", ranks))
            continue
        candidates = [
            u for u in instance.adj[v] if partner[u] < 0 and u != removed
        ]
        u = min(candidates, key=ranks.key) if candidates else None
        if u is not None:
            partner[v] = u
            partner[u] = v
            role[v] = Role.ACTIVE
            role[u] = Role.PASSIVE
        if trace is not None:
            trace.append(_trace_line(v, u, "match", ranks))
    return MatchingOutcome(
        pairs=frozenset((v, p) for v, p in enumerate(partner) if 0 <= v < p),
        partner=tuple(partner),
        role=tuple(role),
        unmatched=frozenset(
            v for v in range(instance.n) if partner[v] < 0 and v != removed
        ),
        trace=tuple(trace) if trace is not None else None,
    )


def run_greedy(instance: Instance) -> MatchingOutcome:
    """Greedy baseline: a deadline vertex takes its earliest-arrived unmatched
    neighbor.  That is Ranking with each vertex ranked by its arrival position
    (positions are unique, so no tie reaches the vertex-id rule)."""
    return run_ranking(instance, ranks_from_values(instance.arrival_pos))


def run_without(
    instance: Instance, ranks: RankAssignment, removed: int
) -> MatchingOutcome:
    """Ranking on the sub-instance with `removed` and its edges deleted."""
    if not 0 <= removed < instance.n:
        raise IndexOutOfRange(f"vertex {removed} out of range [0, {instance.n})")
    return run_ranking(instance, ranks, removed=removed)


def rank_positions(ranks_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-major rank positions of a (trials x n) rank matrix.

    Returns (K, V), both (n x trials): K[v, t] is v's position in row t's
    rank order, ties going to the smaller vertex id, and V[p, t] is the
    vertex at position p.  Both are int16 when n < 2**15, int32 otherwise.
    Raises ParamsInvalid unless every rank is finite.
    """
    trials, n = ranks_matrix.shape
    dtype = np.int16 if n < 2**15 else np.int32
    K = np.empty((n, trials), dtype=dtype)
    V = np.empty((n, trials), dtype=dtype)
    positions = np.arange(n, dtype=dtype)[:, None]
    block_rows = max(1, ARGSORT_ELEMENTS // max(1, n))
    for lo in range(0, trials, block_rows):
        block = ranks_matrix[lo : lo + block_rows]
        # checked a block at a time: a whole-matrix mask would raise peak RSS
        if not np.isfinite(block).all():
            raise ParamsInvalid("every rank in a batch must be finite")
        order = np.argsort(block, axis=1)
        # the default sort is not stable; only rows holding a tie need it
        ranked = np.sort(block, axis=1)
        tied = (ranked[:, 1:] == ranked[:, :-1]).any(axis=1)
        if tied.any():
            order[tied] = np.argsort(block[tied], axis=1, kind="stable")
        hi = lo + len(block)
        V[:, lo:hi] = order.T
        K[order.T, np.arange(lo, hi)] = positions
    return K, V


def run_ranking_batch(
    instance: Instance,
    ranks_matrix: np.ndarray,
    removed: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay Ranking for every row of ranks_matrix (trials x n).

    Returns (partner, active): partner is (trials x n) int32 with -1 for
    unmatched, active a boolean matrix marking deadline-side endpoints;
    both are transposed views of the kernel's vertex-major arrays.
    Ties break toward the smaller vertex id, matching the scalar engine for
    all-At rank assignments.  Raises ParamsInvalid unless every rank is
    finite.
    """
    trials, n = ranks_matrix.shape
    if n != instance.n:
        raise RankMissing(f"rank matrix covers {n} of {instance.n} vertices")
    K, V = rank_positions(ranks_matrix)
    if removed is not None:
        if not 0 <= removed < n:
            raise IndexOutOfRange(f"vertex {removed} out of range [0, {n})")
        K[removed] = n
    partner = np.full((n, trials), -1, dtype=np.int32)
    active = np.zeros((n, trials), dtype=bool)
    # K[v] = n marks v matched or removed
    for v in instance.deadline_order:
        nbrs = instance.neighbors(v)
        if not len(nbrs):
            continue
        best = K[nbrs].min(axis=0)
        # v decides where both v and its best neighbour are still unmatched
        rows = np.flatnonzero(np.maximum(K[v], best) < n)
        chosen = V[best[rows], rows]
        partner[v, rows] = chosen
        partner[chosen, rows] = v
        active[v, rows] = True
        K[v, rows] = n
        K[chosen, rows] = n
    return partner.T, active.T
