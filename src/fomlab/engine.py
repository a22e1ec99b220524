"""Online algorithms over an instance's event stream.

Both Ranking and Greedy are lazy: all decisions happen at deadline events;
Greedy is Ranking with arrival positions as ranks.
The deadline vertex of each matched pair is labeled active, its partner
passive.  `run_ranking` is Ranking's one scalar loop; it is also the
counterfactual run (`removed`) of `dual.marginal_rank` and
`dual.find_victim`.  Its `MatchingOutcome` holds the partner and role
lists, and builds `pairs` and `unmatched` only when they are read.
`run_ranking_batch` is a numpy kernel that replays the same
execution for many rank vectors at once; it is cross-checked against the
scalar engine in the test suite.  It works on integer rank positions
(`rank_positions`, one sort of packed int64 keys per block of rows),
vertex-major, so that each deadline is one gather of its later-deadline
neighbours' positions (`Instance.later`) and one min.  The matching loop
records each pair once, on its deadline side, with flat indices into the
position arrays.  `drawn_ranking_sizes` runs the same loop on uniform rows
drawn a block at a time and returns only each row's matching size; the
position format stays inside this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import IndexOutOfRange, ParamsInvalid, RankMissing
from .instance import Instance


ARGSORT_ELEMENTS = 1 << 18
"""Ranks sorted at a time by `rank_positions` and `drawn_ranking_sizes`
(whole rows, at least one).

It bounds the scratch of one block, not K and V, which are kept whole.  A
block holds its int64 packed keys, then its intp scatter indices (2 MiB
each at this size, never both), and its int16 order and positions; drawn
rows add the block's 2 MiB of drawn ranks.  On 200 x 10,000 ranks (26-row
blocks), the positions peak at 3.0 MiB above the 7.6 MiB of K and V
(tracemalloc: 10.6 MiB) from a given matrix, and at 5.0 MiB above them
(12.6 MiB) from drawn rows, which never hold the 15.3 MiB rank matrix."""


class Side(Enum):
    """Whether a rank value means exactly y or the limit y-minus."""

    AT = "at"
    JUST_BELOW = "just_below"


class Role(Enum):
    ACTIVE = "active"
    PASSIVE = "passive"


@dataclass(frozen=True)
class RankAssignment:
    """Ranks and sides per vertex.  `positions` and `sorted_ranks` are built
    on first use and cached; they take no part in equality, hashing or
    repr.  A NaN rank, which has no place in the order, or sides that are
    not one Side per rank raise ParamsInvalid; +-inf is allowed."""

    ranks: tuple[float, ...]
    sides: tuple[Side, ...]

    def __post_init__(self):
        # the sum is NaN only if a rank is NaN or both infinities occur
        total = sum(self.ranks)
        if total != total and any(r != r for r in self.ranks):
            raise ParamsInvalid("a rank must not be NaN")
        if len(self.sides) != len(self.ranks):
            raise ParamsInvalid(f"{len(self.ranks)} ranks but {len(self.sides)} sides")
        if not all(isinstance(s, Side) for s in self.sides):
            raise ParamsInvalid("each side must be a Side")

    def key(self, v: int) -> tuple[float, int, int]:
        """Comparison key: rank, then just-below before at, then vertex id."""
        return (self.ranks[v], 0 if self.sides[v] is Side.JUST_BELOW else 1, v)

    @cached_property
    def positions(self) -> tuple[int, ...]:
        """Each vertex's position in the order of the `key`s, by vertex id:
        comparing positions compares keys."""
        positions = [0] * len(self.ranks)
        for p, v in enumerate(sorted(range(len(self.ranks)), key=self.key)):
            positions[v] = p
        return tuple(positions)

    @cached_property
    def sorted_ranks(self) -> tuple[float, ...]:
        """The ranks in ascending order."""
        return tuple(sorted(self.ranks))

    def with_rank(
        self, v: int, rank: float, side: Side = Side.AT
    ) -> "RankAssignment":
        """A copy with v's rank and side replaced; IndexOutOfRange unless v
        is in [0, n)."""
        n = len(self.ranks)
        if not 0 <= v < n:
            raise IndexOutOfRange(f"vertex {v} out of range [0, {n})")
        ranks = list(self.ranks)
        sides = list(self.sides)
        ranks[v] = rank
        sides[v] = side
        return RankAssignment(tuple(ranks), tuple(sides))


def ranks_from_values(values, sides=None) -> RankAssignment:
    vals = tuple(float(x) for x in values)
    sides = (Side.AT,) * len(vals) if sides is None else tuple(sides)
    return RankAssignment(vals, sides)


def sample_ranks(instance: Instance, seed: int) -> RankAssignment:
    """I.i.d. uniform [0,1) ranks, deterministic per seed."""
    rng = np.random.default_rng(seed)
    return ranks_from_values(rng.random(instance.n))


@dataclass(frozen=True)
class MatchingOutcome:
    """One run of Ranking: each vertex's partner (-1 for unmatched) and role,
    the vertex left out of the run, if any, and the trace when asked for.
    `pairs` and `unmatched` are read off `partner` on first use and cached;
    they take no part in equality, hashing or repr."""

    partner: tuple[int, ...]
    role: tuple[Optional[Role], ...]
    removed: Optional[int] = None
    trace: Optional[tuple[str, ...]] = None

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The matched edges, each as (smaller id, larger id)."""
        return frozenset((v, p) for v, p in enumerate(self.partner) if v < p)

    @cached_property
    def unmatched(self) -> frozenset[int]:
        """The vertices of the run left unmatched (never `removed`)."""
        return frozenset(
            v for v, p in enumerate(self.partner) if p < 0 and v != self.removed
        )

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
    """Lazy Ranking: a deadline vertex takes its min-rank unmatched neighbor.

    The deadlines come in `instance.deadline_order`; a free deadline vertex
    takes its free neighbour of least `RankAssignment.key`, through the
    assignment's cached `positions`.  `removed`, when given, takes no part
    in the run; IndexOutOfRange unless it is in [0, n).  A vertex is free at
    its own deadline unless it is passive, and a vertex left unmatched there
    has no free neighbour later, so the trace follows from the final roles:
    a passive vertex was already matched, an active one matched, and any
    other went unmatched.
    """
    n = instance.n
    if len(ranks.ranks) != n:
        raise RankMissing(
            f"rank assignment covers {len(ranks.ranks)} of {n} vertices"
        )
    if removed is not None and not 0 <= removed < n:
        raise IndexOutOfRange(f"vertex {removed} out of range [0, {n})")
    position = ranks.positions
    adj = instance.adj
    partner = [-1] * n
    role: list[Optional[Role]] = [None] * n
    for v in instance.deadline_order:
        if partner[v] >= 0 or v == removed:
            continue
        best = n
        for u in adj[v]:
            if partner[u] < 0 and position[u] < best and u != removed:
                best = position[u]
                pick = u
        if best < n:
            partner[v] = pick
            partner[pick] = v
            role[v] = Role.ACTIVE
            role[pick] = Role.PASSIVE
    trace = None
    if with_trace:
        trace = tuple(
            _trace_line(
                v,
                partner[v] if partner[v] >= 0 else None,
                "already-matched" if role[v] is Role.PASSIVE else "match",
                ranks,
            )
            for v in instance.deadline_order
            if v != removed
        )
    return MatchingOutcome(tuple(partner), tuple(role), removed, trace)


def run_greedy(instance: Instance) -> MatchingOutcome:
    """Greedy baseline: a deadline vertex takes its earliest-arrived unmatched
    neighbor.  That is Ranking with each vertex ranked by its arrival position
    (positions are unique, so no tie reaches the vertex-id rule)."""
    return run_ranking(instance, ranks_from_values(instance.arrival_pos))


def rank_positions(ranks_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vertex-major rank positions of a (trials x n) rank matrix.

    Returns (K, V), both (n x trials): K[v, t] is v's position in row t's
    rank order, ties going to the smaller vertex id, and V[p, t] is the
    vertex at position p.  Both are int16 when n < 2**15, int32 otherwise.
    The rows are sorted `ARGSORT_ELEMENTS` ranks at a time.  Raises
    ParamsInvalid unless every rank is finite.
    """
    trials, n = ranks_matrix.shape
    return _positions(trials, n, lambda lo, hi: ranks_matrix[lo:hi])


def drawn_ranking_sizes(
    instance: Instance, rng: np.random.Generator, trials: int
) -> np.ndarray:
    """Ranking's matching size on each of `trials` uniform rank rows drawn
    from rng: `run_ranking_batch(instance, rng.random((trials, n)))[1]
    .sum(axis=1)` without the matrix.

    The ranks are drawn one sort block of rows at a time; numpy's
    generators fill an array in order, so the blocks hold the same numbers
    as the whole matrix would.  `instance.later` is built before the
    positions, and the positions are freed before the count's mask, so
    that neither adds to their peak.
    """
    n = instance.n
    instance.later
    K, V = _positions(trials, n, lambda lo, hi: rng.random((hi - lo, n)))
    choice = _run_ranking_positions(instance, K, V)
    del K, V
    return (choice >= 0).sum(axis=0)


def _positions(trials: int, n: int, rows) -> tuple[np.ndarray, np.ndarray]:
    """K and V of the rank rows `rows(lo, hi)` returns for each block
    [lo, hi) of `ARGSORT_ELEMENTS` ranks, in order."""
    dtype = np.int16 if n < 2**15 else np.int32
    K = np.empty((n, trials), dtype=dtype)
    V = np.empty((n, trials), dtype=dtype)
    positions = np.arange(n, dtype=dtype)
    block_rows = max(1, ARGSORT_ELEMENTS // max(1, n))
    for lo in range(0, trials, block_rows):
        hi = min(trials, lo + block_rows)
        block = rows(lo, hi)
        # checked a block at a time: a whole-matrix mask would raise peak RSS
        if not np.isfinite(block).all():
            raise ParamsInvalid("every rank in a batch must be finite")
        order = _order(block, n, dtype)
        V[:, lo:hi] = order.T
        # each row's positions, scattered through flat intp indices
        flat = order.astype(np.intp)
        flat += (np.arange(hi - lo) * n)[:, None]
        ranked = np.empty_like(order)
        ranked.reshape(-1)[flat] = positions
        K[:, lo:hi] = ranked.T
        # freed before the next block is drawn, not after
        del block, order, flat, ranked
    return K, V


def _order(block: np.ndarray, n: int, dtype) -> np.ndarray:
    """Each row's vertices in rank order, ties going to the smaller id.

    A row is sorted once, as int64 keys: its ranks as float64, whose bits
    order like integers once a negative's magnitude bits are flipped, with
    the low b bits replaced by the vertex id.  A row where two adjacent keys
    share their high 64 - b bits (every exact tie does) is argsorted stably
    on its ranks instead.
    """
    b = (n - 1).bit_length()
    # adding 0.0 turns -0.0 into 0.0, and is a float64 copy of any input
    keys = np.add(block, 0.0, dtype=np.float64).view(np.int64)
    if (keys < 0).any():
        keys ^= (keys >> 63) & np.int64(2**63 - 1)
    keys &= np.int64(-(1 << b))
    keys |= np.arange(n, dtype=np.int64)
    keys.sort(axis=1)
    # the cast keeps the low 16 or 32 bits, which hold the id's b bits
    order = keys.astype(dtype)
    order &= dtype((1 << b) - 1)
    keys >>= b
    near = (keys[:, 1:] == keys[:, :-1]).any(axis=1)
    del keys
    if near.any():
        order[near] = np.argsort(block[near], axis=1, kind="stable")
    return order


def _run_ranking_positions(
    instance: Instance, K: np.ndarray, V: np.ndarray
) -> np.ndarray:
    """Replay Ranking on every column of the rank positions (K, V).

    K and V are `rank_positions`' (n x trials) arrays; K[u] = n marks u as
    removed.  K is overwritten.  Returns the vertex-major `choice`, in K's
    dtype: each deadline-side vertex's partner, -1 everywhere else (so
    `choice >= 0` marks the active entries, and each matched pair appears
    once).  Build `instance.later` before K and V, so that its scratch does
    not add to their peak.
    """
    n, trials = K.shape
    # a view, as K is C-contiguous: the steps read what they write
    K_flat = K.reshape(-1)
    V_flat = V.reshape(-1)
    later_ptr, later = instance.later
    ptr = later_ptr.tolist()
    choice = np.full((n, trials), -1, dtype=K.dtype)
    # K[u] = n marks u matched or removed; no step after v's deadline reads K[v]
    for v in instance.deadline_order:
        lo, hi = ptr[v], ptr[v + 1]
        if lo == hi:
            continue
        # where v is still free, each earlier-deadline neighbour had v as a
        # candidate at its own deadline and left it matched, so only the
        # later-deadline neighbours can be free
        best = np.minimum.reduce(K.take(later[lo:hi], axis=0), axis=0)
        # v decides where both v and its best neighbour are still unmatched
        rows = (np.maximum(K[v], best) < n).nonzero()[0]
        # flat indices in intp: an int16 product would wrap past 2**15
        chosen = V_flat[best[rows].astype(np.intp) * trials + rows]
        choice[v, rows] = chosen
        K_flat[chosen.astype(np.intp) * trials + rows] = n
    return choice


def run_ranking_batch(
    instance: Instance,
    ranks_matrix: np.ndarray,
    removed: Optional[int] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Replay Ranking for every row of ranks_matrix (trials x n).

    Returns (partner, active): partner is (trials x n) int32 with -1 for
    unmatched, active a boolean matrix marking deadline-side endpoints;
    both are transposed views of vertex-major arrays.
    Ties break toward the smaller vertex id, matching the scalar engine for
    all-At rank assignments.  Raises ParamsInvalid unless every rank is
    finite.
    """
    trials, n = ranks_matrix.shape
    if n != instance.n:
        raise RankMissing(f"rank matrix covers {n} of {instance.n} vertices")
    if removed is not None and not 0 <= removed < n:
        raise IndexOutOfRange(f"vertex {removed} out of range [0, {n})")
    # built before K and V, so that its scratch does not add to their peak
    instance.later
    K, V = rank_positions(ranks_matrix)
    if removed is not None:
        K[removed] = n
    choice = _run_ranking_positions(instance, K, V)
    active = choice >= 0
    partner = choice.astype(np.int32)
    # the passive side of each pair, in one scatter: (v, t) at flat index
    # act has its partner p at act + (p - v) * trials, computed in intp, as
    # an int16 product would wrap past 2**15
    act = np.flatnonzero(active)
    deciders = act // trials
    passive = choice.reshape(-1)[act].astype(np.intp)
    passive -= deciders
    passive *= trials
    passive += act
    partner.reshape(-1)[passive] = deciders
    return partner.T, active.T
