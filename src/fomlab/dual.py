"""Randomized dual fitting: marginal ranks, victims, gain sharing and the
empirical verification of the two dual-feasibility conditions.

The marginal rank of v comes from one run of Ranking without v: with v the
run agrees with it until a neighbour picks v, and only a neighbour with an
earlier deadline that is not passive without v can.

Per-run duals follow the two-step rule literally: gain sharing on matched
edges, then a compensation h(y_passive_partner) from every active vertex
that has a victim.  A victim is defined by a counterfactual run with the
active vertex removed; `find_victim` runs it in full and compares the
partner lists.  The batch path runs no counterfactual at all: removing an
active vertex changes Ranking's run along one alternating path, and the
victim is where that path ends, so it follows each path through the base
run's arrays.  It keeps the batch kernel's vertex-major (n x trials) layout
from the kernel's output to the edge covers, which are contiguous row sums;
callers see alpha as a transposed (trials x n) view.

The batch rule is written once and evaluated two ways: on sampled ranks
for the Monte Carlo estimates, and on every rank order of a small instance,
one row of order positions each, with g and h replaced by their expectations
at the order statistics, for the exact covers; both reduce alpha to edge
sums and mass-balance residuals in one pass, `_cover_sums`.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from ._parallel import check_trials, chunk_sizes, run_chunked
from .charging import ChargingFunction, check_properties
from .engine import (
    MatchingOutcome,
    RankAssignment,
    Role,
    Side,
    run_ranking,
    run_ranking_batch,
)
from .errors import (
    ChargingInvalid,
    IndexOutOfRange,
    InvariantViolated,
    NotActive,
    ParamsInvalid,
    RankMissing,
    TooLarge,
)
from .instance import Instance, edge_keys

COND1_TOL = 1e-9

EXACT_MAX_N = 8
"""Largest n for `exact_edge_cover`, which makes one batch row per rank order."""

COVER_BLOCK = 1 << 15
"""Edge covers (edge x trial entries) `_cover_sums` sums at a time
(whole edges, at least one): 256 KiB per block array, which stays in cache
between its sum and its sum of squares.  On a 2 vCPU Xeon, the covers of a
40-vertex, 74-edge instance at 4096 trials took 0.5 ms a chunk in blocks
and 2.2 ms as one (edges x trials) array; at n = 1000 (1935 edges), 15 ms
against 83 ms."""


@dataclass(frozen=True)
class DualAssignment:
    alpha: tuple[float, ...]
    gain: tuple[float, ...]
    comp_in: tuple[float, ...]
    comp_out: tuple[float, ...]
    victim_of: dict  # active vertex -> victim vertex


@dataclass(frozen=True)
class MarginalRank:
    theta: float


def marginal_rank(
    instance: Instance, ranks_others: RankAssignment, v: int
) -> MarginalRank:
    """Largest candidate rank c (the other ranks and 1) such that v is
    passive at y_v = c-minus; 0 if there is none.

    One run without v decides it.  An earlier-deadline neighbour u that is
    not passive there picks v at c if it is unmatched there, or if v's probe
    key (c, just-below, v) is below the key of its partner there.
    """
    without = run_ranking(instance, ranks_others, removed=v)
    partner, role = without.partner, without.role
    dpos = instance.deadline_pos
    partners = []
    for u in instance.adj[v]:
        if dpos[u] < dpos[v] and role[u] is not Role.PASSIVE:
            p = partner[u]
            if p < 0:
                return MarginalRank(
                    theta=_largest_candidate(ranks_others, v, math.inf, True)
                )
            partners.append(p)
    if not partners:
        return MarginalRank(theta=0.0)
    # (c, 0, v), v's key at (c, Side.JUST_BELOW), is below the limit key
    # (r, side, p) when c < r, or c == r and the limit is at r or p > v
    r, side, p = max(map(ranks_others.key, partners))
    return MarginalRank(theta=_largest_candidate(ranks_others, v, r, side or p > v))


def _largest_candidate(ranks: RankAssignment, v: int, limit: float, equal: bool):
    """The largest candidate (a rank other than v's, or 1) below `limit`, or
    at it when `equal`; 0 if there is none."""
    ranked = ranks.sorted_ranks
    i = (bisect_right if equal else bisect_left)(ranked, limit)
    # v's copy of its rank is not a candidate; any other copy is
    if i and ranked[i - 1] == ranks.ranks[v]:
        i -= 1
    found = [ranked[i - 1]] if i else []
    if 1.0 < limit or (equal and 1.0 == limit):
        found.append(1.0)
    return max(found, default=0.0)


def find_victim(
    instance: Instance,
    ranks: RankAssignment,
    w: int,
    outcome: Optional[MatchingOutcome] = None,
) -> Optional[int]:
    """The unique unmatched neighbor of active w that is matched without w.

    `outcome` is Ranking's run on `ranks`, when the caller already has it.
    Raises IndexOutOfRange for w outside [0, n) before any run.
    """
    n = instance.n
    if not 0 <= w < n:
        raise IndexOutOfRange(f"vertex {w} out of range [0, {n})")
    if outcome is None:
        outcome = run_ranking(instance, ranks)
    if outcome.role[w] is not Role.ACTIVE:
        raise NotActive(f"vertex {w} is not active under these ranks")
    without = run_ranking(instance, ranks, removed=w).partner
    base = outcome.partner
    victims = [z for z in instance.adj[w] if base[z] < 0 and without[z] >= 0]
    if len(victims) > 1:
        raise InvariantViolated(f"multiple victims for {w}: {victims}")
    return victims[0] if victims else None


def assign_duals(
    instance: Instance, ranks: RankAssignment, charging: ChargingFunction
) -> DualAssignment:
    if not check_properties(charging).passed:
        raise ChargingInvalid("charging function fails its required properties")
    outcome = run_ranking(instance, ranks)
    n = instance.n
    active = [v for v in range(n) if outcome.role[v] is Role.ACTIVE]
    # g and h at each active vertex's passive partner, one call per side on
    # the partners' ranks only: a rank off [0, 1] elsewhere is never read
    g_p = [0.0] * n
    h_p = [0.0] * n
    for side in Side:
        ws = [w for w in active if ranks.sides[outcome.partner[w]] is side]
        if ws:
            ys = [ranks.ranks[outcome.partner[w]] for w in ws]
            for w, g, h in zip(
                ws, charging.g(ys, side).tolist(), charging.h(ys, side).tolist()
            ):
                g_p[w], h_p[w] = g, h
    gain = [0.0] * n
    comp_in = [0.0] * n
    comp_out = [0.0] * n
    victim_of = {}
    for v in active:
        p = outcome.partner[v]
        gain[v] = 1.0 - g_p[v]
        gain[p] = g_p[v]
        z = find_victim(instance, ranks, v, outcome)
        if z is not None:
            amount = h_p[v]
            comp_out[v] = amount
            comp_in[z] += amount
            victim_of[v] = z
            if z == v:
                raise InvariantViolated(f"vertex {v} is its own victim")
    alpha = [g + ci - co for g, ci, co in zip(gain, comp_in, comp_out)]
    if any(a < -COND1_TOL for a in alpha):
        raise InvariantViolated(f"negative dual {min(alpha)}")
    return DualAssignment(
        alpha=tuple(alpha),
        gain=tuple(gain),
        comp_in=tuple(comp_in),
        comp_out=tuple(comp_out),
        victim_of=victim_of,
    )


# -- vectorized Monte Carlo core ---------------------------------------------


def simulate_alphas_batch(
    instance: Instance, charging: ChargingFunction, ranks_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial dual vectors for a batch of rank draws.

    Returns (alpha, matched_edges): alpha is (trials x n), a transposed
    view of a C-contiguous (n x trials) array, matched_edges the per-trial
    matching size.  `_alphas` computes them with whole-array steps and one
    Ranking run for the batch; tests cross-check them against assign_duals
    and, bit for bit, against one full replay per active vertex and the
    trial-major form of the rule.
    """
    return _alphas(instance, ranks_matrix, charging.g_limit_grid, charging.h_limit_grid)


def _alphas(instance: Instance, ranks_matrix: np.ndarray, g, h):
    """The batch dual rule: g and h map the passive partners' entries of
    ranks_matrix to their gain share and compensation.

    Returns (alpha, matched_edges), as `simulate_alphas_batch`; alpha is the
    transposed view of a C-contiguous (n x trials) array.  The rule keeps
    the kernel's vertex-major layout throughout: the flat indices of the
    active entries and of their passive partners, found once, give the
    gain shares, the step at which each pair formed and the base choices by
    scatters; one sweep over the deadlines follows every candidate column's
    alternating path; and the compensations are added with one `np.add.at`
    in payer-id order, which keeps the order of a per-vertex replay's
    additions in every entry.  Raises InvariantViolated if a column finds
    two victims.
    """
    trials, n = ranks_matrix.shape
    partner, active = run_ranking_batch(instance, ranks_matrix)
    # the kernel's own (n x trials) arrays, of which these were views
    partner, active = partner.T, active.T
    msize = active.sum(axis=0)
    alpha = np.zeros((n, trials))

    # flat (vertex, row) indices: act of the active entries (v, row), and
    # passive of their partners' entries (p, row), (p - v) * trials further
    act = np.flatnonzero(active)
    deciders = act // trials
    rows = act - deciders * trials
    p = partner.reshape(-1)[act]
    passive = (p - deciders) * trials + act
    # gain sharing: an active entry gets 1 - g(y_p) and its passive
    # partner's entry g(y_p), read at (row, p) of the trial-major ranks.
    # Each matched entry gets exactly one share, written onto 0.0, so
    # writing it is adding it.
    gp = g(ranks_matrix.ravel()[rows * n + p])
    flat = alpha.reshape(-1)  # a view: alpha is contiguous
    flat[act] = 1.0 - gp
    flat[passive] = gp
    del rows, p, gp, flat, active

    # compensations: w's victim is a neighbour left unmatched with w present
    # and matched once w is removed.  Only columns (w, row) where w is active
    # and has an unmatched neighbour can hold one.  The run without w agrees
    # with the base run until w's deadline (Ranking is lazy and never picked
    # w before it); from there the two runs differ in exactly one vertex d
    # at a time, along an alternating path.  d is "extra-free" (matched in
    # the base run, free without w) or "extra-matched" (the reverse) and
    # starts as w's partner, extra-free.  Every column follows its d through
    # the later deadlines in one lock-step sweep; w's victim is the final d
    # when it is extra-matched and adjacent to w.
    order = np.array(instance.deadline_order, dtype=np.intp)
    # each vertex's deadline step
    step = np.empty(n, dtype=np.int32)
    step[order] = np.arange(n, dtype=np.int32)
    # step at which each vertex's pair formed, its active side's deadline
    # step, n if it stays unmatched: v is free in the base run just before
    # step s where formed[v, row] >= s
    formed = np.full((n, trials), n, dtype=np.int32)
    formed_flat = formed.reshape(-1)
    formed_flat[act] = formed_flat[passive] = step[deciders]
    # from here on partner holds each vertex's base choice: its partner
    # where it is active, -1 where it is passive or unmatched
    partner.reshape(-1)[passive] = -1
    del act, deciders, passive
    # columns (w, row), sorted by w's deadline step and then by row; those
    # live at step s (w's deadline came earlier) are the first live[s]
    ptr, indices = instance.indptr.tolist(), instance.indices.astype(np.intp)
    unmatched = formed == n
    cands = [
        np.flatnonzero(
            (partner[w] >= 0) & unmatched[indices[ptr[w] : ptr[w + 1]]].any(axis=0)
        )
        for w in order.tolist()
    ]
    del unmatched
    counts = [len(c) for c in cands]
    live = np.cumsum([0] + counts)
    if not live[-1]:  # no column, no victim
        return alpha.T, msize
    col_row = np.concatenate(cands)
    payer = np.repeat(order, counts)
    del cands
    d = partner[payer, col_row].astype(np.intp)
    extra_free = np.ones(len(d), dtype=bool)
    near_v = np.zeros(n, dtype=bool)
    # the gathers below index the flat views: one flat index per entry
    # gathers faster than a (vertex, row) pair
    ranks_flat = ranks_matrix.ravel()
    for s, (v, k) in enumerate(zip(order.tolist(), live.tolist())):
        nbrs = indices[ptr[v] : ptr[v + 1]]
        if not k or not len(nbrs):
            continue
        # at v's deadline a column changes only if d is v, if d is
        # extra-free next to a v that is free in the base run, or if d is
        # extra-matched and was v's base choice: always d in {v} + N(v)
        near_v[nbrs] = True
        near_v[v] = True
        cols = np.flatnonzero(near_v[d[:k]])
        near_v[nbrs] = False
        near_v[v] = False
        if not len(cols):
            continue
        dc, fc, rc = d[cols], extra_free[cols], col_row[cols]
        at_v = dc == v
        # v's base choice, -1 if v is matched before s or finds no partner
        choice = partner[v][rc]
        # an extra-free d offered to a v that is free in the base run
        offer = np.flatnonzero(fc & ~at_v & (formed[v][rc] >= s))
        # an extra-matched d that v took in the base run
        taken = ~fc & (choice == dc)
        # v chooses among the neighbours the base run leaves free after step
        # s: v is d with d extra-free (v took nobody in the base run), or
        # v's base choice d is taken already
        pick = np.flatnonzero((at_v & fc) | taken)
        if len(pick):
            pc, pr = cols[pick], rc[pick][:, None]
            open_nbr = formed_flat[nbrs * trials + pr] > s
            masked = np.where(open_nbr, ranks_flat[pr * n + nbrs], np.inf)
            j = masked.argmin(axis=1)  # ties to the lowest id: nbrs ascend
            found = open_nbr[np.arange(len(pc)), j]
            # v's new partner is extra-matched; if there is none, d = v
            # stays extra-free, or the v that lost d is free without w
            d[pc] = np.where(found, nbrs[j], v)
            extra_free[pc] = ~found
        # an extra-matched d = v: its base choice stays free without w
        move = np.flatnonzero(at_v & ~fc & (choice >= 0))
        d[cols[move]] = choice[move]
        extra_free[cols[move]] = True
        if len(offer):
            oc, orow, ob, od = cols[offer], rc[offer], choice[offer], dc[offer]
            r_d, r_b = ranks_flat[orow * n + od], ranks_flat[orow * n + ob]
            # without w, v takes d over its base choice b (or over nothing),
            # which leaves b extra-free, or makes v extra-matched
            wins = np.flatnonzero((ob < 0) | (r_d < r_b) | ((r_d == r_b) & (od < ob)))
            d[oc[wins]] = np.where(ob >= 0, ob, v)[wins]
            extra_free[oc[wins]] = ob[wins] >= 0
    del formed, formed_flat, ranks_flat

    # the victim: a final extra-matched d that is one of the payer's
    # neighbours, looked up by (payer, d) in the CSR's sorted (row, entry)
    # keys; a neighbour listed twice would be two victims
    ended = np.flatnonzero(~extra_free)
    csr_rows = np.repeat(np.arange(n), np.diff(instance.indptr))
    keys = edge_keys(csr_rows, instance.indices, n)
    query = edge_keys(payer[ended], d[ended], n)
    hits = np.searchsorted(keys, query, "right") - np.searchsorted(keys, query)
    if (hits > 1).any():
        raise InvariantViolated(
            f"multiple victims for vertex {payer[ended][hits > 1].min()}"
        )
    paid = ended[hits == 1]
    vrows, w, victim = col_row[paid], payer[paid], d[paid]
    amount = h(ranks_matrix[vrows, partner[w, vrows]])
    # by payer id, debit before credit: an entry gets at most one addition
    # from each payer, so it adds up its compensations in the order a replay
    # per vertex would
    by_payer = np.argsort(np.concatenate([w, w]), kind="stable")
    np.add.at(
        alpha,
        (np.concatenate([w, victim])[by_payer], np.concatenate([vrows, vrows])[by_payer]),
        np.concatenate([-amount, amount])[by_payer],
    )
    return alpha.T, msize


def _cover_sums(instance: Instance, alpha: np.ndarray, msize: np.ndarray):
    """Each edge's sum and sum of squares of its covers alpha_u + alpha_v
    over the trials, and each trial's residual |sum alpha - |M||.

    alpha is `_alphas`' transposed view of a vertex-major array: each
    trial's sum adds the vertex rows in order, and each edge's covers are
    one contiguous row, summed `COVER_BLOCK` entries at a time, whose sums
    do not depend on how the edges are blocked.
    """
    alpha_vm = alpha.T
    residual = np.abs(alpha_vm.sum(axis=0) - msize)
    eu, ev = instance.edge_array.T
    sums, sumsqs = np.empty(instance.m), np.empty(instance.m)
    block = max(1, COVER_BLOCK // alpha_vm.shape[1])
    for lo in range(0, instance.m, block):
        hi = lo + block
        cover = alpha_vm[eu[lo:hi]] + alpha_vm[ev[lo:hi]]
        sums[lo:hi] = cover.sum(axis=1)
        cover *= cover
        sumsqs[lo:hi] = cover.sum(axis=1)
    return sums, sumsqs, residual


def _edge_cover_chunk(args):
    instance, charging, seed, chunk_id, size = args
    rng = np.random.default_rng([seed, chunk_id])
    ranks = rng.random((size, instance.n))
    alpha, msize = simulate_alphas_batch(instance, charging, ranks)
    sums, sumsqs, residual = _cover_sums(instance, alpha, msize)
    return sums, sumsqs, int(np.sum(residual > COND1_TOL))


@dataclass(frozen=True)
class EdgeEstimate:
    u: int
    v: int
    mean: float
    stderr: float
    trials: int


@dataclass(frozen=True)
class FeasibilityReport:
    edges: tuple[EdgeEstimate, ...]
    target: float
    trials: int
    min_mean: Optional[float]  # None when the instance has no edges
    failing: tuple[tuple[int, int], ...]
    cond1_violations: int

    @property
    def passed(self) -> bool:
        return not self.failing and self.cond1_violations == 0

    def as_dict(self) -> dict:
        return {
            "edges": [asdict(e) for e in self.edges],
            "summary": {
                "min_mean": self.min_mean,
                "F": self.target,
                "trials": self.trials,
                "cond1_violations": self.cond1_violations,
                "pass": self.passed,
            },
        }


def verify_feasibility(
    instance: Instance,
    charging: ChargingFunction,
    target: float,
    trials: int,
    seed: int,
    workers=None,
) -> FeasibilityReport:
    """Check both dual-fitting conditions: exact per-trial mass balance and
    the per-edge expected cover against the target ratio (3-sigma band)."""
    if not math.isfinite(target):
        raise ParamsInvalid(f"target must be a finite number, got {target}")
    check_trials(trials)
    if not check_properties(charging).passed:
        raise ChargingInvalid("charging function fails its required properties")
    sizes = chunk_sizes(trials, instance.n)
    args = [(instance, charging, seed, cid, size) for cid, size in enumerate(sizes)]
    sums = np.zeros(instance.m)
    sumsqs = np.zeros(instance.m)
    cond1_bad = 0
    # each chunk folded in as it arrives, in chunk-id order whatever the
    # worker count, and then dropped
    for s, sq, bad in run_chunked(_edge_cover_chunk, args, workers=workers):
        sums += s
        sumsqs += sq
        cond1_bad += bad
    estimates = []
    # Python floats, not numpy scalars: the same IEEE arithmetic, and
    # `FeasibilityReport.as_dict` copies them at a fraction of the cost
    edges = instance.edge_array.tolist()
    for (u, v), s, sq in zip(edges, sums.tolist(), sumsqs.tolist()):
        mean = s / trials
        var = max(0.0, sq / trials - mean * mean)
        stderr = math.sqrt(var / trials)
        estimates.append(EdgeEstimate(u=u, v=v, mean=mean, stderr=stderr, trials=trials))
    return FeasibilityReport(
        edges=tuple(estimates),
        target=target,
        trials=trials,
        min_mean=min((e.mean for e in estimates), default=None),
        failing=tuple((e.u, e.v) for e in estimates if e.mean + 3.0 * e.stderr < target),
        cond1_violations=cond1_bad,
    )


# -- exact covers over all rank orders (n <= EXACT_MAX_N) ----------------------


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """32-point nodes and weights, built on first use: building them at
    import would load numpy.polynomial into every process."""
    return np.polynomial.legendre.leggauss(32)


@functools.cache
def _order_statistic_table(charging: ChargingFunction, which: str, n: int) -> np.ndarray:
    """E[fn(U_(r:n))] for r = 1..n, fn being charging's g or h (`which`), by
    Gauss-Legendre on each piece between the charging's `breakpoints`, where
    g and h are smooth.

    A pure function of frozen values, so it is computed once for each and
    returned read-only; `exact_edge_covers` keeps n <= EXACT_MAX_N.
    """
    fn = charging.g if which == "g" else charging.h
    nodes, weights = _gauss_legendre()
    r = np.arange(1, n + 1)
    # n! / ((r-1)! (n-r)!), the density of U_(r:n) over x^(r-1) (1-x)^(n-r)
    coef = np.array([n * math.comb(n - 1, k) for k in range(n)], dtype=float)
    breakpoints = [0.0, *charging.breakpoints, 1.0]
    total = np.zeros(n)
    for a, b in zip(breakpoints, breakpoints[1:]):
        xs = (0.5 * (b - a) * nodes + 0.5 * (a + b))[:, None]
        vals = fn(xs) * xs ** (r - 1) * (1.0 - xs) ** (n - r)
        total += 0.5 * (b - a) * (weights @ vals)
    table = coef * total
    table.setflags(write=False)
    return table


def exact_edge_covers(instance: Instance, charging: ChargingFunction) -> np.ndarray:
    """Exact E[alpha_u + alpha_v] of every edge, in `edge_array` order, as
    the batch duals averaged over rank orders.

    Each of the n! rank orders is one row of order positions.  Within an
    order the matching, roles and victims are fixed, so each alpha is linear
    in g and h at the passive partners' ranks; the rank at (0-based)
    position r is distributed as U_(r+1:n) whatever the order, so g and h
    become lookups in tables of order-statistic expectations.
    """
    n = instance.n
    if n > EXACT_MAX_N:
        raise TooLarge(f"exact edge cover is limited to n <= {EXACT_MAX_N}")
    if not check_properties(charging).passed:
        raise ChargingInvalid("charging function fails its required properties")
    # every permutation is a row: row[v] is v's position in that rank order
    positions = np.array(list(permutations(range(n))), dtype=np.intp)
    eg = _order_statistic_table(charging, "g", n)
    eh = _order_statistic_table(charging, "h", n)
    alpha, msize = _alphas(instance, positions, eg.__getitem__, eh.__getitem__)
    # each edge's sum adds one contiguous row, as a mean over that edge's
    # covers alone would, so the quotient is that mean bit for bit
    sums, _, residual = _cover_sums(instance, alpha, msize)
    worst = residual.max()
    if worst > COND1_TOL:
        raise InvariantViolated(f"|sum alpha - |M|| = {worst:.3g} on a rank order")
    return sums / len(positions)


def exact_edge_cover(
    instance: Instance, edge: tuple[int, int], charging: ChargingFunction
) -> float:
    """Exact E[alpha_u + alpha_v] of one edge; see `exact_edge_covers`."""
    e = (min(edge), max(edge))
    if not instance.has_edge(*e):
        raise RankMissing(f"edge {e} not in instance")
    # the edge array is sorted by key, so the edge's row is its key's place
    n = instance.n
    lo, hi = np.array([e]).T
    row = np.searchsorted(edge_keys(*instance.edge_array.T, n), edge_keys(lo, hi, n))
    return float(exact_edge_covers(instance, charging)[row[0]])
