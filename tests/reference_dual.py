"""Trial-major reference for the batch dual rule.

`reference_alphas` is the batch dual rule as it was written over (trials x
n) arrays: it rebuilds `formed` and the base choices with whole-matrix
steps, gathers columns of trial-major arrays and adds the compensations
into a C-contiguous (trials x n) `alpha`.  `reference_exact_edge_covers`
averages it over every rank order, as `exact_edge_covers` does, and
`whole_matrix_exact_edge_covers` averages `_alphas` itself as one
(edges x n!) cover matrix, as `exact_edge_covers` did before it summed the
covers an edge block at a time.
`fomlab.dual._alphas`, which keeps the kernel's vertex-major (n x trials)
layout, and the exact covers must equal them with `np.array_equal`: every
entry gets the same shares and compensations, added in the same order.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from fomlab.charging import ChargingFunction
from fomlab.dual import _alphas, _order_statistic_table
from fomlab.engine import run_ranking_batch
from fomlab.errors import InvariantViolated
from fomlab.instance import Instance


def reference_alphas(instance: Instance, ranks_matrix: np.ndarray, g, h):
    """The batch dual rule: g and h map the passive partners' entries of
    ranks_matrix to their gain share and compensation.

    Returns (alpha, matched_edges), alpha C-contiguous (trials x n).  Gain
    sharing is one pass over the active entries, one sweep over the
    deadlines follows every candidate column's alternating path, and the
    compensations are added with one `np.add.at` in payer-id order, which
    keeps the order of a per-vertex replay's additions in every entry.
    Raises InvariantViolated if a column finds two victims.
    """
    trials, n = ranks_matrix.shape
    partner, active = run_ranking_batch(instance, ranks_matrix)
    msize = active.sum(axis=1)
    alpha = np.zeros((trials, n))

    # gain sharing, over the flat (row, vertex) indices of the active
    # entries: an active entry gets 1 - g(y_p) and its passive partner's
    # entry g(y_p).  Each matched entry gets exactly one share, written onto
    # 0.0, so writing it is adding it.
    act = np.flatnonzero(active)
    passive = act - act % n + partner.ravel()[act]
    gp = g(ranks_matrix.ravel()[passive])
    flat = alpha.ravel()  # a view: alpha is contiguous
    flat[act] = 1.0 - gp
    flat[passive] = gp
    del act, passive, gp, flat

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
    # each vertex's deadline step, and n at index -1 for "no partner"
    step = np.empty(n + 1, dtype=np.int32)
    step[order] = np.arange(n, dtype=np.int32)
    step[n] = n
    # step at which each vertex's pair formed, n if it stays unmatched: v is
    # free in the base run just before step s where formed[row, v] >= s
    formed = np.where(active, step[:n], step[partner])
    # from here on partner holds each vertex's base choice: its partner
    # where it is active, -1 where it is passive or unmatched
    partner[~active] = -1
    del active
    # columns (w, row), sorted by w's deadline step and then by row; those
    # live at step s (w's deadline came earlier) are the first live[s]
    cands = [
        np.flatnonzero(
            (partner[:, w] >= 0) & (formed[:, instance.neighbors(w)] == n).any(axis=1)
        )
        for w in order.tolist()
    ]
    counts = [len(c) for c in cands]
    live = np.cumsum([0] + counts)
    if not live[-1]:  # no column, no victim
        return alpha, msize
    col_row = np.concatenate(cands)
    payer = np.repeat(order, counts)
    del cands
    d = partner[col_row, payer].astype(np.intp)
    extra_free = np.ones(len(d), dtype=bool)
    near_v = np.zeros(n, dtype=bool)
    ptr, indices = instance.indptr.tolist(), instance.indices.astype(np.intp)
    # the gathers below index these flat views (formed is laid out vertex
    # by vertex): one flat index per entry gathers faster than a (row,
    # vertex) pair
    formed_flat, ranks_flat = formed.T.ravel(), ranks_matrix.ravel()
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
        choice = partner.T[v][rc]
        # an extra-free d offered to a v that is free in the base run
        offer = np.flatnonzero(fc & ~at_v & (formed.T[v][rc] >= s))
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
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(instance.indptr))
    keys = keys * n + instance.indices
    query = payer[ended].astype(np.int64) * n + d[ended]
    hits = np.searchsorted(keys, query, "right") - np.searchsorted(keys, query)
    if (hits > 1).any():
        raise InvariantViolated(
            f"multiple victims for vertex {payer[ended][hits > 1].min()}"
        )
    paid = ended[hits == 1]
    vrows, w, victim = col_row[paid], payer[paid], d[paid]
    amount = h(ranks_matrix[vrows, partner[vrows, w]])
    # by payer id, debit before credit, so that each entry adds up its
    # compensations in the order a replay per vertex would
    by_payer = np.argsort(np.concatenate([w, w]), kind="stable")
    np.add.at(
        alpha,
        (np.concatenate([vrows, vrows])[by_payer], np.concatenate([w, victim])[by_payer]),
        np.concatenate([-amount, amount])[by_payer],
    )
    return alpha, msize


def reference_exact_edge_covers(
    instance: Instance, charging: ChargingFunction
) -> np.ndarray:
    """`exact_edge_covers` through `reference_alphas`: one row per rank
    order, g and h looked up in the order-statistic tables, and each edge's
    covers averaged as one contiguous row of a vertex-major copy."""
    positions = np.array(list(permutations(range(instance.n))), dtype=np.intp)
    eg = _order_statistic_table(charging, "g", instance.n)
    eh = _order_statistic_table(charging, "h", instance.n)
    alpha, _ = reference_alphas(instance, positions, eg.__getitem__, eh.__getitem__)
    alpha_vm = np.ascontiguousarray(alpha.T)
    eu, ev = instance.edge_array.T
    return (alpha_vm[eu] + alpha_vm[ev]).mean(axis=1)


def whole_matrix_exact_edge_covers(
    instance: Instance, charging: ChargingFunction
) -> np.ndarray:
    """`exact_edge_covers` as the mean of the whole (edges x n!) cover
    matrix of `_alphas` over every rank order."""
    positions = np.array(list(permutations(range(instance.n))), dtype=np.intp)
    eg = _order_statistic_table(charging, "g", instance.n)
    eh = _order_statistic_table(charging, "h", instance.n)
    alpha, _ = _alphas(instance, positions, eg.__getitem__, eh.__getitem__)
    alpha_vm = alpha.T
    eu, ev = instance.edge_array.T
    return (alpha_vm[eu] + alpha_vm[ev]).mean(axis=1)
