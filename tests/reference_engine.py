"""Literal references for the scalar engine and the per-run dual rule.

`reference_run_ranking` walks the whole event stream and compares
candidates through `RankAssignment.key`, one call per candidate.
`reference_assign_duals` evaluates g and h on one passive partner's rank at
a time and finds each victim by a full run without the active vertex.
`reference_marginal_rank` reads the roles of a full reference run without
v.  `fomlab.engine.run_ranking`, `fomlab.dual.assign_duals` and
`fomlab.dual.marginal_rank` must equal them with `==`.
"""

from __future__ import annotations

import math
from typing import Optional

from fomlab.charging import ChargingFunction
from fomlab.dual import COND1_TOL, DualAssignment, MarginalRank, _largest_candidate
from fomlab.engine import MatchingOutcome, RankAssignment, Role, _trace_line
from fomlab.errors import InvariantViolated, RankMissing
from fomlab.instance import EventKind, Instance


def reference_run_ranking(
    instance: Instance,
    ranks: RankAssignment,
    *,
    removed: Optional[int] = None,
    with_trace: bool = False,
) -> MatchingOutcome:
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
        partner=tuple(partner),
        role=tuple(role),
        removed=removed,
        trace=tuple(trace) if trace is not None else None,
    )


def reference_marginal_rank(
    instance: Instance, ranks_others: RankAssignment, v: int
) -> MarginalRank:
    """`marginal_rank`'s one-run rule, with passive read from the roles."""
    without = reference_run_ranking(instance, ranks_others, removed=v)
    dpos = instance.deadline_pos
    eligible = [
        u
        for u in instance.adj[v]
        if dpos[u] < dpos[v] and without.role[u] is not Role.PASSIVE
    ]
    if any(without.partner[u] < 0 for u in eligible):
        return MarginalRank(theta=_largest_candidate(ranks_others, v, math.inf, True))
    if not eligible:
        return MarginalRank(theta=0.0)
    r, side, p = max(ranks_others.key(without.partner[u]) for u in eligible)
    return MarginalRank(theta=_largest_candidate(ranks_others, v, r, side or p > v))


def reference_find_victim(
    instance: Instance, ranks: RankAssignment, w: int, outcome: MatchingOutcome
) -> Optional[int]:
    without = reference_run_ranking(instance, ranks, removed=w)
    victims = [
        z
        for z in instance.adj[w]
        if not outcome.is_matched(z) and without.is_matched(z)
    ]
    if len(victims) > 1:
        raise InvariantViolated(f"multiple victims for {w}: {victims}")
    return victims[0] if victims else None


def reference_assign_duals(
    instance: Instance, ranks: RankAssignment, charging: ChargingFunction
) -> DualAssignment:
    outcome = reference_run_ranking(instance, ranks)
    n = instance.n
    gain = [0.0] * n
    comp_in = [0.0] * n
    comp_out = [0.0] * n
    victim_of = {}
    for v in range(n):
        if outcome.role[v] is not Role.ACTIVE:
            continue
        p = outcome.partner[v]
        y_p = ranks.ranks[p]
        gain[v] = 1.0 - charging.g(y_p, ranks.sides[p])
        gain[p] = charging.g(y_p, ranks.sides[p])
        z = reference_find_victim(instance, ranks, v, outcome)
        if z is not None:
            amount = charging.h(y_p, ranks.sides[p])
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
