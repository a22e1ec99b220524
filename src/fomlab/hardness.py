"""Hardness constructions and their analytic ratio predictions.

Two instance families: a random adversary tree that bounds every online
algorithm away from 1 - 1/e, and a layered blow-up instance on which
Ranking's ratio converges to the Omega constant (the solution of
x = exp(-x)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from ._parallel import chunk_sizes, run_chunked
# `run_ranking` is not called here; the benchmark's tracer rebinds it in this
# module, and tests/test_tracing_contract.py checks that the name exists
from .engine import run_ranking, run_ranking_batch  # noqa: F401
from .errors import InvariantViolated, ParamsInvalid, TooLarge
from .instance import A, D, Event, Instance, build_instance
from .oracle import max_matching_bipartite, max_matching_general

RECURRENCE_TOL = 1e-12


MAX_EDGES = 1 << 24
"""Edge budget of the generated hardness instances, about 34 times the
layered k=100, h=50 instance (495,000 edges)."""

MAX_LEAVES = 1 << 23
"""Leaf budget of `adversary_ratio`, whose harmonic sum takes a step per leaf."""


def _too_large(family: str, params) -> TooLarge:
    return TooLarge(
        f"{family} k={params.k}, h={params.h} has more edges than the budget "
        f"of {MAX_EDGES}"
    )


@dataclass(frozen=True)
class AdversaryTreeParams:
    k: int
    h: int
    seed: int

    def __post_init__(self):
        if self.k < 1 or self.h < 1:
            raise ParamsInvalid(f"need k >= 1 and h >= 1, got k={self.k}, h={self.h}")
        # the k^h leaves alone bring k^h (k^h + 1) / 2 B-phase edges; from
        # 2^32 leaves on, that is over 2^63 and not worth evaluating
        huge = self.k > 1 and self.h * (int(self.k).bit_length() - 1) >= 32
        if huge or self.edge_count > MAX_EDGES:
            raise _too_large("adversary tree", self)

    @property
    def side_size(self) -> int:
        """1 + k + ... + k^h, half the vertex count."""
        if self.k == 1:
            return self.h + 1
        return (self.k ** (self.h + 1) - 1) // (self.k - 1)

    @property
    def edge_count(self) -> int:
        """k + 1 tree edges per internal vertex, then the B-phase triangle
        over the k^h leaves."""
        leaves = self.k**self.h
        return (self.k + 1) * (self.side_size - leaves) + leaves * (leaves + 1) // 2


@dataclass(frozen=True)
class LayeredParams:
    k: int
    h: int

    def __post_init__(self):
        if self.k < 1 or self.h < 1:
            raise ParamsInvalid(f"need k >= 1 and h >= 1, got k={self.k}, h={self.h}")
        if self.edge_count > MAX_EDGES:
            raise _too_large("layered instance", self)

    @property
    def side_size(self) -> int:
        return self.k * self.h

    @property
    def edge_count(self) -> int:
        """One pendant per group vertex, k^2 edges between consecutive groups."""
        return self.side_size + self.k * self.k * (self.h - 1)


def gen_adversary_tree(params: AdversaryTreeParams) -> Instance:
    """Random (k+1)-ary tree instance followed by the triangular B-phase.

    Each internal tree vertex reveals its k+1 children and dies immediately;
    a random child per node is demoted to a pendant-side vertex.  The level-h
    survivors are hit by B-vertices in a random permutation order, b_i seeing
    the suffix a_i..a_last.  Arbitrary online algorithms cannot beat the
    water-filling prediction on this family.
    """
    k, h = params.k, params.h
    rng = np.random.default_rng(params.seed)
    events: list[Event] = []
    tree_edges: list[tuple[int, int]] = []
    color: list[int] = []

    def new_vertex(c: int) -> int:
        color.append(c)
        return len(color) - 1

    root = new_vertex(0)
    events.append(A(root))
    frontier = [root]  # current level's u-vertices, in creation order
    for level in range(h):
        next_frontier = []
        for u in frontier:
            children = [new_vertex(1 - color[u]) for _ in range(k + 1)]
            for c in children:
                events.append(A(c))
                tree_edges.append((u, c))
            events.append(D(u))
            keep = rng.permutation(k + 1)[:k]  # promoted to next-level u's
            promoted = [children[i] for i in sorted(keep)]
            next_frontier.extend(promoted)
        frontier = next_frontier

    a_order = np.array(frontier, dtype=np.int64)[rng.permutation(len(frontier))]
    b_color = 1 - color[a_order[0]] if len(a_order) else 0
    first_b = len(color)
    for _ in a_order:
        b = new_vertex(b_color)
        events.append(A(b))
        events.append(D(b))
    # b_i sees the suffix a_order[i:]
    rows, cols = np.triu_indices(len(a_order))
    edges = np.concatenate(
        [np.array(tree_edges, dtype=np.int64).reshape(-1, 2),
         np.stack([first_b + rows, a_order[cols]], axis=1)]
    )

    seen_deadlines = {ev.vertex for ev in events if ev.kind.value == "deadline"}
    for v in range(len(color)):
        if v not in seen_deadlines:
            events.append(D(v))
    return build_instance(len(color), events, edges, color)


def gen_ranking_hard(params: LayeredParams) -> Instance:
    """Layered instance: h groups of k vertices, complete bipartite between
    consecutive groups, one pendant per vertex; deadlines in index order."""
    k, h = params.k, params.h
    n = k * h
    parity = np.arange(n) // k % 2
    color = np.concatenate([parity, 1 - parity]).tolist()
    pendants = np.stack([np.arange(n), n + np.arange(n)], axis=1)
    # vertex i of every group but the last meets all k of the next group
    src = np.repeat(np.arange(n - k), k)
    dst = src // k * k + k + np.tile(np.arange(k), n - k)
    edges = np.concatenate([pendants, np.stack([src, dst], axis=1)])
    events = [A(v) for v in range(2 * n)] + [D(v) for v in range(2 * n)]
    return build_instance(2 * n, events, edges, color)


def adversary_p_sequence(k: int, h: int) -> list[float]:
    """Match probabilities per tree level: p_0 = 0, p_i = (1 - p_{i-1})/(k+1).

    Cross-checked against the closed form (1/(k+2))(1 - (-1/(k+1))^i).
    """
    ps = [0.0]
    for _ in range(h):
        ps.append((1.0 - ps[-1]) / (k + 1))
    for i, p in enumerate(ps):
        closed = (1.0 / (k + 2)) * (1.0 - (-1.0 / (k + 1)) ** i)
        if abs(p - closed) >= RECURRENCE_TOL:
            raise InvariantViolated(
                f"p_{i} = {p} disagrees with its closed form {closed}"
            )
    return ps


@dataclass(frozen=True)
class AdversaryPrediction:
    k: int
    h: int
    p_h: float
    t: float
    t_fraction: float
    ratio_finite: float
    ratio_asymptotic: float

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "h": self.h,
            "p_h": self.p_h,
            "t": self.t,
            "ratio_finite": self.ratio_finite,
            "ratio_asymptotic": self.ratio_asymptotic,
        }


def adversary_ratio(k: int, h: int) -> AdversaryPrediction:
    """Analytic upper-bound prediction for the adversary-tree family.

    t counts B-vertices matched under water-filling: the harmonic sum
    1/m + 1/(m-1) + ... accumulates to 1 - p_h, with the final term taken
    fractionally.  The asymptotic closed form is the h -> infinity limit.
    """
    if k < 2 or h < 1:
        raise ParamsInvalid(f"need k >= 2 and h >= 1, got k={k}, h={h}")
    # exact: log2 of a power of two is exact, and any other k^h is at least
    # 1 away from MAX_LEAVES, far beyond the rounding error
    if h * math.log2(k) > math.log2(MAX_LEAVES):
        raise TooLarge(f"adversary tree k={k}, h={h}: over {MAX_LEAVES} leaves")
    ps = adversary_p_sequence(k, h)
    p_h = ps[h]
    m = k**h
    budget = 1.0 - p_h
    t = 0.0
    acc = 0.0
    for j in range(m):
        term = 1.0 / (m - j)
        if acc + term >= budget:
            t += (budget - acc) / term
            acc = budget
            break
        acc += term
        t += 1.0
    n_side = (k ** (h + 1) - 1) // (k - 1)
    # count-based finite estimate; the paper's displayed finite expression is
    # garbled, so only the asymptotic form is treated as authoritative
    ratio_finite = (
        2.0 * t + (n_side - m) + p_h * m + p_h * (n_side - m)
    ) / (2.0 * n_side)
    ratio_asymptotic = (
        (k - 1) / k * (1.0 - math.exp(-(k + 1) / (k + 2)))
        + 1.0 / (2 * k)
        + 1.0 / (2 * (k + 2))
    )
    return AdversaryPrediction(
        k=k,
        h=h,
        p_h=p_h,
        t=t,
        t_fraction=t / m,
        ratio_finite=ratio_finite,
        ratio_asymptotic=ratio_asymptotic,
    )


def omega_fixed_point() -> float:
    """Solve x = exp(-x) by Newton iteration to machine precision."""
    x = 0.5
    for _ in range(100):
        fx = x - math.exp(-x)
        fpx = 1.0 + math.exp(-x)
        step = fx / fpx
        x -= step
        if abs(step) < 1e-15:
            break
    return x


@dataclass(frozen=True)
class FluidResult:
    fractions: tuple[float, ...]
    limit: float

    def as_dict(self) -> dict:
        return {
            "fractions": list(self.fractions),
            "limit": self.limit,
        }


def fluid_recurrence(k: int, h: int) -> FluidResult:
    """Fluid-limit unmatched fractions per group: x_1 = 1, x_{i+1} = exp(-x_i).

    k only matters for finite-size corrections, which the fluid limit drops;
    the sequence oscillates into the Omega constant.
    """
    if k < 1 or h < 1:
        raise ParamsInvalid(f"need k >= 1 and h >= 1, got k={k}, h={h}")
    xs = [1.0]
    for _ in range(h - 1):
        xs.append(math.exp(-xs[-1]))
    return FluidResult(fractions=tuple(xs), limit=omega_fixed_point())


def z_path(k: int, steps: int) -> np.ndarray:
    """Mean-field fraction of unmatched next-group vertices after t deadlines.

    One deadline consumes the minimum-rank unmatched group vertex with
    probability Z/(k+1) (otherwise the pendant wins), giving the decay
    (k/(k+1))^t that converges to exp(-t/k)."""
    t = np.arange(steps + 1)
    return (k / (k + 1.0)) ** t


def _opt_size(instance: Instance) -> int:
    if instance.is_bipartite():
        return max_matching_bipartite(instance).size
    return max_matching_general(instance).size


def _sizes_chunk(args):
    """Ranking's sizes on `rows` uniform rank rows from default_rng(key), or
    with key None, its size on the arrival positions (Greedy) `rows` times."""
    instance, key, rows = args
    if key is None:
        ranks = np.asarray(instance.arrival_pos, dtype=float)[None]
    else:
        ranks = np.random.default_rng(key).random((rows, instance.n))
    _, active = run_ranking_batch(instance, ranks)
    return np.resize(active.sum(axis=1), rows)


def empirical_ratio(
    source: Union[Instance, Callable[[int], Instance]],
    algorithm: str,
    trials: int,
    seed: int,
    workers=None,
) -> tuple[float, float]:
    """Monte Carlo mean and stderr of |M_alg| / OPT.

    `source` is either a fixed Instance (ranks vary per trial) or a callable
    mapping a trial index to a fresh Instance (e.g. the random adversary
    tree).  Each distinct instance gets its OPT once and one batch call per
    block of rows.  A fixed instance's blocks are keyed [seed, block id] and
    spread over `workers`; trial t of a callable source is one row keyed
    [seed, t, 1], run here (numpy drops a trailing 0, so a tag 0 would
    repeat the CLI's tree key [seed, t]).  Greedy runs one row per instance.
    """
    if trials < 1:
        raise ParamsInvalid(f"need trials >= 1, got {trials}")
    if algorithm not in ("ranking", "greedy"):
        raise ParamsInvalid(f"unknown algorithm {algorithm!r}")

    fixed = isinstance(source, Instance)
    ratios = []
    for trial in range(1 if fixed else trials):
        inst = source if fixed else source(trial)
        opt = _opt_size(inst)
        if algorithm == "greedy":
            args = [(inst, None, trials if fixed else 1)]
        elif fixed:
            blocks = chunk_sizes(trials, max(1, min(4096, 4_000_000 // max(1, inst.n))))
            args = [(inst, [seed, cid], size) for cid, size in enumerate(blocks)]
        else:
            args = [(inst, [seed, trial, 1], 1)]
        sizes = np.concatenate(run_chunked(_sizes_chunk, args, workers=workers))
        ratios.append(sizes / opt if opt else np.ones(len(sizes)))

    arr = np.concatenate(ratios)
    mean = float(arr.mean())
    stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return mean, stderr
