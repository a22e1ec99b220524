"""Fully online matching instances: event streams, edges and validation.

An instance is a set of vertices, an interleaved stream of arrival/deadline
events (one of each per vertex, arrival first) and an undirected edge list.
Every edge must satisfy the model guarantee: both endpoints arrive before
either endpoint's deadline.  Edges are kept as numpy arrays (a sorted edge
array and CSR adjacency), so that large instances are built and read without
one Python object per edge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import IO, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    EdgeViolatesModel,
    IndexOutOfRange,
    MalformedEvents,
    ParamsInvalid,
    SelfLoop,
    TooLarge,
)


class EventKind(Enum):
    ARRIVAL = "arrival"
    DEADLINE = "deadline"


@dataclass(frozen=True)
class Event:
    kind: EventKind
    vertex: int


def A(v: int) -> Event:
    """Arrival event shorthand."""
    return Event(EventKind.ARRIVAL, v)


def D(v: int) -> Event:
    """Deadline event shorthand."""
    return Event(EventKind.DEADLINE, v)


@dataclass(frozen=True, eq=False)
class Instance:
    """Validated, immutable fully online matching instance.

    The edges are stored once, as numpy arrays: `edge_array` is (m, 2)
    int32 with u < v in each row and the rows sorted, and `indptr`/`indices`
    are its CSR adjacency, vertex v's neighbours being
    `indices[indptr[v]:indptr[v + 1]]` in ascending order.  The tuple views
    `edges` and `adj` are built on first use and cached; they take no part in
    equality, hashing or repr.  Make instances with `build_instance` and
    treat every field as read-only.
    """

    n: int
    events: tuple[Event, ...]
    bipartition: Optional[tuple[int, ...]]
    edge_array: np.ndarray
    arrival_pos: tuple[int, ...] = field(repr=False)
    deadline_pos: tuple[int, ...] = field(repr=False)
    deadline_order: tuple[int, ...] = field(repr=False)
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """The edge array as sorted (u, v) tuples, u < v."""
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's ascending neighbours, as tuples."""
        ptr = self.indptr.tolist()
        flat = self.indices.tolist()
        return tuple(tuple(flat[ptr[v] : ptr[v + 1]]) for v in range(self.n))

    def neighbors(self, v: int) -> np.ndarray:
        """v's ascending neighbours: a view into `indices`."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether {u, v} is an edge: a binary search of u's CSR row."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < len(row) and bool(row[i] == v)

    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    def earlier_deadline(self, u: int, v: int) -> bool:
        """True iff u's deadline precedes v's."""
        return self.deadline_pos[u] < self.deadline_pos[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return (
            self.n == other.n
            and self.events == other.events
            and self.bipartition == other.bipartition
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash(
            (self.n, self.events, self.bipartition, self.edge_array.tobytes())
        )


def _edge_pairs(edges) -> np.ndarray:
    """The edges as an (m, 2) integer array."""
    pairs = edges if isinstance(edges, np.ndarray) else np.asarray(list(edges))
    if pairs.shape == (0,):
        return np.empty((0, 2), dtype=np.int64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    if pairs.dtype.kind not in "iu" and pairs.size:
        # also ids beyond int64, which numpy keeps as objects or floats
        raise IndexOutOfRange("edge endpoints must be integer vertex ids")
    return pairs


def _raise_first_fault(keys, loop, late, head, pairs, n) -> None:
    """Raise the error a one-edge-at-a-time check meets first.

    Edges before `head` are in range; `keys` identifies each of them
    regardless of orientation.  Per edge the checks run in the order range,
    self-loop, duplicate of an earlier edge, model guarantee.
    """
    order = np.argsort(keys, kind="stable")
    dup = np.zeros(len(keys), dtype=bool)
    dup[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = loop | dup | late
    if bad.any():
        i = int(np.argmax(bad))
        a, b = divmod(int(keys[i]), n)
        if loop[i]:
            raise SelfLoop(f"self-loop at vertex {a}")
        if dup[i]:
            raise DuplicateEdge(f"duplicate edge {(a, b)}")
        raise EdgeViolatesModel(
            f"edge {(a, b)}: an endpoint arrives after the other's deadline"
        )
    u, v = pairs[head].tolist()
    raise IndexOutOfRange(f"edge ({u}, {v}) out of range [0, {n})")


def build_instance(
    n: int,
    events: Sequence[Event],
    edges,
    bipartition: Optional[Sequence[int]] = None,
) -> Instance:
    """Validate the raw pieces and assemble an Instance.

    `edges` is an iterable of (u, v) pairs or an (m, 2) integer array, in
    any order and orientation.  Raises MalformedEvents, IndexOutOfRange,
    SelfLoop, DuplicateEdge or EdgeViolatesModel when the input breaks the
    model's guarantees; the edge error is the one met first when the edges
    are checked one at a time in input order.
    """
    if n < 0:
        raise MalformedEvents(f"negative vertex count {n}")
    if len(events) != 2 * n:
        raise MalformedEvents(f"expected {2 * n} events, got {len(events)}")

    arrival_pos = [-1] * n
    deadline_pos = [-1] * n
    for pos, ev in enumerate(events):
        if not (0 <= ev.vertex < n):
            raise MalformedEvents(f"event vertex {ev.vertex} out of range [0, {n})")
        slot = arrival_pos if ev.kind is EventKind.ARRIVAL else deadline_pos
        if slot[ev.vertex] != -1:
            raise MalformedEvents(f"duplicate {ev.kind.value} for vertex {ev.vertex}")
        slot[ev.vertex] = pos
    for v in range(n):
        if arrival_pos[v] == -1 or deadline_pos[v] == -1:
            raise MalformedEvents(f"vertex {v} is missing an arrival or deadline")
        if arrival_pos[v] > deadline_pos[v]:
            raise MalformedEvents(f"vertex {v} has its deadline before its arrival")

    pairs = _edge_pairs(edges)
    u, v = pairs[:, 0], pairs[:, 1]
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    # the edges before the first out-of-range one are checked first
    head = int(np.argmax(out)) if out.any() else len(pairs)
    lo = np.minimum(u[:head], v[:head]).astype(np.int64)
    hi = np.maximum(u[:head], v[:head]).astype(np.int64)
    keys = lo * n + hi
    sorted_keys = np.sort(keys)
    apos = np.array(arrival_pos, dtype=np.int64)
    dpos = np.array(deadline_pos, dtype=np.int64)
    loop = lo == hi
    late = np.maximum(apos[lo], apos[hi]) > np.minimum(dpos[lo], dpos[hi])
    if (
        head < len(pairs)
        or loop.any()
        or late.any()
        or (sorted_keys[1:] == sorted_keys[:-1]).any()
    ):
        _raise_first_fault(keys, loop, late, head, pairs, n)
    first, second = np.divmod(sorted_keys, n)
    edge_array = np.stack([first, second], axis=1).astype(np.int32)

    bip: Optional[tuple[int, ...]] = None
    if bipartition is not None:
        if len(bipartition) != n or any(s not in (0, 1) for s in bipartition):
            raise MalformedEvents("bipartition must assign 0/1 to every vertex")
        side = np.array(bipartition, dtype=np.int8)
        same = side[first] == side[second]
        if same.any():
            a, b = edge_array[int(np.argmax(same))].tolist()
            raise MalformedEvents(f"edge ({a}, {b}) does not cross the bipartition")
        bip = tuple(int(s) for s in bipartition)

    # both orientations of every edge, sorted by (row, column)
    entries = np.sort(np.concatenate([sorted_keys, second * n + first]))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(first, minlength=n) + np.bincount(second, minlength=n),
        out=indptr[1:],
    )

    return Instance(
        n=n,
        events=tuple(events),
        bipartition=bip,
        edge_array=edge_array,
        arrival_pos=tuple(arrival_pos),
        deadline_pos=tuple(deadline_pos),
        deadline_order=tuple(np.argsort(dpos).tolist()),
        indptr=indptr,
        indices=(entries % n).astype(np.int32),
    )


def from_one_sided(
    offline_count: int, online_adjacency: Sequence[Sequence[int]]
) -> Instance:
    """Encode a one-sided online bipartite instance in the fully online model.

    Offline vertices arrive first and have deadlines at the end; each online
    vertex has its deadline right after its arrival.
    """
    if offline_count < 0:
        raise IndexOutOfRange(f"negative offline count {offline_count}")
    online_count = len(online_adjacency)
    n = offline_count + online_count
    events: list[Event] = [A(v) for v in range(offline_count)]
    edges: list[tuple[int, int]] = []
    for i, nbrs in enumerate(online_adjacency):
        v = offline_count + i
        events.append(A(v))
        events.append(D(v))
        for off in nbrs:
            if not (0 <= off < offline_count):
                raise IndexOutOfRange(f"offline neighbor {off} out of range")
            edges.append((off, v))
    events.extend(D(v) for v in range(offline_count))
    bipartition = [0] * offline_count + [1] * online_count
    return build_instance(n, events, edges, bipartition)


PAIR_BLOCK = 1 << 18
"""Candidate vertex pairs a random generator draws at a time (whole rows, at
least one), which bounds its scratch memory."""

MAX_PAIRS = 1 << 28
"""Candidate-pair budget of the random generators, which draw one uniform each."""


def _check_pairs(pairs: int, what: str) -> None:
    if pairs > MAX_PAIRS:
        raise TooLarge(
            f"{what} has {pairs} candidate pairs, above the budget of {MAX_PAIRS}"
        )


def random_one_sided(n: int, edge_prob: float, seed: int) -> Instance:
    """One-sided instance with n offline and n online vertices: each of the
    n^2 pairs is an edge with probability edge_prob, drawing one uniform per
    pair, online vertex by online vertex."""
    _check_pairs(max(n, 0) ** 2, f"one-sided n={n}")
    rng = np.random.default_rng(seed)
    rows = max(1, PAIR_BLOCK // max(1, n))
    adjacency: list[list[int]] = []
    for start in range(0, n, rows):
        hits = rng.random((min(rows, n - start), n)) < edge_prob
        adjacency.extend(np.flatnonzero(row).tolist() for row in hits)
    return from_one_sided(n, adjacency)


def random_instance(
    n: int, edge_prob: float, bipartite: bool, seed: int
) -> Instance:
    """Random instance with a uniformly interleaved valid event stream.

    The 2n event slots are a uniform random order conditioned on each arrival
    preceding its deadline; candidate edges are sampled independently with
    probability edge_prob and dropped when they violate the model guarantee.
    Candidates are all pairs u < v (only those crossing the bipartition for
    bipartite instances), each drawing one uniform in lexicographic order;
    more than MAX_PAIRS pairs u < v raise TooLarge.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise ParamsInvalid(f"edge_prob {edge_prob} outside [0, 1]")
    _check_pairs(max(n, 0) * max(n - 1, 0) // 2, f"random n={n}")
    rng = np.random.default_rng(seed)
    slots = np.sort(rng.permutation(2 * n).reshape(n, 2), axis=1)
    apos, dpos = slots[:, 0], slots[:, 1]
    events: list[Event] = [None] * (2 * n)  # type: ignore[list-item]
    for v, (a, d) in enumerate(slots.tolist()):
        events[a] = A(v)
        events[d] = D(v)

    side = rng.integers(0, 2, size=n) if bipartite else None

    blocks = [np.empty((0, 2), dtype=np.int64)]
    rows = max(1, PAIR_BLOCK // max(1, n))
    for start in range(0, n, rows):
        u = np.arange(start, min(n, start + rows))[:, None]
        candidate = np.arange(n) > u
        if side is not None:
            candidate &= side != side[u]
        cu, cv = np.nonzero(candidate)  # row-major: lexicographic (u, v)
        cu += start
        keep = rng.random(len(cu)) < edge_prob
        cu, cv = cu[keep], cv[keep]
        # drop, don't resample, pairs that violate the model guarantee
        valid = np.maximum(apos[cu], apos[cv]) <= np.minimum(dpos[cu], dpos[cv])
        blocks.append(np.stack([cu[valid], cv[valid]], axis=1))
    bipartition = side.tolist() if side is not None else None
    return build_instance(n, events, np.concatenate(blocks), bipartition)


def to_json_dict(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "events": [
            {"kind": ev.kind.value, "v": ev.vertex} for ev in instance.events
        ],
        "edges": instance.edge_array.tolist(),
        "bipartition": list(instance.bipartition)
        if instance.bipartition is not None
        else None,
    }


def _json_int(value, error: type, what: str) -> int:
    """A JSON integer; floats, strings and booleans are rejected."""
    if type(value) is not int:
        raise error(f"{what} must be an integer, got {value!r}")
    return value


def from_json_dict(data: dict) -> Instance:
    n = _json_int(data["n"], MalformedEvents, "vertex count")
    events = [
        Event(EventKind(ev["kind"]), _json_int(ev["v"], MalformedEvents, "event vertex"))
        for ev in data["events"]
    ]
    edges = [
        [_json_int(x, IndexOutOfRange, "edge endpoint") for x in pair]
        for pair in data["edges"]
    ]
    bip = data.get("bipartition")
    if bip is not None:
        bip = [_json_int(s, MalformedEvents, "bipartition side") for s in bip]
    return build_instance(n, events, edges, bip)


def save_instance(instance: Instance, fp: IO[str]) -> None:
    json.dump(to_json_dict(instance), fp, indent=2)
    fp.write("\n")


def load_instance(fp: IO[str]) -> Instance:
    return from_json_dict(json.load(fp))
