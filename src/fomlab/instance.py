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


_KINDS = (EventKind.ARRIVAL, EventKind.DEADLINE)
_TUPLE_VIEWS = frozenset(("events", "edges", "adj"))


@dataclass(frozen=True, eq=False)
class Instance:
    """Validated, immutable fully online matching instance.

    The event stream is stored once, as `stream`: 2n int32 codes in stream
    order, 2v for v's arrival and 2v + 1 for its deadline; the position
    tuples and `deadline_order` are derived from it.  The edges are stored
    once, as numpy arrays: `edge_array` is (m, 2) int32 with u < v in each
    row and the rows sorted, and `indptr`/`indices` are its CSR adjacency,
    vertex v's neighbours being `indices[indptr[v]:indptr[v + 1]]` in
    ascending order.  The views `events` (the stream as Event objects),
    `edges` and `adj` and the later-deadline CSR `later` are built on first
    use and cached; they take no part in equality, hashing or repr.  Make
    instances with `build_instance`; its arrays, and those of `later`, are
    read-only (a write raises ValueError), so the caches cannot go stale.
    """

    n: int
    stream: np.ndarray
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
    def events(self) -> tuple[Event, ...]:
        """The stream as Event objects."""
        return tuple(Event(_KINDS[c & 1], c >> 1) for c in self.stream.tolist())

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

    @cached_property
    def later(self) -> tuple[np.ndarray, np.ndarray]:
        """Each vertex's later-deadline neighbours as a CSR `(indptr,
        indices)`: the adjacency rows masked to the neighbours whose
        deadline comes after the vertex's, so still ascending."""
        dpos = np.array(self.deadline_pos, dtype=np.int32)
        keep = dpos[self.indices] > np.repeat(dpos, np.diff(self.indptr))
        # each edge is a later-deadline entry of its earlier-deadline endpoint
        first, second = self.edge_array.T
        earlier = np.where(dpos[first] < dpos[second], first, second)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(earlier, minlength=self.n), out=indptr[1:])
        return _read_only(indptr), _read_only(self.indices[keep])

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
            and np.array_equal(self.stream, other.stream)
            and self.bipartition == other.bipartition
            and np.array_equal(self.edge_array, other.edge_array)
        )

    def __hash__(self) -> int:
        return hash(
            (self.n, self.stream.tobytes(), self.bipartition, self.edge_array.tobytes())
        )

    def __getstate__(self) -> dict:
        # the tuple views rebuild on use, and would grow the layered pickle
        # from 10.3 to 17.7 MB; `later` is kept, so that workers skip its build
        return {k: v for k, v in self.__dict__.items() if k not in _TUPLE_VIEWS}

    def __setstate__(self, state: dict) -> None:
        # pickle protocols below 5 restore arrays writeable
        arrays = tuple(state[k] for k in ("stream", "edge_array", "indptr", "indices"))
        for array in arrays + state.get("later", ()):
            _read_only(array)
        self.__dict__.update(state)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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


def edge_keys(lo: np.ndarray, hi: np.ndarray, n: int) -> np.ndarray:
    """Each pair's key lo * n + hi, in the edge array's order when lo < hi.
    Keys of pairs in [0, n) are below n^2: int32 while n^2 fits, else
    int64.  A pair outside [0, n) may wrap; callers check the range."""
    key_type = np.int32 if n * n < 2**31 else np.int64
    keys = lo.astype(key_type)
    keys *= n
    keys += hi
    return keys


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


def _sides(bipartition, n: int) -> np.ndarray:
    """The bipartition as n int8 sides, or MalformedEvents unless it is a
    length-n sequence of numbers each equal to 0 or 1."""
    try:
        side = np.asarray(bipartition) if len(bipartition) == n else None
    except ValueError:  # ragged nesting
        side = None
    if (
        side is None
        or side.shape != (n,)
        or side.dtype.kind not in "biufO"
        or not ((side == 0) | (side == 1)).all()
    ):
        raise MalformedEvents("bipartition must assign 0/1 to every vertex")
    return side.astype(np.int8)


def build_instance(
    n: int,
    events,
    edges,
    bipartition: Optional[Sequence[int]] = None,
) -> Instance:
    """Validate the raw pieces and assemble an Instance.

    `events` is the stream as a sequence of Events or as a 1-D integer array
    of codes, 2v for v's arrival and 2v + 1 for its deadline (an object
    array of Python ints for codes beyond int64).  `edges` is an iterable of
    (u, v) pairs or an (m, 2) integer array, in any order and orientation.
    Raises MalformedEvents, IndexOutOfRange, SelfLoop, DuplicateEdge or
    EdgeViolatesModel when the input breaks the model's guarantees; the
    event and edge errors are the ones met first when the events, then the
    edges, are checked one at a time in input order.
    """
    if n < 0:
        raise MalformedEvents(f"negative vertex count {n}")
    if not isinstance(events, np.ndarray):
        events = [2 * e.vertex + (e.kind is not EventKind.ARRIVAL) for e in events]
    codes = np.asarray(events)  # codes beyond int64 make an exact object array
    if codes.ndim != 1 or (codes.dtype.kind not in "iuO" and codes.size):
        raise MalformedEvents(f"event codes must be 1-D integers, got {codes.dtype}")
    if len(codes) != 2 * n:
        raise MalformedEvents(f"expected {2 * n} events, got {len(codes)}")
    # per event in stream order: the range check, then the duplicate check
    out = (codes < 0) | (codes >= 2 * n)
    head = int(np.argmax(out)) if out.any() else len(codes)
    stream = codes[:head].astype(np.int32)
    order = np.argsort(stream, kind="stable")
    dup = np.zeros(head, dtype=bool)
    dup[order[1:]] = stream[order[1:]] == stream[order[:-1]]
    if dup.any():
        v, deadline = divmod(int(stream[np.argmax(dup)]), 2)
        raise MalformedEvents(f"duplicate {_KINDS[deadline].value} for vertex {v}")
    if head < len(codes):
        v = int(codes[head]) >> 1
        raise MalformedEvents(f"event vertex {v} out of range [0, {n})")
    pos = np.empty(2 * n, dtype=np.int32)
    pos[stream] = np.arange(2 * n, dtype=np.int32)
    # contiguous rows, which the edge checks gather from faster
    apos, dpos = pos.reshape(n, 2).T.copy()
    if (apos > dpos).any():
        v = int(np.argmax(apos > dpos))
        raise MalformedEvents(f"vertex {v} has its deadline before its arrival")

    pairs = _edge_pairs(edges)
    u, v = pairs[:, 0], pairs[:, 1]
    out = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    # the edges before the first out-of-range one are checked first
    head = int(np.argmax(out)) if out.any() else len(pairs)
    # ids in [0, n) fit in int32, as in the edge array
    lo = np.minimum(u[:head], v[:head]).astype(np.int32)
    hi = np.maximum(u[:head], v[:head]).astype(np.int32)
    loop = lo == hi
    # the model-guarantee gathers run before the keys exist, so that their
    # scratch does not add to the keys' peak
    late = np.maximum(apos.take(lo), apos.take(hi)) > np.minimum(
        dpos.take(lo), dpos.take(hi)
    )
    keys = edge_keys(lo, hi, n)
    del lo, hi
    sorted_keys = np.sort(keys)
    if (
        head < len(pairs)
        or loop.any()
        or late.any()
        or (sorted_keys[1:] == sorted_keys[:-1]).any()
    ):
        _raise_first_fault(keys, loop, late, head, pairs, n)
    del keys, loop, late
    m = len(sorted_keys)
    edge_array = np.empty((m, 2), dtype=np.int32)
    first, second = edge_array.T
    np.divmod(sorted_keys, n, out=(first, second))
    del sorted_keys

    bip: Optional[tuple[int, ...]] = None
    if bipartition is not None:
        side = _sides(bipartition, n)
        same = side.take(first) == side.take(second)
        if same.any():
            a, b = edge_array[int(np.argmax(same))].tolist()
            raise MalformedEvents(f"edge ({a}, {b}) does not cross the bipartition")
        bip = tuple(side.tolist())

    # row v holds its lower neighbours, then its higher ones, each ascending:
    # a mask over the 2m slots marks the higher ones, row after row
    above = np.bincount(first, minlength=n)
    below = np.bincount(second, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(above + below, out=indptr[1:])
    counts = np.stack([below, above], axis=1).ravel()
    higher = np.repeat(np.tile(np.array([False, True]), n), counts)
    indices = np.empty(2 * m, dtype=np.int32)
    # the edge array lists the higher neighbours row by row
    indices[higher] = second
    # sorted by (second, first), the edges list the lower neighbours row by row
    lower = edge_keys(second, first, n)
    lower.sort()
    np.logical_not(higher, out=higher)
    indices[higher] = lower % n
    del lower, higher, counts

    return Instance(
        n=n,
        stream=_read_only(stream),
        bipartition=bip,
        edge_array=_read_only(edge_array),
        arrival_pos=tuple(apos.tolist()),
        deadline_pos=tuple(dpos.tolist()),
        deadline_order=tuple(np.argsort(dpos).tolist()),
        indptr=_read_only(indptr),
        indices=_read_only(indices),
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
    edges: list[tuple[int, int]] = []
    for i, nbrs in enumerate(online_adjacency):
        for off in nbrs:
            if not (0 <= off < offline_count):
                raise IndexOutOfRange(f"offline neighbor {off} out of range")
            edges.append((off, offline_count + i))
    offline = 2 * np.arange(offline_count)
    online = np.arange(2 * offline_count, 2 * n)  # each arrival, then its deadline
    stream = np.concatenate([offline, online, offline + 1])
    bipartition = [0] * offline_count + [1] * online_count
    return build_instance(n, stream, edges, bipartition)


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
    # slots maps code 2v + e to its position; the stream is its inverse
    stream = np.argsort(slots, axis=None)

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
    return build_instance(n, stream, np.concatenate(blocks), bipartition)


def to_json_dict(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "events": [
            {"kind": _KINDS[c & 1].value, "v": c >> 1} for c in instance.stream.tolist()
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


_EVENT_JSON = tuple(
    '    {\n      "kind": "%s",\n      "v": %%d\n    }' % kind.value for kind in _KINDS
)
_EDGE_JSON = "    [\n      %d,\n      %d\n    ]"
_INSTANCE_JSON = (
    '{\n  "n": %d,\n  "events": %s,\n  "edges": %s,\n  "bipartition": %s\n}\n'
)


def _json_list(templates: list[str], values: list[int]) -> str:
    """A list nested one level in `json.dump(..., indent=2)`'s layout."""
    if not templates:
        return "[]"
    return "[\n" + ",\n".join(templates) % tuple(values) + "\n  ]"


def save_instance(instance: Instance, fp: IO[str]) -> None:
    """Write the bytes of `json.dump(to_json_dict(instance), fp, indent=2)`
    and a newline, filled into string templates: json's indenting encoder
    is pure Python, one call per value."""
    codes = instance.stream
    events = _json_list(
        [_EVENT_JSON[c] for c in (codes & 1).tolist()], (codes >> 1).tolist()
    )
    edges = _json_list([_EDGE_JSON] * instance.m, instance.edge_array.ravel().tolist())
    bip = instance.bipartition
    sides = "null" if bip is None else _json_list(["    %d"] * len(bip), list(bip))
    fp.write(_INSTANCE_JSON % (instance.n, events, edges, sides))


def load_instance(fp: IO[str]) -> Instance:
    return from_json_dict(json.load(fp))
