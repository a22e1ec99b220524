"""Fully online matching instances: event streams, edges and validation.

An instance is a set of vertices, an interleaved stream of arrival/deadline
events (one of each per vertex, arrival first) and an undirected edge list.
Every edge must satisfy the model guarantee: both endpoints arrive before
either endpoint's deadline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    EdgeViolatesModel,
    IndexOutOfRange,
    MalformedEvents,
    ParamsInvalid,
    SelfLoop,
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


@dataclass(frozen=True)
class Instance:
    """Validated, immutable fully online matching instance.

    Derived fields (adjacency, event positions, deadline order) are computed
    once at construction; treat all fields as read-only.
    """

    n: int
    events: tuple[Event, ...]
    edges: tuple[tuple[int, int], ...]
    bipartition: Optional[tuple[int, ...]]
    arrival_pos: tuple[int, ...]
    deadline_pos: tuple[int, ...]
    adj: tuple[tuple[int, ...], ...]
    deadline_order: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_bipartite(self) -> bool:
        return self.bipartition is not None

    def earlier_deadline(self, u: int, v: int) -> bool:
        """True iff u's deadline precedes v's."""
        return self.deadline_pos[u] < self.deadline_pos[v]


def build_instance(
    n: int,
    events: Sequence[Event],
    edges: Iterable[tuple[int, int]],
    bipartition: Optional[Sequence[int]] = None,
) -> Instance:
    """Validate the raw pieces and assemble an Instance.

    Raises MalformedEvents, EdgeViolatesModel, SelfLoop or DuplicateEdge when
    the input breaks the model's guarantees.
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

    seen: set[tuple[int, int]] = set()
    norm_edges: list[tuple[int, int]] = []
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) out of range [0, {n})")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        e = (min(u, v), max(u, v))
        if e in seen:
            raise DuplicateEdge(f"duplicate edge {e}")
        seen.add(e)
        a, b = e
        if max(arrival_pos[a], arrival_pos[b]) > min(deadline_pos[a], deadline_pos[b]):
            raise EdgeViolatesModel(
                f"edge {e}: an endpoint arrives after the other's deadline"
            )
        norm_edges.append(e)
    norm_edges.sort()

    bip: Optional[tuple[int, ...]] = None
    if bipartition is not None:
        if len(bipartition) != n or any(s not in (0, 1) for s in bipartition):
            raise MalformedEvents("bipartition must assign 0/1 to every vertex")
        for u, v in norm_edges:
            if bipartition[u] == bipartition[v]:
                raise MalformedEvents(f"edge ({u}, {v}) does not cross the bipartition")
        bip = tuple(bipartition)

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in norm_edges:
        adj[u].append(v)
        adj[v].append(u)
    order = sorted(range(n), key=lambda v: deadline_pos[v])

    return Instance(
        n=n,
        events=tuple(events),
        edges=tuple(norm_edges),
        bipartition=bip,
        arrival_pos=tuple(arrival_pos),
        deadline_pos=tuple(deadline_pos),
        adj=tuple(tuple(sorted(a)) for a in adj),
        deadline_order=tuple(order),
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


def random_instance(
    n: int, edge_prob: float, bipartite: bool, seed: int
) -> Instance:
    """Random instance with a uniformly interleaved valid event stream.

    The 2n event slots are a uniform random order conditioned on each arrival
    preceding its deadline; candidate edges are sampled independently with
    probability edge_prob and dropped when they violate the model guarantee.
    """
    if not 0.0 <= edge_prob <= 1.0:
        raise ParamsInvalid(f"edge_prob {edge_prob} outside [0, 1]")
    rng = np.random.default_rng(seed)
    slots = rng.permutation(2 * n)
    events: list[Event] = [None] * (2 * n)  # type: ignore[list-item]
    arrival_pos = [0] * n
    deadline_pos = [0] * n
    for v in range(n):
        a, d = sorted((int(slots[2 * v]), int(slots[2 * v + 1])))
        events[a] = A(v)
        events[d] = D(v)
        arrival_pos[v] = a
        deadline_pos[v] = d

    bipartition: Optional[list[int]] = None
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
                continue  # violates the model guarantee: drop, don't resample
            edges.append((u, v))
    return build_instance(n, events, edges, bipartition)


def to_json_dict(instance: Instance) -> dict:
    return {
        "n": instance.n,
        "events": [
            {"kind": ev.kind.value, "v": ev.vertex} for ev in instance.events
        ],
        "edges": [[u, v] for u, v in instance.edges],
        "bipartition": list(instance.bipartition)
        if instance.bipartition is not None
        else None,
    }


def from_json_dict(data: dict) -> Instance:
    events = [
        Event(EventKind(ev["kind"]), int(ev["v"])) for ev in data["events"]
    ]
    edges = [(int(u), int(v)) for u, v in data["edges"]]
    bip = data.get("bipartition")
    return build_instance(int(data["n"]), events, edges, bip)


def save_instance(instance: Instance, fp: IO[str]) -> None:
    json.dump(to_json_dict(instance), fp, indent=2)
    fp.write("\n")


def load_instance(fp: IO[str]) -> Instance:
    return from_json_dict(json.load(fp))
