import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fomlab.errors import (
    DuplicateEdge,
    EdgeViolatesModel,
    IndexOutOfRange,
    MalformedEvents,
    ParamsInvalid,
    SelfLoop,
)
from fomlab.instance import (
    A,
    D,
    EventKind,
    build_instance,
    from_one_sided,
    load_instance,
    random_instance,
    save_instance,
    to_json_dict,
)
from reference_instance import reference_build


def test_smallest_legal_instance():
    inst = build_instance(2, [A(0), A(1), D(0), D(1)], [(0, 1)])
    assert inst.n == 2
    assert inst.edges == ((0, 1),)
    assert inst.deadline_order == (0, 1)


def test_edge_after_deadline_rejected():
    with pytest.raises(EdgeViolatesModel):
        build_instance(2, [A(0), D(0), A(1), D(1)], [(0, 1)])


def test_triangle_without_bipartition():
    inst = build_instance(
        3, [A(0), A(1), A(2), D(0), D(1), D(2)], [(0, 1), (1, 2), (0, 2)]
    )
    assert not inst.is_bipartite()
    assert inst.m == 3


def test_malformed_events():
    with pytest.raises(MalformedEvents):
        build_instance(2, [A(0), A(1), D(0)], [])
    with pytest.raises(MalformedEvents):
        build_instance(1, [A(0), A(0)], [])
    with pytest.raises(MalformedEvents):
        build_instance(1, [D(0), A(0)], [])


def _codes(events):
    """The code array equivalent to an Event list: 2v arrival, 2v + 1 deadline."""
    return np.array([2 * e.vertex + (e.kind is EventKind.DEADLINE) for e in events])


BAD_STREAMS = [
    (-1, [], "negative vertex count -1"),
    (2, [A(0), A(1), D(0)], "expected 4 events, got 3"),
    (2, [A(0), A(0), D(0), D(1)], "duplicate arrival for vertex 0"),
    (2, [A(0), A(1), D(1), D(1)], "duplicate deadline for vertex 1"),
    (2, [A(2), A(1), D(0), D(1)], "event vertex 2 out of range [0, 2)"),
    (2, [A(0), A(1), D(0), D(7)], "event vertex 7 out of range [0, 2)"),
    (2, [A(0), A(-1), D(0), D(1)], "event vertex -1 out of range [0, 2)"),
    (2, [A(0), A(1), D(2**70), D(1)], f"event vertex {2**70} out of range [0, 2)"),
    (2, [A(0), D(1), A(1), D(0)], "vertex 1 has its deadline before its arrival"),
    # the first faulty event in stream order decides
    (2, [A(0), A(0), A(5), D(1)], "duplicate arrival for vertex 0"),
    (2, [A(0), A(5), A(0), D(1)], "event vertex 5 out of range [0, 2)"),
]


@pytest.mark.parametrize("n,events,message", BAD_STREAMS)
def test_malformed_events_in_both_forms(n, events, message):
    for form in (events, _codes(events)):
        with pytest.raises(MalformedEvents) as got:
            build_instance(n, form, [])
        assert str(got.value) == message


def test_random_streams_match_reference_in_both_forms():
    rng = np.random.default_rng(5)
    for trial in range(300):
        n = int(rng.integers(0, 6))
        slots = np.sort(rng.permutation(2 * n).reshape(n, 2), axis=1)
        events = [None] * (2 * n)
        for v, (a, d) in enumerate(slots.tolist()):
            events[a], events[d] = A(v), D(v)
        for _ in range(int(rng.integers(0, 3)) if n else 0):  # corrupt some events
            i = int(rng.integers(0, 2 * n))
            kind = A if rng.random() < 0.5 else D
            events[i] = kind(int(rng.integers(-2, n + 2)))
        # one edge where the uncorrupted stream allows it, so the edge checks run
        edges = [(0, 1)] if n > 1 and slots[:2, 0].max() <= slots[:2, 1].min() else []
        try:
            ref = reference_build(n, events, edges)
        except MalformedEvents as expected:
            errors = []
            for form in (events, _codes(events)):
                with pytest.raises(type(expected)) as got:
                    build_instance(n, form, edges)
                errors.append(str(got.value))
            assert errors[0] == errors[1]
            continue
        for form in (events, _codes(events)):
            inst = build_instance(n, form, edges)
            assert inst.events == tuple(events)
            for name in ("arrival_pos", "deadline_pos", "deadline_order"):
                assert getattr(inst, name) == ref[name]


def test_self_loop_and_duplicate_edge():
    events = [A(0), A(1), D(0), D(1)]
    with pytest.raises(SelfLoop):
        build_instance(2, events, [(0, 0)])
    with pytest.raises(DuplicateEdge):
        build_instance(2, events, [(0, 1), (1, 0)])


def test_bipartition_must_cross():
    with pytest.raises(MalformedEvents):
        build_instance(2, [A(0), A(1), D(0), D(1)], [(0, 1)], [0, 0])


def test_from_one_sided_event_layout():
    inst = from_one_sided(1, [[0]])
    assert [(e.kind.value, e.vertex) for e in inst.events] == [
        ("arrival", 0),
        ("arrival", 1),
        ("deadline", 1),
        ("deadline", 0),
    ]
    assert inst.is_bipartite()


def test_from_one_sided_upper_triangular():
    inst = from_one_sided(2, [[0, 1], [0, 1]])
    assert inst.n == 4
    assert inst.m == 4


def test_from_one_sided_empty():
    inst = from_one_sided(0, [])
    assert inst.n == 0


def test_from_one_sided_bad_neighbor():
    with pytest.raises(IndexOutOfRange):
        from_one_sided(1, [[1]])


def test_random_instance_empty():
    assert random_instance(0, 0.5, False, 0).n == 0


@pytest.mark.parametrize("p", [1.5, -0.1, float("nan")])
def test_random_instance_rejects_edge_probability_outside_unit_interval(p):
    with pytest.raises(ParamsInvalid):
        random_instance(4, p, False, 0)


def test_random_instance_deterministic():
    a = random_instance(8, 0.4, True, 123)
    b = random_instance(8, 0.4, True, 123)
    assert a == b


def test_random_instance_dense_bipartite_valid():
    inst = random_instance(6, 1.0, True, 7)
    assert inst.is_bipartite()
    for u, v in inst.edges:
        assert max(inst.arrival_pos[u], inst.arrival_pos[v]) <= min(
            inst.deadline_pos[u], inst.deadline_pos[v]
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 10),
    p=st.floats(0.0, 1.0),
    bip=st.booleans(),
    seed=st.integers(0, 2**31),
)
def test_random_instance_always_valid(n, p, bip, seed):
    inst = random_instance(n, p, bip, seed)
    # revalidate through the constructor from the raw pieces
    rebuilt = build_instance(inst.n, list(inst.events), list(inst.edges), inst.bipartition)
    assert rebuilt == inst


def test_json_round_trip(small_instances):
    for inst in small_instances:
        buf = io.StringIO()
        save_instance(inst, buf)
        buf.seek(0)
        assert load_instance(buf) == inst


def test_json_schema_fields():
    inst = build_instance(2, [A(0), A(1), D(0), D(1)], [(0, 1)], [0, 1])
    data = to_json_dict(inst)
    assert set(data) == {"n", "events", "edges", "bipartition"}
    assert data["events"][0] == {"kind": "arrival", "v": 0}
    assert data["bipartition"] == [0, 1]
    assert json.loads(json.dumps(data)) == data


def test_saved_bytes_are_json_dump_with_a_newline():
    from fomlab.hardness import (
        AdversaryTreeParams,
        LayeredParams,
        gen_adversary_tree,
        gen_ranking_hard,
    )

    cases = [
        build_instance(0, [], []),
        build_instance(0, [], [], []),
        build_instance(3, [A(0), D(0), A(1), A(2), D(2), D(1)], []),
        build_instance(3, [A(0), D(0), A(1), A(2), D(2), D(1)], [], [1, 0, 1]),
        random_instance(9, 0.6, True, 4),
        random_instance(300, 0.03, False, 5),
        gen_adversary_tree(AdversaryTreeParams(k=3, h=2, seed=1)),
        gen_ranking_hard(LayeredParams(k=20, h=10)),
    ]
    for inst in cases:
        expected = io.StringIO()
        json.dump(to_json_dict(inst), expected, indent=2)
        expected.write("\n")
        got = io.StringIO()
        save_instance(inst, got)
        assert got.getvalue() == expected.getvalue()


BAD_SIDES = (MalformedEvents, "bipartition must assign 0/1 to every vertex")
SAME_SIDE = (MalformedEvents, "edge (0, 1) does not cross the bipartition")

# (bipartition, edges, the sides built or the exception class and message);
# every row reads as the one-vertex-at-a-time check read it
BIPARTITIONS = [
    ([True, False], [(0, 1)], (1, 0)),
    ([0.0, 1.0], [(0, 1)], (0, 1)),
    ([1.0, 0.0], [], (1, 0)),
    ([np.int64(0), np.int8(1)], [(0, 1)], (0, 1)),
    ([np.uint8(1), np.bool_(False)], [(0, 1)], (1, 0)),
    ((0, 1), [(0, 1)], (0, 1)),
    ([1, 1], [], (1, 1)),
    ([1, 1], [(0, 1)], SAME_SIDE),
    ([0, 2], [(0, 1)], BAD_SIDES),
    ([-1, 1], [], BAD_SIDES),
    (["0", 1], [(0, 1)], BAD_SIDES),
    (["0", "1"], [], BAD_SIDES),
    ("01", [], BAD_SIDES),
    ([None, 1], [(0, 1)], BAD_SIDES),
    ([0.5, 1], [], BAD_SIDES),
    ([float("nan"), 1], [], BAD_SIDES),
    ([0, 10**30], [], BAD_SIDES),
    ([[0], [1]], [(0, 1)], BAD_SIDES),
    ([[0, 1], [1, 0]], [], BAD_SIDES),
    ([[0], [1, 0]], [], BAD_SIDES),
    ([0], [(0, 1)], BAD_SIDES),
    ([0, 1, 0], [], BAD_SIDES),
    ([], [], BAD_SIDES),
    (np.array([0, 1]), [(0, 1)], (0, 1)),
    (np.array([1, 0], dtype=np.int8), [(0, 1)], (1, 0)),
    (np.array([True, False]), [(0, 1)], (1, 0)),
    (np.array([0.0, 1.0]), [], (0, 1)),
    (np.array([0, 1], dtype=object), [(0, 1)], (0, 1)),
    (np.array([0, 2]), [(0, 1)], BAD_SIDES),
    (np.array([0.5, 1.0]), [], BAD_SIDES),
    (np.array(["0", "1"]), [], BAD_SIDES),
    (np.array([1, 1]), [(0, 1)], SAME_SIDE),
    # these raised TypeError or ValueError from inside the check before
    (np.array([[0], [1]]), [], BAD_SIDES),
    (np.array([[0, 1], [1, 0]]), [(0, 1)], BAD_SIDES),
    ([1 + 0j, 0], [], BAD_SIDES),
]


@pytest.mark.parametrize("bipartition,edges,expected", BIPARTITIONS)
def test_bipartition_values_and_errors(bipartition, edges, expected):
    events = [A(0), A(1), D(0), D(1)]
    if isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error) as got:
            build_instance(2, events, edges, bipartition)
        assert type(got.value) is error and str(got.value) == message
    else:
        sides = build_instance(2, events, edges, bipartition).bipartition
        assert sides == expected and all(type(s) is int for s in sides)


def test_bipartition_without_a_length_is_a_type_error():
    with pytest.raises(TypeError):
        build_instance(2, [A(0), A(1), D(0), D(1)], [], (s for s in (0, 1)))
