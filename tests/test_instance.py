import io
import json

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
    build_instance,
    from_one_sided,
    load_instance,
    random_instance,
    save_instance,
    to_json_dict,
)


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
