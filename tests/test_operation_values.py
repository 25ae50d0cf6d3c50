"""Representation contract of the per-operation value types.

:class:`UpdateOperation` and :class:`TemporalEdge` are immutable tuples.
These tests pin what callers rely on: immutability, value equality and
hashing, the field order (hot readers index and unpack by position), the
``str``/``repr`` text (it appears in error messages and logs), and
``copy.deepcopy``.
"""

from __future__ import annotations

import copy

import pytest

from repro.exceptions import UpdateError
from repro.updates.operations import UpdateKind, UpdateOperation
from repro.workloads.temporal import TemporalEdge

U = UpdateOperation

#: One operation of every kind with its pinned ``str`` and ``repr``.
OPERATIONS = [
    (
        U.insert_vertex("a", [1, (2, 3)]),
        "+v a ~ [1, (2, 3)]",
        "UpdateOperation(kind=<UpdateKind.INSERT_VERTEX: 'insert_vertex'>, "
        "vertex='a', edge=None, neighbors=(1, (2, 3)))",
    ),
    (
        U.insert_vertex(7),
        "+v 7 ~ []",
        "UpdateOperation(kind=<UpdateKind.INSERT_VERTEX: 'insert_vertex'>, "
        "vertex=7, edge=None, neighbors=())",
    ),
    (
        U.delete_vertex((2, 3)),
        "-v (2, 3)",
        "UpdateOperation(kind=<UpdateKind.DELETE_VERTEX: 'delete_vertex'>, "
        "vertex=(2, 3), edge=None, neighbors=())",
    ),
    (
        U.insert_edge(1, "b"),
        "+e (1, 'b')",
        "UpdateOperation(kind=<UpdateKind.INSERT_EDGE: 'insert_edge'>, "
        "vertex=None, edge=(1, 'b'), neighbors=())",
    ),
    (
        U.delete_edge(4, 5),
        "-e (4, 5)",
        "UpdateOperation(kind=<UpdateKind.DELETE_EDGE: 'delete_edge'>, "
        "vertex=None, edge=(4, 5), neighbors=())",
    ),
]
IDS = [text for _op, text, _repr in OPERATIONS]


class TestUpdateOperation:
    def test_field_order_is_pinned(self):
        assert U._fields == ("kind", "vertex", "edge", "neighbors")
        assert U._field_defaults == {"vertex": None, "edge": None, "neighbors": ()}

    @pytest.mark.parametrize("op, text, representation", OPERATIONS, ids=IDS)
    def test_str_and_repr(self, op, text, representation):
        assert str(op) == text
        assert repr(op) == representation

    @pytest.mark.parametrize("op, _text, _repr", OPERATIONS, ids=IDS)
    def test_fields_cannot_be_assigned(self, op, _text, _repr):
        with pytest.raises(AttributeError):
            op.vertex = 99
        with pytest.raises(AttributeError):
            op.extra = 1

    @pytest.mark.parametrize("op, _text, _repr", OPERATIONS, ids=IDS)
    def test_equal_values_hash_equal(self, op, _text, _repr):
        twin = U(*op)
        assert twin == op and twin is not op
        assert hash(twin) == hash(op)
        assert len({op, twin}) == 1

    @pytest.mark.parametrize("op, _text, _repr", OPERATIONS, ids=IDS)
    def test_deepcopy_round_trips(self, op, _text, _repr):
        clone = copy.deepcopy(op)
        assert type(clone) is U
        assert clone == op

    def test_constructors_match_the_keyword_form(self):
        assert U.insert_vertex(1, [2]) == U(
            kind=UpdateKind.INSERT_VERTEX, vertex=1, neighbors=(2,)
        )
        assert U.insert_edge(1, 2) == U(kind=UpdateKind.INSERT_EDGE, edge=(1, 2))
        assert type(U.delete_edge(1, 2)) is U

    def test_insert_edge_rejects_self_loop(self):
        with pytest.raises(UpdateError, match="self loop"):
            U.insert_edge(3, 3)

    def test_introspection(self):
        assert U.insert_vertex(1, [2, 3]).touched_vertices() == (1, 2, 3)
        assert U.delete_edge(4, 5).touched_vertices() == (4, 5)
        assert U.insert_edge(1, 2).is_insertion and U.insert_edge(1, 2).is_edge_operation
        assert U.delete_vertex(1).is_deletion and U.delete_vertex(1).is_vertex_operation


class TestTemporalEdge:
    def test_field_order_is_pinned(self):
        assert TemporalEdge._fields == ("u", "v", "timestamp")

    def test_str_and_repr(self):
        edge = TemporalEdge(1, 2, 3.5)
        assert repr(edge) == str(edge) == "TemporalEdge(u=1, v=2, timestamp=3.5)"

    def test_immutable_hashable_copyable(self):
        edge = TemporalEdge(5, 2, 1.0)
        with pytest.raises(AttributeError):
            edge.u = 0
        twin = TemporalEdge(5, 2, 1.0)
        assert twin == edge and hash(twin) == hash(edge)
        clone = copy.deepcopy(edge)
        assert type(clone) is TemporalEdge and clone == edge

    def test_canonical_orders_endpoints(self):
        assert TemporalEdge(5, 2, 1.0).canonical() == (2, 5)
        assert TemporalEdge(2, 5, 1.0).canonical() == (2, 5)
