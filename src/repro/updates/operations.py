"""Update operations on dynamic graphs.

A dynamic graph in the paper is a sequence ``G_0, G_1, ...`` where each graph
differs from its predecessor by a single vertex/edge insertion or deletion.
:class:`UpdateOperation` is the value object representing one such step, and
:func:`apply_update` / :func:`invert_update` apply and undo it on a
:class:`~repro.graphs.dynamic_graph.DynamicGraph`.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple

from repro.exceptions import UpdateError
from repro.graphs.dynamic_graph import DynamicGraph, Vertex


class UpdateKind(str, Enum):
    """The four structural update kinds supported by the maintenance algorithms."""

    INSERT_VERTEX = "insert_vertex"
    DELETE_VERTEX = "delete_vertex"
    INSERT_EDGE = "insert_edge"
    DELETE_EDGE = "delete_edge"


# Enum member reads cost 0.1-0.2 µs each on CPython 3.11, a large share of
# a per-operation step: every per-operation path (constructors, dispatch,
# coalescer, fingerprint, wire encoding) compares against these constants.
INSERT_VERTEX = UpdateKind.INSERT_VERTEX
DELETE_VERTEX = UpdateKind.DELETE_VERTEX
INSERT_EDGE = UpdateKind.INSERT_EDGE
DELETE_EDGE = UpdateKind.DELETE_EDGE

_new = tuple.__new__


class UpdateOperation(NamedTuple):
    """One update in a dynamic graph sequence.

    An immutable 4-tuple ``(kind, vertex, edge, neighbors)``: one is built
    per operation on every ingest path, and a tuple costs a fraction of a
    frozen dataclass to construct.  The field order is part of the
    contract.  Build operations with the static constructors below.

    Attributes
    ----------
    kind:
        Which structural change the operation performs.
    vertex:
        The affected vertex for vertex operations.
    edge:
        The affected ``(u, v)`` pair for edge operations.
    neighbors:
        For :data:`UpdateKind.INSERT_VERTEX`, the (existing) vertices the new
        vertex is connected to upon insertion.  The paper's model inserts a
        vertex together with its incident edges.
    """

    kind: UpdateKind
    vertex: Optional[Vertex] = None
    edge: Optional[Tuple[Vertex, Vertex]] = None
    neighbors: Tuple[Vertex, ...] = ()

    # ------------------------------------------------------------------ #
    # Constructors (tuple.__new__ skips the generated keyword __new__)
    # ------------------------------------------------------------------ #
    @staticmethod
    def insert_vertex(vertex: Vertex, neighbors: Sequence[Vertex] = ()) -> "UpdateOperation":
        """Create a vertex-insertion operation (optionally with incident edges)."""
        return _new(UpdateOperation, (INSERT_VERTEX, vertex, None, tuple(neighbors)))

    @staticmethod
    def delete_vertex(vertex: Vertex) -> "UpdateOperation":
        """Create a vertex-deletion operation."""
        return _new(UpdateOperation, (DELETE_VERTEX, vertex, None, ()))

    @staticmethod
    def insert_edge(u: Vertex, v: Vertex) -> "UpdateOperation":
        """Create an edge-insertion operation."""
        if u == v:
            raise UpdateError("cannot insert a self loop")
        return _new(UpdateOperation, (INSERT_EDGE, None, (u, v), ()))

    @staticmethod
    def delete_edge(u: Vertex, v: Vertex) -> "UpdateOperation":
        """Create an edge-deletion operation."""
        return _new(UpdateOperation, (DELETE_EDGE, None, (u, v), ()))

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_insertion(self) -> bool:
        """True for insert-vertex / insert-edge operations."""
        return self.kind in (INSERT_VERTEX, INSERT_EDGE)

    @property
    def is_deletion(self) -> bool:
        """True for delete-vertex / delete-edge operations."""
        return not self.is_insertion

    @property
    def is_vertex_operation(self) -> bool:
        """True for vertex insert/delete operations."""
        return self.kind in (INSERT_VERTEX, DELETE_VERTEX)

    @property
    def is_edge_operation(self) -> bool:
        """True for edge insert/delete operations."""
        return not self.is_vertex_operation

    def touched_vertices(self) -> Tuple[Vertex, ...]:
        """Return the vertices whose neighbourhood the operation changes."""
        if self.is_vertex_operation:
            return (self.vertex,) + self.neighbors
        return self.edge

    def __str__(self) -> str:
        kind = self.kind
        if kind is INSERT_VERTEX:
            return f"+v {self.vertex} ~ {list(self.neighbors)}"
        if kind is DELETE_VERTEX:
            return f"-v {self.vertex}"
        if kind is INSERT_EDGE:
            return f"+e {self.edge}"
        return f"-e {self.edge}"


def apply_update(graph: DynamicGraph, operation: UpdateOperation) -> None:
    """Apply ``operation`` to ``graph`` in place.

    Raises
    ------
    UpdateError
        When the operation cannot be applied (missing vertex, duplicate edge,
        and so on).  The underlying graph exceptions are chained for context.
    """
    try:
        kind = operation.kind
        if kind is INSERT_VERTEX:
            vertex = operation.vertex
            # Validated before the first mutation: a rejected insertion
            # leaves the graph untouched.
            neighbor_slots = graph.new_vertex_neighbor_slots(
                vertex, operation.neighbors
            )
            slot = graph.add_vertex_slot(vertex)
            for t in neighbor_slots:
                graph.add_edge_slots(slot, t)
        elif kind is DELETE_VERTEX:
            graph.remove_vertex(operation.vertex)
        elif kind is INSERT_EDGE:
            graph.add_edge(*operation.edge)
        elif kind is DELETE_EDGE:
            graph.remove_edge(*operation.edge)
        else:  # pragma: no cover - exhaustive enum
            raise UpdateError(f"unknown update kind {kind!r}")
    except UpdateError:
        raise
    except Exception as exc:
        raise UpdateError(f"cannot apply {operation}: {exc}") from exc


def invert_update(graph: DynamicGraph, operation: UpdateOperation) -> UpdateOperation:
    """Return the operation that undoes ``operation`` on the *current* ``graph``.

    Must be called *before* ``operation`` is applied for deletions (so the
    incident edges of a deleted vertex can be captured).
    """
    if operation.kind is INSERT_VERTEX:
        return UpdateOperation.delete_vertex(operation.vertex)
    if operation.kind is DELETE_VERTEX:
        if not graph.has_vertex(operation.vertex):
            raise UpdateError(f"cannot invert deletion of missing vertex {operation.vertex!r}")
        return UpdateOperation.insert_vertex(
            operation.vertex, sorted(graph.neighbors(operation.vertex), key=graph.order_of)
        )
    if operation.kind is INSERT_EDGE:
        return UpdateOperation.delete_edge(*operation.edge)
    return UpdateOperation.insert_edge(*operation.edge)
