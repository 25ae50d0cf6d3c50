"""The bulk validators' contract: first error wins, exactly as a sequential loop.

:func:`repro.core.kernels.validate_edge_insertions` and
:func:`~repro.core.kernels.validate_edge_deletions` check a whole pair list
before any mutation and must raise what applying the pairs one by one
would have raised first — same error type, same offending pair — or
nothing when every pair would apply.  Hypothesis drives both sides on the
same inputs; the reference applies the batch edge by edge to a copy of the
graph.  ``tests/test_bulk_atomicity.py`` pins the other half of the
contract: a rejected batch leaves the state byte-identical.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.exceptions import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graphs.dynamic_graph import DynamicGraph

NUM_SLOTS = 12

slot_pairs = st.lists(
    st.tuples(st.integers(0, NUM_SLOTS - 1), st.integers(0, NUM_SLOTS - 1)),
    min_size=0,
    max_size=40,
)

SETTINGS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _graph_with_edges(edges):
    graph = DynamicGraph(vertices=range(NUM_SLOTS))
    for su, sv in edges:
        if su != sv and not graph.has_edge(su, sv):
            graph.add_edge(su, sv)
    return graph


def _outcome(fn, *args):
    """Call ``fn`` and normalise the result or the raised error for diffing."""
    try:
        fn(*args)
    except (SelfLoopError, EdgeExistsError, EdgeNotFoundError) as exc:
        return (type(exc).__name__, exc.args)
    return ("ok", None)


def _sequential(apply, batch):
    """The reference: apply the batch one pair at a time until one fails."""
    for su, sv in batch:
        outcome = _outcome(apply, su, sv)
        if outcome[0] != "ok":
            return outcome
    return ("ok", None)


class TestFirstErrorWins:
    @SETTINGS
    @given(existing=slot_pairs, batch=slot_pairs)
    def test_insertion_validation_matches_sequential_loop(self, existing, batch):
        graph = _graph_with_edges(existing)
        edges_before = sorted(graph.edges())
        validated = _outcome(
            kernels.validate_edge_insertions,
            graph,
            graph.adjacency_slots_view(),
            batch,
        )
        assert sorted(graph.edges()) == edges_before  # validation never mutates
        assert validated == _sequential(graph.copy().add_edge, batch)

    @SETTINGS
    @given(existing=slot_pairs, batch=slot_pairs)
    def test_deletion_validation_matches_sequential_loop(self, existing, batch):
        graph = _graph_with_edges(existing)
        # Self-loops can never be present edges; the deletion reference
        # reports them as missing, as the validator does.
        edges_before = sorted(graph.edges())
        validated = _outcome(
            kernels.validate_edge_deletions,
            graph,
            graph.adjacency_slots_view(),
            batch,
        )
        assert sorted(graph.edges()) == edges_before
        assert validated == _sequential(graph.copy().remove_edge, batch)
