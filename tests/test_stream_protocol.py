"""Unit tests for the lazy operation-stream protocol (updates/protocol.py)."""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.exceptions import UpdateError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation
from repro.updates.protocol import (
    EMPTY_FINGERPRINT,
    LazyOperationStream,
    StreamCursor,
    as_operation_stream,
    chain_fingerprint,
    chunked,
    decode_operation,
    encode_operation,
    stream_description,
    stream_length_hint,
    stream_metadata,
)
from repro.updates.streams import UpdateStream, mixed_update_stream


def mixed_operations(count, seed, edges=(), **options):
    graph = DynamicGraph(edges=edges)
    return list(mixed_update_stream(graph, count, seed=seed, **options))


CYCLE = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
#: Fixed inputs of the chain properties: the stream the prefix-helper cases
#: used, and the 8-op stream the service fingerprint cases used.
PREFIX_OPS = mixed_operations(40, 7, CYCLE)
SERVICE_OPS = mixed_operations(8, 3, edge_fraction=0.5)


@pytest.fixture()
def operations():
    return list(PREFIX_OPS)


#: Labels whose reprs differ although some compare or print alike.
LABELS = st.one_of(
    st.integers(-3, 3), st.sampled_from(["1", "a", ""]), st.tuples(st.integers(0, 2))
)
EDGES = st.tuples(LABELS, LABELS).filter(lambda pair: pair[0] != pair[1])
OPERATIONS = st.one_of(
    st.builds(UpdateOperation.insert_vertex, LABELS, st.lists(LABELS, max_size=3)),
    st.builds(UpdateOperation.delete_vertex, LABELS),
    EDGES.map(lambda pair: UpdateOperation.insert_edge(*pair)),
    EDGES.map(lambda pair: UpdateOperation.delete_edge(*pair)),
)


class TestEncoding:
    def test_roundtrip_every_kind(self):
        ops = [
            UpdateOperation.insert_vertex("x", ["a", "b"]),
            UpdateOperation.delete_vertex("x"),
            UpdateOperation.insert_edge(1, 2),
            UpdateOperation.delete_edge(1, 2),
        ]
        # Re-encoding the decoded operation must reproduce the wire form
        # exactly (the cache and the fingerprint both rely on it).
        for op in ops:
            assert encode_operation(decode_operation(encode_operation(op))) == (
                encode_operation(op)
            )

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            decode_operation(["??", 1, 2])


class TestStreamCursor:
    def test_empty_fingerprint_constant(self):
        cursor = StreamCursor([])
        assert cursor.fingerprint == EMPTY_FINGERPRINT
        assert cursor.offset == 0

    def test_fingerprint_is_a_function_of_the_prefix(self, operations):
        a = StreamCursor(operations)
        b = StreamCursor(iter(list(operations)))  # distinct objects, same ops
        a.skip(25)
        b.skip(25)
        assert a.offset == b.offset == 25
        assert a.fingerprint == b.fingerprint
        # Diverging suffixes don't matter; diverging prefixes do.
        c = StreamCursor(list(reversed(operations)))
        c.skip(25)
        assert c.fingerprint != a.fingerprint

    def test_skip_returns_actual_count_at_exhaustion(self, operations):
        cursor = StreamCursor(operations)
        assert cursor.skip(len(operations) + 10) == len(operations)

    def test_take_yields_windows(self, operations):
        cursor = StreamCursor(operations)
        first = cursor.take(7)
        assert [str(o) for o in first] == [str(o) for o in operations[:7]]
        assert cursor.offset == 7

    def test_skip_then_continue_matches_straight_pass(self, operations):
        straight = StreamCursor(operations)
        for _ in straight:
            pass
        skipping = StreamCursor(operations)
        skipping.skip(11)
        for _ in skipping:
            pass
        assert skipping.fingerprint == straight.fingerprint
        assert skipping.offset == straight.offset

    def test_detach_hands_over_remaining_operations(self, operations):
        cursor = StreamCursor(operations)
        cursor.skip(5)
        rest = list(cursor.detach())
        assert [str(o) for o in rest] == [str(o) for o in operations[5:]]
        assert list(cursor) == []  # cursor is retired
        assert cursor.offset == 5


class TestOneChain:
    """The cursor and :func:`chain_fingerprint` advance one chain."""

    @given(st.lists(OPERATIONS, max_size=30), st.lists(st.integers(0, 30), max_size=4))
    @settings(max_examples=80, deadline=None)
    @example(PREFIX_OPS, [10])
    @example(SERVICE_OPS, [4])
    def test_cursor_matches_chain_at_every_offset(self, ops, cuts):
        cursor = StreamCursor(ops)
        tips = [cursor.fingerprint] + [cursor.fingerprint for _ in cursor]
        step = EMPTY_FINGERPRINT
        for offset, operation in enumerate(ops, 1):
            step = chain_fingerprint(step, [operation])
            assert step == tips[offset]
        assert chain_fingerprint(EMPTY_FINGERPRINT, ops) == tips[-1]
        # Resumed chunk by chunk from the stored hex, split anywhere: the
        # cursor's take() and the batch chain land on the same digests.
        bounds = sorted({min(cut, len(ops)) for cut in cuts} | {0, len(ops)})
        chained, chunks = EMPTY_FINGERPRINT, StreamCursor(ops)
        for start, stop in zip(bounds, bounds[1:]):
            chained = chain_fingerprint(chained, ops[start:stop])
            chunks.take(stop - start)
            assert chained == chunks.fingerprint == tips[stop]

    @given(
        st.lists(OPERATIONS, min_size=2, max_size=12).flatmap(
            lambda ops: st.tuples(st.just(ops), st.permutations(ops))
        )
    )
    @settings(max_examples=60, deadline=None)
    @example((SERVICE_OPS, SERVICE_OPS[::-1]))
    def test_reordering_changes_the_tip(self, pair):
        ops, shuffled = pair
        assume(shuffled != ops)
        assert chain_fingerprint(EMPTY_FINGERPRINT, shuffled) != chain_fingerprint(
            EMPTY_FINGERPRINT, ops
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda x: UpdateOperation.insert_vertex(x, [x]),
            UpdateOperation.delete_vertex,
            lambda x: UpdateOperation.insert_edge(x, 0),
            lambda x: UpdateOperation.delete_edge(0, x),
        ],
    )
    def test_label_types_hash_apart(self, make):
        tips = {chain_fingerprint(EMPTY_FINGERPRINT, [make(x)]) for x in (1, "1", (1,))}
        assert len(tips) == 3

    def test_golden_tip(self):
        # Pinned hex: checkpoints and service data directories store this
        # chain, so any change to operation_bytes orphans them.
        U = UpdateOperation
        ops = [
            U.insert_vertex(1),
            U.insert_vertex("a", [1]),
            U.insert_vertex((2, 3), [1, "a"]),
            U.insert_edge(1, (2, 3)),
            U.insert_edge("a", "b"),
            U.delete_edge(1, "a"),
            U.delete_edge((2, 3), 1),
            U.delete_vertex("a"),
            U.delete_vertex((2, 3)),
            U.delete_vertex(1),
            U.insert_vertex("1", [(1,), 1]),
        ]
        golden = "d39deda14fc2f2c80c263d62a89a501097a2403ebe21c94ca1cc460998a46aad"
        assert chain_fingerprint(EMPTY_FINGERPRINT, ops) == golden
        cursor = StreamCursor(ops)
        assert len(list(cursor)) == len(ops)
        assert cursor.fingerprint == golden


class TestChunked:
    def test_windows_cover_stream_exactly(self, operations):
        windows = list(chunked(iter(operations), 16))
        assert [len(w) for w in windows[:-1]] == [16] * (len(windows) - 1)
        assert sum(len(w) for w in windows) == len(operations)
        flat = [op for w in windows for op in w]
        assert [str(a) for a in flat] == [str(b) for b in operations]

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            list(chunked([], 0))

    def test_generator_is_consumed_lazily(self):
        pulled = []

        def source():
            for i in range(10):
                pulled.append(i)
                yield UpdateOperation.insert_vertex(i)

        windows = chunked(source(), 4)
        first = next(windows)
        assert len(first) == 4
        # Only one window has been pulled from the source.
        assert len(pulled) == 4


class TestAdapters:
    def test_update_stream_passes_through(self, operations):
        stream = UpdateStream(operations=operations, description="d")
        assert as_operation_stream(stream) is stream

    def test_list_adapter_is_replayable_and_sized(self, operations):
        adapted = as_operation_stream(operations, description="wrapped")
        assert adapted.length_hint() == len(operations)
        assert stream_description(adapted) == "wrapped"
        assert [str(o) for o in adapted] == [str(o) for o in adapted]

    def test_generator_adapter_has_no_length(self, operations):
        adapted = as_operation_stream(iter(operations))
        assert adapted.length_hint() is None

    def test_adapter_does_not_launder_one_shotness(self, operations):
        # Wrapping a bare iterator must keep it marked one-shot, or
        # multi-pass consumers (run_competition) would silently measure
        # empty re-runs instead of refusing the stream.
        one_shot = as_operation_stream(iter(operations))
        assert not one_shot.replayable()
        sized = as_operation_stream(list(operations))
        assert sized.replayable()

    def test_lone_operation_rejected(self):
        # An operation is a 4-tuple: adapting it would yield its fields.
        with pytest.raises(UpdateError, match="single operation"):
            as_operation_stream(UpdateOperation.insert_edge(1, 2))

    def test_lazy_stream_replayable_via_factory(self, operations):
        stream = LazyOperationStream(
            lambda: iter(operations), description="factory", length=len(operations)
        )
        assert stream.length_hint() == len(operations)
        assert [str(o) for o in stream] == [str(o) for o in stream]


class TestDuckTypedReaders:
    def test_length_hint_prefers_protocol_over_len(self, operations):
        class Hinted:
            def length_hint(self):
                return None

            def __len__(self):  # pragma: no cover - must not be called
                raise AssertionError("len() must not be consulted")

            def __iter__(self):
                return iter(())

        assert stream_length_hint(Hinted()) is None
        assert stream_length_hint(operations) == len(operations)
        assert stream_length_hint(op for op in operations) is None

    def test_description_and_metadata_defaults(self, operations):
        assert stream_description(operations) == ""
        assert stream_metadata(operations) == {}
        stream = UpdateStream(operations=operations, description="d", metadata={"a": 1})
        assert stream_description(stream) == "d"
        assert stream_metadata(stream)["a"] == 1


class TestPrefixReplayability:
    def test_prefix_inherits_one_shotness(self):
        from repro.workloads.temporal import (
            synthetic_temporal_events,
            temporal_update_stream,
        )

        events = synthetic_temporal_events(60, num_vertices=20, seed=3)
        replayable_prefix = temporal_update_stream(events, window=9.0).prefix(10)
        assert replayable_prefix.replayable()
        one_shot_prefix = temporal_update_stream(iter(events), window=9.0).prefix(10)
        # A prefix of a one-shot stream yields DIFFERENT operations on a
        # second pass (the drained source continues), so it must report
        # itself non-replayable for run_competition's guard to refuse it.
        assert not one_shot_prefix.replayable()
