"""Tests for the temporal ingestion layer (parser, policies, cache, catalog)."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import GraphError, UpdateError
from repro.experiments import (
    QUICK_PROFILE,
    load_temporal_workload,
    temporal_workload_names,
)
from repro.exceptions import ExperimentError
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateKind
from repro.workloads.temporal import (
    TemporalEdge,
    cached_temporal_stream,
    read_temporal_edge_list,
    synthetic_temporal_events,
    temporal_update_stream,
    write_temporal_edge_list,
)


class TestTemporalParser:
    def test_roundtrip(self, tmp_path):
        events = [TemporalEdge(1, 2, 10.0), TemporalEdge(2, 3, 11.0), TemporalEdge(1, 3, 14.0)]
        path = tmp_path / "events.txt"
        write_temporal_edge_list(events, path, header="three interactions")
        assert read_temporal_edge_list(path) == events

    def test_roundtrip_preserves_epoch_scale_timestamps(self, tmp_path):
        # SNAP temporal files carry unix epochs; fixed-precision formatting
        # (e.g. %g) would collapse these three distinct timestamps.
        events = [
            TemporalEdge(1, 2, 1217567877.0),
            TemporalEdge(2, 3, 1217567878.0),
            TemporalEdge(3, 4, 1217567999.5),
        ]
        path = tmp_path / "epochs.txt"
        write_temporal_edge_list(events, path)
        assert read_temporal_edge_list(path) == events

    def test_skips_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("# header\n\n1 2 5\n\n# trailing\n2 3 6\n")
        assert len(read_temporal_edge_list(path)) == 2

    def test_missing_timestamp_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n3 4\n")
        with pytest.raises(GraphError, match=r"events\.txt:2"):
            read_temporal_edge_list(path)

    def test_non_integer_vertex_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\na 4 6\n")
        with pytest.raises(GraphError, match=r"events\.txt:2.*integers"):
            read_temporal_edge_list(path)

    def test_non_numeric_timestamp_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 noon\n")
        with pytest.raises(GraphError, match=r"events\.txt:1.*timestamp"):
            read_temporal_edge_list(path)

    def test_self_loop_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n3 3 6\n")
        with pytest.raises(GraphError, match=r"events\.txt:2.*self loop"):
            read_temporal_edge_list(path)

    def test_self_loop_skip_policy(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n3 3 6\n2 3 7\n")
        events = read_temporal_edge_list(path, self_loops="skip")
        assert [(e.u, e.v) for e in events] == [(1, 2), (2, 3)]

    def test_non_monotone_timestamp_raises_with_line_number(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 10\n2 3 9\n")
        with pytest.raises(GraphError, match=r"events\.txt:2.*smaller"):
            read_temporal_edge_list(path)

    def test_non_monotone_sort_policy(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 10\n2 3 9\n1 3 11\n")
        events = read_temporal_edge_list(path, unsorted="sort")
        assert [e.timestamp for e in events] == [9.0, 10.0, 11.0]

    def test_unknown_policies_rejected(self, tmp_path):
        path = tmp_path / "events.txt"
        path.write_text("1 2 5\n")
        with pytest.raises(ValueError):
            read_temporal_edge_list(path, self_loops="maybe")
        with pytest.raises(ValueError):
            read_temporal_edge_list(path, unsorted="shuffle")
        # The sort path must validate self_loops too (it bypasses the
        # streaming source's validation).
        with pytest.raises(ValueError):
            read_temporal_edge_list(path, self_loops="maybe", unsorted="sort")


class TestWindowingPolicies:
    def test_insertion_only_when_no_policy(self):
        events = [TemporalEdge(0, 1, 0.0), TemporalEdge(1, 2, 5.0)]
        stream = temporal_update_stream(events)
        assert all(op.is_insertion for op in stream)
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.num_edges == 2

    def test_lazy_stream_protocol_surface(self):
        events = [TemporalEdge(i, i + 1, float(i)) for i in range(12)]
        stream = temporal_update_stream(events, max_live=4, gc_isolated=False)
        # length_hint is honest: unknown before any completed pass.
        assert stream.length_hint() is None
        total = stream.count()  # counting pass, then cached
        assert stream.length_hint() == total
        # A prefix is itself a lazy stream with a derived hint/description.
        prefix = stream.prefix(5)
        assert prefix.length_hint() == 5
        assert prefix.description.endswith("[:5]")
        assert len(list(prefix)) == 5
        assert stream.prefix(10_000).length_hint() == total
        # The compat escape hatch materialises; a cursor pass fingerprints.
        assert len(stream.operations) == total
        cursor = stream.cursor()
        assert cursor.skip(total + 1) == total

    def test_one_shot_event_iterator_gives_one_shot_stream(self):
        events = (TemporalEdge(2 * i, 2 * i + 1, float(i)) for i in range(6))
        stream = temporal_update_stream(events)
        assert len(list(stream)) == 18  # 2 vertex inserts + 1 edge insert each
        assert list(stream) == []  # generator exhausted: one pass only

    def test_one_shot_bookkeeping_never_drains_the_source(self):
        events = (TemporalEdge(2 * i, 2 * i + 1, float(i)) for i in range(6))
        stream = temporal_update_stream(events)
        # Reading metadata before the pass must NOT burn a hidden summary
        # pass (that would silently empty the generator for the real run).
        assert "final_vertices" not in stream.metadata
        with pytest.raises(TypeError, match="one-shot"):
            stream.count()
        assert len(list(stream)) == 18  # the single real pass still intact
        # After the completed pass the summary (and count) are available.
        assert stream.metadata["final_edges"] == 6
        assert stream.count() == 18

    def test_time_window_synthesizes_deletions(self):
        events = [
            TemporalEdge(0, 1, 0.0),
            TemporalEdge(1, 2, 1.0),
            TemporalEdge(2, 3, 20.0),  # expires (0,1) and (1,2)
        ]
        stream = temporal_update_stream(events, window=10.0, gc_isolated=False)
        kinds = [op.kind for op in stream]
        assert kinds.count(UpdateKind.DELETE_EDGE) == 2
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.num_edges == 1
        assert graph.has_edge(2, 3)

    def test_gc_isolated_deletes_orphaned_vertices(self):
        events = [TemporalEdge(0, 1, 0.0), TemporalEdge(5, 6, 50.0)]
        stream = temporal_update_stream(events, window=10.0, gc_isolated=True)
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert not graph.has_vertex(0) and not graph.has_vertex(1)
        assert graph.has_edge(5, 6)
        assert any(op.kind is UpdateKind.DELETE_VERTEX for op in stream)

    def test_capacity_decay_evicts_oldest(self):
        events = [TemporalEdge(i, i + 1, float(i)) for i in range(5)]
        stream = temporal_update_stream(events, max_live=2, gc_isolated=False)
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.num_edges == 2
        assert graph.has_edge(3, 4) and graph.has_edge(4, 5)

    def test_duplicate_interaction_refreshes_instead_of_reinserting(self):
        events = [
            TemporalEdge(0, 1, 0.0),
            TemporalEdge(1, 0, 8.0),   # same undirected interaction, refreshed
            TemporalEdge(2, 3, 15.0),  # 15 - 8 < window: (0,1) must survive
        ]
        stream = temporal_update_stream(events, window=10.0)
        assert stream.metadata["duplicates_refreshed"] == 1
        graph = DynamicGraph()
        stream.apply_all(graph)
        assert graph.has_edge(0, 1)

    @pytest.mark.parametrize("gc_isolated", [True, False])
    @pytest.mark.parametrize(
        "policy",
        [
            {"window": 12.0},
            {"max_live": 60},
            {"window": 12.0, "max_live": 60},
            {},
        ],
        ids=["window", "max_live", "both", "neither"],
    )
    def test_streams_are_valid_by_construction(self, policy, gc_isolated):
        # The windower keeps only degrees and live edges; a real graph is
        # the oracle that every emitted operation is applicable.
        events = synthetic_temporal_events(400, num_vertices=50, seed=9)
        stream = temporal_update_stream(events, gc_isolated=gc_isolated, **policy)
        graph = DynamicGraph()
        stream.apply_all(graph)  # would raise UpdateError on any invalid op
        assert graph.num_vertices == stream.metadata["final_vertices"]
        assert graph.num_edges == stream.metadata["final_edges"]
        if gc_isolated and policy:
            assert all(graph.degree(vertex) > 0 for vertex in graph.vertices())

    def test_invalid_policy_parameters(self):
        with pytest.raises(UpdateError):
            temporal_update_stream([], window=0)
        with pytest.raises(UpdateError):
            temporal_update_stream([], max_live=0)

    def test_decreasing_event_timestamps_rejected(self):
        events = [TemporalEdge(0, 1, 5.0), TemporalEdge(1, 2, 4.0)]
        # The stream is lazy: the violation surfaces while iterating.
        with pytest.raises(UpdateError):
            list(temporal_update_stream(events))


class TestStreamCache:
    def _events_file(self, tmp_path, seed=1):
        events = synthetic_temporal_events(120, num_vertices=30, seed=seed)
        path = tmp_path / "events.txt"
        write_temporal_edge_list(events, path)
        return path

    def test_miss_then_hit_returns_identical_stream(self, tmp_path):
        path = self._events_file(tmp_path)
        first = cached_temporal_stream(path, window=8.0)
        second = cached_temporal_stream(path, window=8.0)
        assert first.metadata["cache"] == "miss"
        assert second.metadata["cache"] == "hit"
        assert [str(a) for a in first] == [str(b) for b in second]
        assert first.description == second.description
        # The lazy reader is sized (header), replayable, and its
        # conveniences replay the cache file rather than materialising it.
        assert len(second) == second.length_hint() == len(list(first))
        replayed = DynamicGraph()
        second.apply_all(replayed)
        assert replayed.num_edges == second.metadata["final_edges"]
        assert sum(second.counts_by_kind().values()) == len(second)

    def test_policy_change_invalidates(self, tmp_path):
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        other = cached_temporal_stream(path, window=9.0)
        assert other.metadata["cache"] == "miss"

    def test_file_change_invalidates(self, tmp_path):
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        import os

        with path.open("a", encoding="utf-8") as handle:
            handle.write("998 999 1000000\n")
        os.utime(path, ns=(0, 0))  # force a distinct identity even on coarse clocks
        refreshed = cached_temporal_stream(path, window=8.0)
        assert refreshed.metadata["cache"] == "miss"
        assert any(
            op.kind is UpdateKind.INSERT_EDGE and set(op.edge) == {998, 999}
            for op in refreshed
        )

    def test_source_edit_overwrites_entry_instead_of_accumulating(self, tmp_path):
        import os

        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        cache_dir = tmp_path / ".stream-cache"
        with path.open("a", encoding="utf-8") as handle:
            handle.write("998 999 1000000\n")
        os.utime(path, ns=(0, 0))
        refreshed = cached_temporal_stream(path, window=8.0)
        assert refreshed.metadata["cache"] == "miss"
        # Same (source, policy) → same file, rebuilt in place: no orphaned
        # dataset-sized entries pile up across edits.
        assert len(list(cache_dir.iterdir())) == 1

    def test_corrupt_cache_entry_is_rebuilt(self, tmp_path):
        path = self._events_file(tmp_path)
        first = cached_temporal_stream(path, window=8.0)
        cache_file = tmp_path / ".stream-cache"
        entries = list(cache_file.iterdir())
        assert len(entries) == 1
        entries[0].write_text("{not json", encoding="utf-8")
        rebuilt = cached_temporal_stream(path, window=8.0)
        assert rebuilt.metadata["cache"] == "miss"
        assert [str(a) for a in first] == [str(b) for b in rebuilt]
        # The rebuilt entry must be valid chunked JSONL again (header line
        # plus chunk lines, each a JSON document).
        lines = entries[0].read_text(encoding="utf-8").splitlines()
        assert json.loads(lines[0])["format"].startswith("repro-temporal-stream/")
        for line in lines[1:]:
            json.loads(line)

    def test_explicit_cache_dir(self, tmp_path):
        path = self._events_file(tmp_path)
        cache_dir = tmp_path / "elsewhere"
        stream = cached_temporal_stream(path, cache_dir=cache_dir, window=8.0)
        assert stream.metadata["cache"] == "miss"
        assert list(cache_dir.iterdir())

    def test_corrupt_cache_body_raises_clearly_during_replay(self, tmp_path):
        # Only the header is validated on open; damage behind it must
        # surface as a GraphError naming the file, not a raw JSON error.
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text(lines[0] + '[["+e", 1, 2], {broken\n', encoding="utf-8")
        stream = cached_temporal_stream(path, window=8.0)
        assert stream.metadata["cache"] == "hit"  # header is intact
        with pytest.raises(GraphError, match="corrupt mid-body"):
            list(stream)

    def test_wrong_shape_cache_entry_raises_clearly_during_replay(self, tmp_path):
        # Valid JSON, malformed operation entry: decode raises IndexError /
        # UpdateError, which must still surface as the GraphError with the
        # delete-to-rebuild guidance, not a raw decoding traceback.
        path = self._events_file(tmp_path)
        cached_temporal_stream(path, window=8.0)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text(lines[0] + '[["+e", 1]]\n', encoding="utf-8")
        stream = cached_temporal_stream(path, window=8.0)
        with pytest.raises(GraphError, match="delete the file"):
            list(stream)

    def test_rebuild_sweeps_legacy_monolithic_entries(self, tmp_path):
        # PR4-era caches were single .json documents; nothing reads that
        # format anymore, so a rebuild for the same source stem must remove
        # them instead of leaving dataset-sized orphans forever.
        path = self._events_file(tmp_path)
        cache_dir = tmp_path / ".stream-cache"
        cache_dir.mkdir()
        legacy = cache_dir / f"{path.stem}-0123456789abcdef.json"
        legacy.write_text('{"format": "repro-temporal-stream/1"}', encoding="utf-8")
        cached_temporal_stream(path, window=8.0)
        assert not legacy.exists()
        assert len(list(cache_dir.iterdir())) == 1

    def test_truncated_cache_body_raises_clearly_during_replay(self, tmp_path):
        path = self._events_file(tmp_path)
        full = cached_temporal_stream(path, window=8.0)
        total = len(full)
        entry = next((tmp_path / ".stream-cache").iterdir())
        lines = entry.read_text(encoding="utf-8").splitlines(keepends=True)
        entry.write_text("".join(lines[:1]), encoding="utf-8")  # header only
        stream = cached_temporal_stream(path, window=8.0)
        assert stream.metadata["cache"] == "hit"
        assert len(stream) == total  # header still promises the full count
        with pytest.raises(GraphError, match="truncated"):
            list(stream)


class TestWorkloadCatalog:
    def test_names_are_stable(self):
        names = temporal_workload_names()
        assert "wiki-talk-window" in names
        assert "citation-growth" in names

    def test_unknown_workload_raises(self):
        with pytest.raises(ExperimentError):
            load_temporal_workload(QUICK_PROFILE, "no-such-workload")

    def test_workloads_are_deterministic_and_valid(self):
        for name in temporal_workload_names():
            graph, stream = load_temporal_workload("quick", name, num_events=150)
            _again, stream_again = load_temporal_workload("quick", name, num_events=150)
            assert [str(a) for a in stream] == [str(b) for b in stream_again]
            assert graph.num_vertices == 0  # temporal replays start empty
            scratch = DynamicGraph()
            stream.apply_all(scratch)

    def test_growth_workload_never_deletes(self):
        _graph, stream = load_temporal_workload("quick", "citation-growth", num_events=150)
        assert all(op.is_insertion for op in stream)

    def test_windowed_workload_churns_vertices(self):
        _graph, stream = load_temporal_workload("quick", "wiki-talk-window", num_events=300)
        kinds = stream.counts_by_kind()
        assert kinds.get(UpdateKind.DELETE_EDGE, 0) > 0
        assert kinds.get(UpdateKind.DELETE_VERTEX, 0) > 0
