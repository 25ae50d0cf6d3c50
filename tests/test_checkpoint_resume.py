"""Runner-level checkpoint/resume: interrupt a replay at any checkpoint.

Asserts the ISSUE's acceptance criterion: a temporal dataset replay can be
interrupted at an *arbitrary* checkpoint and resumed, and the resumed run's
final solution, graph and per-algorithm statistics are identical to an
uninterrupted run's.
"""

from __future__ import annotations

import json

import pytest

from repro.core.one_swap import DyOneSwap
from repro.exceptions import CheckpointError, ExperimentError
from repro.experiments import (
    load_temporal_workload,
    run_algorithm,
    run_competition,
)
from repro.experiments.runner import create_algorithm
from repro.generators.random_graphs import gnm_random_graph
from repro.resilience.integrity import embed_digest
from repro.updates.streams import UpdateStream, mixed_update_stream
from repro.workloads import (
    CheckpointConfig,
    find_checkpoints,
    latest_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.workloads.replay import (
    QUARANTINE_DIRNAME,
    latest_valid_checkpoint,
)
from repro.workloads.snapshot import graph_to_payload


@pytest.fixture(scope="module")
def temporal_workload():
    return load_temporal_workload("quick", "wiki-talk-window", num_events=260)


def _measurement_fingerprint(measurement):
    return (
        measurement.num_updates,
        measurement.initial_size,
        measurement.final_size,
        measurement.memory_footprint,
        measurement.finished,
        measurement.extra,
    )


class TestRunAlgorithmCheckpointing:
    def test_checkpoints_written_on_schedule(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        assert measurement.finished
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert [processed for processed, _ in checkpoints[:3]] == [100, 200, 300]
        # The final (partial-chunk) checkpoint covers the whole stream.
        assert checkpoints[-1][0] == stream.count() == measurement.num_updates

    def test_resume_from_every_checkpoint_is_identical(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=150)
        reference = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 3
        reference_graph = graph_to_payload(
            load_checkpoint(checkpoints[-1][1]).restore().graph
        )
        for _processed, path in checkpoints[:-1]:
            resumed = run_algorithm(
                "DyOneSwap", graph, stream, dataset="t", resume_from=path
            )
            assert _measurement_fingerprint(resumed) == _measurement_fingerprint(
                reference
            )
        # Resuming the last checkpoint and re-checkpointing reproduces the
        # reference's final graph bit-for-bit.
        resumed_dir = tmp_path / "resumed"
        resumed_config = CheckpointConfig(directory=resumed_dir, every=150)
        run_algorithm(
            "DyOneSwap",
            graph,
            stream,
            dataset="t",
            resume_from=checkpoints[0][1],
            checkpoint=resumed_config,
        )
        resumed_last = find_checkpoints(resumed_dir, "DyOneSwap")[-1]
        assert resumed_last[0] == stream.count()
        resumed_graph = graph_to_payload(
            load_checkpoint(resumed_last[1]).restore().graph
        )
        assert resumed_graph == reference_graph

    def test_batched_checkpointing_requires_aligned_interval(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=130)
        with pytest.raises(ExperimentError, match="multiple"):
            run_algorithm(
                "DyOneSwap", graph, stream, batch_size=64, checkpoint=config
            )

    def test_dyarw_resume_is_identical(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=150)
        reference = run_algorithm(
            "DyARW", graph, stream, dataset="t", checkpoint=config
        )
        mid = find_checkpoints(tmp_path, "DyARW")[1][1]
        resumed = run_algorithm("DyARW", graph, stream, dataset="t", resume_from=mid)
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(reference)

    def test_batched_resume_is_identical(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=128)
        reference = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", batch_size=64, checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        mid = checkpoints[len(checkpoints) // 2][1]
        resumed = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", batch_size=64, resume_from=mid
        )
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(reference)

    def test_resume_validates_dataset(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, dataset="workload-a", checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        with pytest.raises(ExperimentError, match="dataset"):
            run_algorithm(
                "DyOneSwap", graph, stream, dataset="workload-b", resume_from=path
            )

    def test_resume_validates_batch_size(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=128)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = find_checkpoints(tmp_path, "DyOneSwap")[0][1]
        # An unbatched checkpoint resumed in batched mode would shift every
        # batch boundary relative to an uninterrupted batched run.
        with pytest.raises(ExperimentError, match="batch_size"):
            run_algorithm("DyOneSwap", graph, stream, batch_size=64, resume_from=path)

    def test_keep_prunes_old_checkpoints(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100, keep=2)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) == 2
        assert checkpoints[-1][0] == stream.count()

    def test_resume_validates_algorithm_name(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        with pytest.raises(ExperimentError, match="belongs to"):
            run_algorithm("DyTwoSwap", graph, stream, resume_from=path)

    def test_resume_validates_stream_length(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        with pytest.raises(ExperimentError, match="stream"):
            run_algorithm("DyOneSwap", graph, stream.prefix(50), resume_from=path)

    def test_resume_validates_stream_identity(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        # Same length, different provenance: the length check alone would
        # let this through and silently mix two runs.
        other = UpdateStream(
            operations=list(stream.operations), description="some-other-workload"
        )
        with pytest.raises(ExperimentError, match="mix two runs"):
            run_algorithm("DyOneSwap", graph, other, resume_from=path)

    def test_resume_refuses_checkpoint_without_stream_identity(self, tmp_path):
        graph = gnm_random_graph(60, 150, seed=4)
        stream_a = list(mixed_update_stream(graph, 200, seed=1))
        engine = create_algorithm("DyOneSwap", graph.copy(), None)
        engine.apply_stream(stream_a[:100])
        path = save_checkpoint(
            engine,
            tmp_path,
            algorithm_name="DyOneSwap",
            processed=100,
            initial_size=0,
        )
        # Same length, a different 100-op prefix, then A's tail: without a
        # recorded fingerprint nothing could tell the prefixes apart.
        stream_b = list(mixed_update_stream(graph, 100, seed=2)) + stream_a[100:]
        with pytest.raises(ExperimentError, match="no stream fingerprint"):
            run_algorithm("DyOneSwap", graph, stream_b, resume_from=path)

    def test_non_snapshot_capable_algorithm_fails_fast(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100)
        with pytest.raises(ExperimentError, match="does not support engine snapshots"):
            run_algorithm("DGOneDIS", graph, stream, checkpoint=config)
        assert not find_checkpoints(tmp_path, "DGOneDIS")

    def test_checkpoint_files_have_no_temp_residue(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=100)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        leftovers = [p.name for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    def test_missing_checkpoint_raises(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        with pytest.raises(CheckpointError):
            run_algorithm(
                "DyOneSwap", graph, stream, resume_from=tmp_path / "nope.ckpt.json"
            )

    def test_invalid_config_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every=0)
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every=10, keep=0)


class TestFormatVersion:
    def test_format_2_checkpoint_is_never_resumed(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every=200)
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        path = latest_checkpoint(tmp_path, "DyOneSwap")
        # An intact /2 document: older format, digest re-embedded over it.
        document = json.loads(path.read_text())
        document["format"] = "repro-checkpoint/2"
        path.write_text(json.dumps(embed_digest(document)))
        with pytest.raises(CheckpointError, match="repro-checkpoint/2"):
            run_algorithm("DyOneSwap", graph, stream, resume_from=path)
        with pytest.warns(RuntimeWarning, match="repro-checkpoint/2"):
            survivor = latest_valid_checkpoint(tmp_path, "DyOneSwap")
        assert survivor is not None and survivor != path
        assert not path.exists()
        assert (tmp_path / QUARANTINE_DIRNAME / path.name).exists()


class TestRunCompetitionCheckpointing:
    def test_resume_without_checkpoint_rejected(self, temporal_workload):
        graph, stream = temporal_workload
        with pytest.raises(ExperimentError, match="resume=True requires"):
            run_competition(graph, stream, resume=True, attach_reference=False)

    def test_competition_resume_matches_straight_run(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        algorithms = ("DyOneSwap", "DyTwoSwap", "DGOneDIS")
        straight = run_competition(
            graph,
            stream,
            dataset="t",
            algorithms=algorithms,
            attach_reference=False,
        )
        config = CheckpointConfig(directory=tmp_path, every=120)
        checkpointed = run_competition(
            graph,
            stream,
            dataset="t",
            algorithms=algorithms,
            attach_reference=False,
            checkpoint=config,
        )
        # Snapshot-capable algorithms left checkpoints; baselines did not.
        assert find_checkpoints(tmp_path, "DyOneSwap")
        assert find_checkpoints(tmp_path, "DyTwoSwap")
        assert not find_checkpoints(tmp_path, "DGOneDIS")
        # Rerunning with resume=True restarts each algorithm from its newest
        # checkpoint (the end of the stream) and must reproduce the totals.
        resumed = run_competition(
            graph,
            stream,
            dataset="t",
            algorithms=algorithms,
            attach_reference=False,
            checkpoint=config,
            resume=True,
        )
        for name in algorithms:
            assert _measurement_fingerprint(straight[name]) == _measurement_fingerprint(
                checkpointed[name]
            )
            assert _measurement_fingerprint(straight[name]) == _measurement_fingerprint(
                resumed[name]
            )


class TestWallClockCheckpointing:
    def test_config_requires_some_interval(self, tmp_path):
        with pytest.raises(CheckpointError, match="interval"):
            CheckpointConfig(directory=tmp_path)
        with pytest.raises(CheckpointError):
            CheckpointConfig(directory=tmp_path, every_seconds=0.0)

    def test_every_seconds_writes_periodic_checkpoints(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        # A threshold of zero seconds is "due" at every stride boundary, so
        # this deterministically exercises the wall-clock path.
        config = CheckpointConfig(directory=tmp_path, every_seconds=0.0000001)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        assert measurement.finished
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 2  # several strides tripped the timer
        assert checkpoints[-1][0] == measurement.num_updates

    def test_large_every_seconds_still_leaves_final_checkpoint(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(directory=tmp_path, every_seconds=3600.0)
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        # The hour never elapses, but the end-of-stream checkpoint must
        # still make the run resumable/continuable.
        assert [processed for processed, _ in checkpoints] == [
            measurement.num_updates
        ]

    def test_wall_clock_resume_is_identical(self, temporal_workload, tmp_path):
        graph, stream = temporal_workload
        straight = run_algorithm("DyOneSwap", graph, stream, dataset="t")
        config = CheckpointConfig(
            directory=tmp_path, every_seconds=0.0000001, keep=4
        )
        checkpointed = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        assert _measurement_fingerprint(straight) == _measurement_fingerprint(
            checkpointed
        )
        mid = find_checkpoints(tmp_path, "DyOneSwap")[0][1]
        resumed = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", resume_from=mid
        )
        assert _measurement_fingerprint(resumed) == _measurement_fingerprint(straight)

    def test_keep_pruning_applies_to_wall_clock_checkpoints(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(
            directory=tmp_path, every_seconds=0.0000001, keep=2
        )
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        assert len(find_checkpoints(tmp_path, "DyOneSwap")) <= 2

    def test_combined_intervals_checkpoint_on_operation_schedule(
        self, temporal_workload, tmp_path
    ):
        graph, stream = temporal_workload
        config = CheckpointConfig(
            directory=tmp_path, every=100, every_seconds=3600.0
        )
        run_algorithm("DyOneSwap", graph, stream, checkpoint=config)
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        # In combined mode the runner probes at min(every, clock stride), so
        # each operation-interval checkpoint lands on the first probe
        # boundary at or after the 100-op mark (here: stride 64 → 128, 256).
        offsets = [processed for processed, _ in checkpoints]
        assert offsets[0] <= 100 + 64
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(gap <= 100 + 64 for gap in gaps)

    def test_combined_short_clock_beats_huge_operation_interval(
        self, temporal_workload, tmp_path
    ):
        # The regression this pins: with every=10**6 alone setting the
        # stride, the clock would only be consulted after the whole stream —
        # 'whichever trips first' requires the wall-clock interval to fire
        # at its own (stride) granularity despite the huge 'every'.
        graph, stream = temporal_workload
        config = CheckpointConfig(
            directory=tmp_path, every=1_000_000, every_seconds=0.0000001
        )
        measurement = run_algorithm(
            "DyOneSwap", graph, stream, dataset="t", checkpoint=config
        )
        checkpoints = find_checkpoints(tmp_path, "DyOneSwap")
        assert len(checkpoints) >= 2  # periodic, not just end-of-stream
        assert checkpoints[0][0] < measurement.num_updates


class TestPruning:
    def _save(self, engine, config, processed):
        return save_checkpoint(
            engine,
            config,
            algorithm_name="DyOneSwap",
            processed=processed,
            initial_size=0,
        )

    def test_keep_retains_the_newest_checkpoints(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=1))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=2)
        for step in range(1, 7):
            self._save(engine, config, step)
            survivors = find_checkpoints(tmp_path, "DyOneSwap")
            expected = [max(1, step - 1), step][: step if step < 2 else 2]
            assert [processed for processed, _ in survivors] == expected

    def test_external_deletion_is_tolerated(self, tmp_path):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=2))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=2)
        for step in (1, 2, 3):
            self._save(engine, config, step)
        # Another process empties the directory behind the writer's back.
        for _, path in find_checkpoints(tmp_path, "DyOneSwap"):
            path.unlink()
        # Every pruning write rescans the directory, so no crash, and the
        # retention invariant holds against what is on disk.
        self._save(engine, config, 4)
        self._save(engine, config, 5)
        self._save(engine, config, 6)
        assert [
            processed for processed, _ in find_checkpoints(tmp_path, "DyOneSwap")
        ] == [5, 6]

    def test_unlink_failure_is_a_warning(self, tmp_path, monkeypatch):
        engine = DyOneSwap(gnm_random_graph(12, 18, seed=3))
        config = CheckpointConfig(directory=tmp_path, every=1, keep=1)
        self._save(engine, config, 1)

        def refuse(path, *args, **kwargs):
            raise PermissionError(f"read-only: {path}")

        monkeypatch.setattr(type(tmp_path), "unlink", refuse)
        with pytest.warns(RuntimeWarning, match="could not prune"):
            self._save(engine, config, 2)
        monkeypatch.undo()
        assert [
            processed for processed, _ in find_checkpoints(tmp_path, "DyOneSwap")
        ] == [1, 2]
