"""Tests for the experiment runner (algorithm factories, competitions, references)."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

import repro.experiments.metrics as metrics
from repro.core.base import DynamicMISBase
from repro.exceptions import ExperimentError
from repro.experiments.runner import (
    PAPER_ALGORITHMS,
    available_algorithms,
    compute_reference,
    create_algorithm,
    run_algorithm,
    run_competition,
)
from repro.generators.power_law import power_law_random_graph
from repro.generators.random_graphs import erdos_renyi_graph
from repro.updates.streams import mixed_update_stream
from repro.workloads.replay import CheckpointConfig


@pytest.fixture
def graph_and_stream():
    graph = power_law_random_graph(120, 2.2, seed=3)
    stream = mixed_update_stream(graph, 200, seed=4)
    return graph, stream


class TestFactories:
    def test_paper_algorithms_are_registered(self):
        for name in PAPER_ALGORITHMS:
            assert name in available_algorithms()

    def test_create_algorithm_unknown_name(self, path_graph):
        with pytest.raises(ExperimentError):
            create_algorithm("NotAnAlgorithm", path_graph)

    def test_create_each_algorithm(self, small_random_graph):
        for name in available_algorithms():
            algo = create_algorithm(name, small_random_graph.copy())
            assert algo.solution_size > 0

    def test_variant_options_applied(self, small_random_graph):
        perturb = create_algorithm("DyOneSwap+perturb", small_random_graph.copy())
        assert perturb.perturbation is True
        lazy = create_algorithm("DyTwoSwap+lazy", small_random_graph.copy())
        assert lazy.lazy is True

    def test_framework_accepts_k_option(self, small_random_graph):
        algo = create_algorithm("KSwapFramework", small_random_graph.copy(), k=3)
        assert algo.k == 3

    @pytest.mark.parametrize(
        "name, options",
        [
            ("DyOneSwap", {"bogus": 1}),
            ("DyTwoSwap+lazy", {"workers": 2}),
            ("DGOneDIS", {"lazy": True}),
        ],
    )
    def test_unknown_option_is_a_typed_error(self, path_graph, name, options):
        with pytest.raises(ExperimentError, match=sorted(options)[0]):
            create_algorithm(name, path_graph.copy(), None, **options)
        with pytest.raises(ExperimentError, match=sorted(options)[0]):
            run_algorithm(name, path_graph, [], **options)


class TestRunAlgorithm:
    def test_measurement_fields(self, graph_and_stream):
        graph, stream = graph_and_stream
        measurement = run_algorithm("DyOneSwap", graph, stream, dataset="toy")
        assert measurement.algorithm == "DyOneSwap"
        assert measurement.dataset == "toy"
        assert measurement.num_updates == len(stream)
        assert measurement.finished
        assert measurement.elapsed_seconds > 0
        assert measurement.memory_footprint > 0
        assert measurement.final_size > 0

    def test_original_graph_not_mutated(self, graph_and_stream):
        graph, stream = graph_and_stream
        before = graph.copy()
        run_algorithm("DyTwoSwap", graph, stream)
        assert graph == before

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_time_limit_interrupts_run(self, graph_and_stream, batch_size):
        graph, stream = graph_and_stream
        measurement = run_algorithm(
            "DyOneSwap",
            graph,
            stream,
            time_limit_seconds=0.0,
            check_interval=1,
            batch_size=batch_size,
        )
        assert not measurement.finished
        assert measurement.num_updates < len(stream)

    def test_initial_solution_is_used(self, path_graph):
        stream = mixed_update_stream(path_graph, 5, seed=1)
        measurement = run_algorithm(
            "DyOneSwap", path_graph, stream, initial_solution=[0, 2, 4]
        )
        assert measurement.initial_size == 3


#: Fake seconds per operation applied by the engine and per operation
#: yielded by the stream (binary fractions, so the sums are exact).
ENGINE_TICK = 1 / 1024
STREAM_TICK = 1.0


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TickingStream:
    """A stream whose iteration advances the fake clock per yielded op."""

    description = "ticking"

    def __init__(self, operations, clock: FakeClock) -> None:
        self._operations = operations
        self._clock = clock

    def length_hint(self):
        return len(self._operations)

    def __iter__(self):
        for operation in self._operations:
            self._clock.now += STREAM_TICK
            yield operation


@pytest.fixture
def clock(monkeypatch):
    """The clock the runner's stopwatch reads, advanced only by the engine
    (``ENGINE_TICK`` per applied op) and by :class:`TickingStream`."""
    clock = FakeClock()
    monkeypatch.setattr(metrics, "time", SimpleNamespace(perf_counter=clock))
    apply_batch = DynamicMISBase.apply_batch
    apply_update = DynamicMISBase.apply_update

    def ticking_batch(engine, operations, **kwargs):
        clock.now += ENGINE_TICK * len(operations)
        return apply_batch(engine, operations, **kwargs)

    def ticking_update(engine, operation):
        clock.now += ENGINE_TICK
        return apply_update(engine, operation)

    monkeypatch.setattr(DynamicMISBase, "apply_batch", ticking_batch)
    monkeypatch.setattr(DynamicMISBase, "apply_update", ticking_update)
    return clock


class TestTimingModel:
    """``elapsed_seconds`` is engine time in every mode: pulling operations
    from the stream never counts, with or without checkpoints."""

    @pytest.fixture
    def workload(self):
        graph = power_law_random_graph(120, 2.2, seed=3)
        return graph, list(mixed_update_stream(graph, 600, seed=4))

    @pytest.mark.parametrize("batch_size", [1, 64])
    @pytest.mark.parametrize("checkpointed", [False, True])
    def test_stream_time_is_excluded(
        self, clock, workload, tmp_path, batch_size, checkpointed
    ):
        graph, operations = workload
        checkpoint = (
            CheckpointConfig(directory=tmp_path, every=128) if checkpointed else None
        )
        measurement = run_algorithm(
            "DyOneSwap",
            graph,
            TickingStream(operations, clock),
            batch_size=batch_size,
            checkpoint=checkpoint,
        )
        assert measurement.finished
        assert measurement.num_updates == len(operations)
        assert clock.now >= len(operations) * STREAM_TICK  # the stream did tick
        assert measurement.elapsed_seconds == len(operations) * ENGINE_TICK

    @pytest.mark.parametrize(
        "batch_size, check_interval, stopped_at",
        [
            (64, 64, 128),  # 64 ops = 0.0625 s, 128 ops = 0.125 s > 0.1 s
            (64, 1, 128),  # chunks never drop below one batch
            (64, 200, 256),  # batched runs honour check_interval (rounded up)
            (1, 50, 150),
        ],
    )
    def test_time_limit_is_checked_between_chunks(
        self, clock, workload, batch_size, check_interval, stopped_at
    ):
        graph, operations = workload
        measurement = run_algorithm(
            "DyOneSwap",
            graph,
            TickingStream(operations, clock),
            batch_size=batch_size,
            time_limit_seconds=0.1,
            check_interval=check_interval,
        )
        assert not measurement.finished
        assert measurement.num_updates == stopped_at
        assert measurement.elapsed_seconds == stopped_at * ENGINE_TICK

    def test_limit_elapsing_in_the_final_chunk_completes_the_run(
        self, clock, workload
    ):
        graph, operations = workload
        measurement = run_algorithm(
            "DyOneSwap",
            graph,
            TickingStream(operations[:128], clock),
            batch_size=64,
            time_limit_seconds=0.1,
        )
        assert measurement.finished
        assert measurement.num_updates == 128

    def test_fanout_follows_the_same_rule(self, clock, workload):
        graph, operations = workload
        one_shot = iter(TickingStream(operations, clock))
        results = run_competition(
            graph,
            one_shot,
            algorithms=("DyOneSwap", "DyTwoSwap"),
            batch_size=64,
            time_limit_seconds=0.1,
            attach_reference=False,
        )
        for measurement in results.values():
            assert not measurement.finished
            assert measurement.num_updates == 128
            assert measurement.elapsed_seconds == 128 * ENGINE_TICK


class TestRunCompetition:
    def test_all_algorithms_measured_with_shared_reference(self, graph_and_stream):
        graph, stream = graph_and_stream
        results = run_competition(
            graph, stream, dataset="toy", reference_node_budget=50_000
        )
        assert set(results) == set(PAPER_ALGORITHMS)
        references = {m.reference_size for m in results.values() if m.finished}
        assert len(references) == 1
        for measurement in results.values():
            assert measurement.quality is not None
            assert 0 < measurement.quality.accuracy <= 1.05

    def test_competition_without_reference(self, graph_and_stream):
        graph, stream = graph_and_stream
        results = run_competition(
            graph, stream, algorithms=("DyOneSwap",), attach_reference=False
        )
        assert results["DyOneSwap"].reference_size is None

    def test_algorithm_options_forwarded(self, graph_and_stream):
        graph, stream = graph_and_stream
        results = run_competition(
            graph,
            stream,
            algorithms=("KSwapFramework",),
            attach_reference=False,
            algorithm_options={"KSwapFramework": {"k": 2}},
        )
        assert results["KSwapFramework"].finished


class TestComputeReference:
    def test_exact_reference_on_small_graph(self):
        graph = erdos_renyi_graph(30, 0.15, seed=2)
        reference = compute_reference(graph, node_budget=100_000)
        assert reference.kind == "exact"
        assert reference.size > 0

    def test_fallback_to_best_known(self):
        graph = erdos_renyi_graph(200, 0.2, seed=3)
        reference = compute_reference(graph, node_budget=2, arw_iterations=2)
        assert reference.kind == "best-known"
        assert reference.size > 0

    def test_known_solutions_seed_the_fallback(self):
        graph = erdos_renyi_graph(200, 0.2, seed=4)
        huge_fake = set(range(5000))
        reference = compute_reference(
            graph, node_budget=2, arw_iterations=1, known_solutions=[huge_fake]
        )
        assert reference.size == len(huge_fake)
