"""Tests for experiment metrics."""

from __future__ import annotations

import time

import pytest

from repro.experiments.metrics import QualityMetrics, RunMeasurement, Stopwatch, speedup


class TestQualityMetrics:
    def test_gap_and_accuracy(self):
        quality = QualityMetrics(solution_size=95, reference_size=100)
        assert quality.gap == 5
        assert quality.accuracy == pytest.approx(0.95)
        assert not quality.beats_reference
        assert quality.formatted_gap() == "5"

    def test_beats_reference_uses_arrow_notation(self):
        quality = QualityMetrics(solution_size=103, reference_size=100)
        assert quality.gap == -3
        assert quality.beats_reference
        assert quality.formatted_gap() == "3↑"

    def test_zero_reference(self):
        quality = QualityMetrics(solution_size=0, reference_size=0)
        assert quality.accuracy == 1.0


class TestRunMeasurement:
    def test_quality_requires_reference(self):
        measurement = RunMeasurement(
            algorithm="DyOneSwap",
            dataset="Email",
            num_updates=100,
            initial_size=50,
            final_size=48,
            elapsed_seconds=0.5,
            memory_footprint=1234,
        )
        assert measurement.quality is None
        measurement.reference_size = 50
        assert measurement.quality.gap == 2

    def test_updates_per_second(self):
        measurement = RunMeasurement(
            algorithm="a", dataset="d", num_updates=200, initial_size=0,
            final_size=0, elapsed_seconds=2.0, memory_footprint=0,
        )
        assert measurement.updates_per_second == pytest.approx(100.0)
        measurement.elapsed_seconds = 0.0
        assert measurement.updates_per_second == 0.0

    def test_as_row_includes_quality_and_extras(self):
        measurement = RunMeasurement(
            algorithm="DyTwoSwap",
            dataset="Email",
            num_updates=10,
            initial_size=5,
            final_size=6,
            elapsed_seconds=0.25,
            memory_footprint=99,
            reference_size=6,
            reference_kind="exact",
            extra={"swaps": 3.0},
        )
        row = measurement.as_row()
        assert row["algorithm"] == "DyTwoSwap"
        assert row["gap"] == "0"
        assert row["accuracy"] == 1.0
        assert row["swaps"] == 3.0
        assert row["finished"] is True


class TestStopwatchAndSpeedup:
    def test_stopwatch_measures_elapsed_time(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.01)
        assert watch.elapsed >= 0.005

    def test_speedup(self):
        assert speedup(2.0, 1.0) == pytest.approx(2.0)
        assert speedup(1.0, 0.0) == float("inf")
