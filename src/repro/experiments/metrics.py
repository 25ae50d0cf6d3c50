"""Metrics collected by the experiment harness.

The paper evaluates every algorithm along three axes (Section V-A):

* **solution quality** — the *gap* between the maintained independent set and
  a reference size (the independence number from VCSolver on easy graphs, the
  best known result on hard graphs) and the *accuracy* ``|I| / reference``,
* **response time** — wall-clock time to process the update stream,
* **memory usage** — the footprint of the structures each algorithm maintains.

In this reproduction the memory axis is measured with a deterministic
structure-size proxy (:meth:`memory_footprint` on each algorithm) instead of
``/usr/bin/time`` heap samples; see DESIGN.md §3.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass(frozen=True)
class QualityMetrics:
    """Gap and accuracy of a maintained solution against a reference size."""

    solution_size: int
    reference_size: int
    reference_kind: str = "exact"

    @property
    def gap(self) -> int:
        """``reference - |I|`` — negative values mean the solution beat the reference."""
        return self.reference_size - self.solution_size

    @property
    def accuracy(self) -> float:
        """``|I| / reference`` (1.0 when the reference is zero)."""
        if self.reference_size == 0:
            return 1.0
        return self.solution_size / self.reference_size

    @property
    def beats_reference(self) -> bool:
        """True when the maintained solution is larger than the reference (paper's ``↑``)."""
        return self.solution_size > self.reference_size

    def formatted_gap(self) -> str:
        """The paper's gap notation: absolute gap, suffixed with ``↑`` when negative."""
        if self.beats_reference:
            return f"{abs(self.gap)}↑"
        return str(self.gap)


@dataclass
class RunMeasurement:
    """Everything measured for one algorithm on one dataset/stream pair.

    ``elapsed_seconds`` is engine time: the sum of the stopwatch sessions
    around ``apply_batch`` / ``apply_update``, the same in every runner mode.
    Building the initial solution, pulling operations from the stream
    (parsing, windowing, fingerprinting), invariant guards and checkpoint
    I/O are excluded.  A resumed run adds the time recorded in its
    checkpoint.
    """

    algorithm: str
    dataset: str
    num_updates: int
    initial_size: int
    final_size: int
    elapsed_seconds: float
    memory_footprint: int
    finished: bool = True
    reference_size: Optional[int] = None
    reference_kind: str = "unknown"
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def quality(self) -> Optional[QualityMetrics]:
        """Quality metrics when a reference size is attached, else ``None``."""
        if self.reference_size is None:
            return None
        return QualityMetrics(
            solution_size=self.final_size,
            reference_size=self.reference_size,
            reference_kind=self.reference_kind,
        )

    @property
    def updates_per_second(self) -> float:
        """Throughput over the update stream (0.0 when nothing was timed)."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.num_updates / self.elapsed_seconds

    def as_row(self) -> Dict[str, object]:
        """Flatten the measurement into a table row dictionary."""
        row: Dict[str, object] = {
            "algorithm": self.algorithm,
            "dataset": self.dataset,
            "updates": self.num_updates,
            "initial_size": self.initial_size,
            "final_size": self.final_size,
            "time_s": round(self.elapsed_seconds, 4),
            "memory": self.memory_footprint,
            "finished": self.finished,
        }
        quality = self.quality
        if quality is not None:
            row["reference"] = self.reference_size
            row["reference_kind"] = self.reference_kind
            row["gap"] = quality.formatted_gap()
            row["accuracy"] = round(quality.accuracy, 4)
        row.update({key: round(value, 4) for key, value in self.extra.items()})
        return row


class Stopwatch:
    """Minimal context-manager stopwatch used by the runner."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start: Optional[float] = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._start is not None:
            self.elapsed += time.perf_counter() - self._start
            self._start = None


def speedup(baseline_seconds: float, contender_seconds: float) -> float:
    """How many times faster the contender is than the baseline (inf when instant)."""
    if contender_seconds <= 0:
        return float("inf")
    return baseline_seconds / contender_seconds
