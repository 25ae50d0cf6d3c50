"""Experiment runner: algorithms × datasets × update streams.

The runner knows how to

* instantiate every evaluated algorithm by name (the five algorithms of the
  paper plus the generic framework and the optimization variants),
* execute an update stream against an algorithm while timing it and honouring
  an optional per-run time limit (the analogue of the paper's five-hour
  cut-off after which DGOneDIS/DGTwoDIS are reported as "-"),
* compute the reference solution size for a final graph — the exact
  independence number when the branch-and-reduce solver finishes within its
  node budget, and the best known solution otherwise (the paper's Table IV
  convention).
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.baselines.arw import ArwLocalSearch
from repro.baselines.dgdis import DGOneDIS, DGTwoDIS
from repro.baselines.dyn_arw import DyARW
from repro.baselines.exact import BranchAndReduceSolver
from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.exceptions import ExperimentError, SolverTimeoutError
from repro.experiments.metrics import RunMeasurement, Stopwatch
from repro.graphs.dynamic_graph import DynamicGraph, Vertex
from repro.updates.protocol import (
    StreamCursor,
    stream_description,
    stream_length_hint,
)
from repro.updates.streams import UpdateStream
from repro.workloads.replay import (
    CheckpointConfig,
    latest_valid_checkpoint,
    load_checkpoint,
    save_checkpoint,
)

#: Operations consumed between wall-clock checks when a
#: :class:`~repro.workloads.replay.CheckpointConfig` carries only
#: ``every_seconds`` (scaled by the batch size so chunk boundaries stay
#: batch-aligned).
WALL_CLOCK_STRIDE = 64

#: Residency cap on the chunk a checkpointed run materialises between
#: stopwatch sessions: a huge ``CheckpointConfig.every`` must not turn into
#: an equally huge in-RAM operation list, so chunks are bounded by this
#: (rounded to the batch size) and the checkpoint is written once the
#: operations since the last write reach the interval.
CHECKPOINT_CHUNK = 1024

#: Algorithm names in the order the paper's tables list them.
PAPER_ALGORITHMS: Tuple[str, ...] = (
    "DGOneDIS",
    "DGTwoDIS",
    "DyARW",
    "DyOneSwap",
    "DyTwoSwap",
)


def _constructor_keywords(cls) -> FrozenSet[str]:
    """Keywords ``cls(graph, ...)`` accepts, following ``**kwargs`` up the MRO.

    ``graph`` and ``initial_solution`` are supplied by
    :func:`create_algorithm` itself and are not options.
    """
    accepted: Set[str] = set()
    for klass in cls.__mro__:
        init = klass.__dict__.get("__init__")
        if init is None:
            continue
        parameters = inspect.signature(init).parameters.values()
        accepted.update(
            p.name
            for p in parameters
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )
        if not any(p.kind is p.VAR_KEYWORD for p in parameters):
            break
    return frozenset(accepted - {"self", "graph", "initial_solution"})


def _make_factory(cls, **fixed):
    def factory(graph: DynamicGraph, initial_solution, **options):
        merged = dict(fixed)
        merged.update(options)
        return cls(graph, initial_solution=initial_solution, **merged)

    factory.options = _constructor_keywords(cls)
    return factory


#: Registry mapping algorithm names to factories ``(graph, initial_solution, **options)``.
ALGORITHM_FACTORIES: Dict[str, Callable] = {
    "DGOneDIS": _make_factory(DGOneDIS),
    "DGTwoDIS": _make_factory(DGTwoDIS),
    "DyARW": _make_factory(DyARW),
    "DyOneSwap": _make_factory(DyOneSwap),
    "DyTwoSwap": _make_factory(DyTwoSwap),
    "DyOneSwap+perturb": _make_factory(DyOneSwap, perturbation=True),
    "DyTwoSwap+perturb": _make_factory(DyTwoSwap, perturbation=True),
    "DyOneSwap+lazy": _make_factory(DyOneSwap, lazy=True),
    "DyTwoSwap+lazy": _make_factory(DyTwoSwap, lazy=True),
    "KSwapFramework": _make_factory(KSwapFramework),
}


#: Registry entries whose instances support engine snapshots — every
#: DynamicMISBase maintainer (all of which are deterministic and keep their
#: whole state in graph + membership + counters); the index-based DGDIS
#: baselines are not snapshot-capable.
SNAPSHOT_CAPABLE: Tuple[str, ...] = (
    "DyOneSwap",
    "DyTwoSwap",
    "DyARW",
    "DyOneSwap+perturb",
    "DyTwoSwap+perturb",
    "DyOneSwap+lazy",
    "DyTwoSwap+lazy",
    "KSwapFramework",
)


def supports_snapshots(name: str) -> bool:
    """Whether the registered algorithm ``name`` can be checkpointed.

    Shared by the runner's checkpoint validation and the service layer's
    tenant bootstrap (a tenant without snapshot support could never be
    warm-started or crash-recovered, so it is rejected at configuration
    time).
    """
    return name in SNAPSHOT_CAPABLE


def algorithm_options(name: str) -> FrozenSet[str]:
    """Option keywords the registered algorithm ``name`` accepts."""
    return ALGORITHM_FACTORIES[name].options


def available_algorithms() -> Tuple[str, ...]:
    """Names accepted by :func:`run_algorithm`."""
    return tuple(ALGORITHM_FACTORIES)


def create_algorithm(
    name: str,
    graph: DynamicGraph,
    initial_solution: Optional[Iterable[Vertex]] = None,
    **options,
):
    """Instantiate a registered algorithm on ``graph``.

    ``options`` are passed to the registered class's constructor; a key the
    constructor does not accept raises :class:`ExperimentError` naming it.
    """
    try:
        factory = ALGORITHM_FACTORIES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHM_FACTORIES)}"
        ) from None
    accepted = algorithm_options(name)
    unknown = sorted(set(options) - accepted)
    if unknown:
        raise ExperimentError(
            f"unknown option(s) {unknown} for algorithm {name!r}; "
            f"accepted: {sorted(accepted)}"
        )
    return factory(graph, initial_solution, **options)


def restore_factory(name: str, options: Dict) -> Callable:
    """The factory a checkpoint or snapshot rebuilds ``name`` through.

    ``options`` are the caller's; the options the snapshot recorded win over
    them.  Shared by runner resumes and service tenant restores.
    """

    def factory(graph: DynamicGraph, initial_solution, **snapshot_options):
        merged = {**options, **snapshot_options}
        return create_algorithm(name, graph, initial_solution, **merged)

    return factory


def _chunk_cap(batch_size: int, check_interval: Optional[int] = None) -> int:
    """Largest chunk a run pulls between two stopwatch sessions.

    At most :data:`CHECKPOINT_CHUNK` operations, rounded down to a whole
    number of batches (never below one batch) so chunk boundaries stay
    batch-aligned.  With a time limit the cap is also ``check_interval``
    rounded up to a multiple of the batch size: the limit is checked at
    chunk boundaries.
    """
    batch = max(1, batch_size)
    cap = max(batch, (CHECKPOINT_CHUNK // batch) * batch)
    if check_interval is not None:
        cap = min(cap, max(batch, -(-check_interval // batch) * batch))
    return cap


def _apply_chunk(algorithm, chunk: List, batch_size: int) -> None:
    """Apply one batch-aligned chunk of operations to ``algorithm``.

    With ``batch_size > 1`` and an algorithm exposing ``apply_batch`` (the
    core maintenance algorithms and :class:`~repro.baselines.dyn_arw.DyARW`)
    every ``batch_size`` window goes through the batched update engine —
    coalescing plus one repair pass per batch.  Unbatched runs, and
    algorithms without batch support (the DGDIS baselines), apply each
    operation through ``apply_update``.
    """
    apply_batch = getattr(algorithm, "apply_batch", None)
    if batch_size > 1 and apply_batch is not None:
        for start in range(0, len(chunk), batch_size):
            apply_batch(chunk[start : start + batch_size])
        return
    apply_update = algorithm.apply_update
    for operation in chunk:
        apply_update(operation)


@dataclass(frozen=True)
class ReferenceResult:
    """A reference solution size together with its provenance."""

    size: int
    kind: str  # "exact" or "best-known"


def compute_reference(
    graph: DynamicGraph,
    *,
    node_budget: int = 150_000,
    arw_iterations: int = 25,
    known_solutions: Sequence[Set[Vertex]] = (),
    seed: int = 0,
) -> ReferenceResult:
    """Compute the quality reference for a (final) graph.

    Tries the exact branch-and-reduce solver first; if it exceeds its node
    budget, falls back to the best known solution: the largest of an ARW
    local-search run and any solutions supplied by the caller (typically the
    final solutions of the evaluated algorithms).  This mirrors the paper's
    protocol: the independence number from VCSolver on easy graphs, the best
    result of ARW on hard graphs.
    """
    solver = BranchAndReduceSolver(node_budget=node_budget)
    try:
        report = solver.solve(graph)
        return ReferenceResult(size=report.independence_number, kind="exact")
    except SolverTimeoutError:
        pass
    best = 0
    for solution in known_solutions:
        best = max(best, len(solution))
    arw = ArwLocalSearch(max_iterations=arw_iterations, seed=seed).run(graph)
    best = max(best, len(arw.solution))
    return ReferenceResult(size=best, kind="best-known")


def _run_single(
    name: str,
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str,
    initial_solution: Optional[Iterable[Vertex]],
    time_limit_seconds: Optional[float],
    check_interval: int,
    batch_size: int,
    checkpoint: Optional[CheckpointConfig],
    resume_from: Optional[Union[str, Path]],
    options: Dict,
    guard: Optional[Callable] = None,
    guard_every: Optional[int] = None,
) -> Tuple[RunMeasurement, object]:
    """Shared engine of :func:`run_algorithm` / :func:`run_competition`.

    Returns ``(measurement, algorithm)`` — the caller may need the live
    algorithm for its final graph/solution (the competition's shared
    reference).  The stream is consumed strictly as an iterator (``len()``
    is never called on it; a ``length_hint`` is recorded when the stream
    offers one), so unbounded lazy streams run in O(chunk) memory.  Every
    chunk is pulled outside the stopwatch and applied inside it.  Handles
    the optional checkpoint/resume wiring:

    * with ``checkpoint`` set, the stream is consumed through a hashing
      :class:`~repro.updates.protocol.StreamCursor` in chunks and a
      checkpoint recording ``(offset, prefix fingerprint)`` is written after
      every ``checkpoint.every`` operations and/or every
      ``checkpoint.every_seconds`` of wall-clock time,
    * with ``resume_from`` set, the algorithm is restored bit-for-bit from
      that checkpoint, the first ``processed`` operations of the stream are
      skipped by consuming the iterator, the fingerprint of the skipped
      prefix is verified against the checkpoint's recorded identity (a
      checkpoint without one is refused), and measurement fields (update
      count, elapsed time, initial size) continue from the checkpointed
      values — so a resumed run is indistinguishable from an uninterrupted
      one.
    """
    stream_length: Optional[int] = stream_length_hint(stream)
    description = stream_description(stream)
    if guard is not None and checkpoint is None:
        # The guard runs at checkpoint-chunk boundaries (outside the
        # stopwatch); without checkpointing there are no such boundaries.
        raise ExperimentError(
            "an invariant guard requires checkpoint=CheckpointConfig(...): "
            "guards run at checkpoint-chunk boundaries"
        )
    if guard_every is not None and guard_every < 1:
        raise ExperimentError("guard_every must be at least 1 when given")
    if checkpoint is not None:
        if not supports_snapshots(name):
            # Fail before any stream work is done — discovering the missing
            # capability at the first save_checkpoint would burn a full
            # chunk of updates first.
            raise ExperimentError(
                f"algorithm {name!r} does not support engine snapshots; "
                f"checkpointing is available for {SNAPSHOT_CAPABLE}"
            )
        if (
            batch_size > 1
            and checkpoint.every is not None
            and checkpoint.every % batch_size
        ):
            raise ExperimentError(
                f"checkpoint interval {checkpoint.every} must be a multiple of "
                f"batch_size {batch_size} so checkpoints land on batch boundaries"
            )
    skip = 0
    elapsed_offset = 0.0
    restored = None
    if resume_from is not None:
        restored = load_checkpoint(resume_from)
        if restored.algorithm_name != name:
            raise ExperimentError(
                f"checkpoint {restored.path} belongs to {restored.algorithm_name!r}, "
                f"not {name!r}"
            )
        if (
            restored.stream_length is not None
            and stream_length is not None
            and restored.stream_length != stream_length
        ):
            raise ExperimentError(
                f"checkpoint {restored.path} was taken on a stream of "
                f"{restored.stream_length} operations; got {stream_length}"
            )
        if (
            restored.stream_description
            and description
            and restored.stream_description != description
        ):
            raise ExperimentError(
                f"checkpoint {restored.path} was taken on stream "
                f"{restored.stream_description!r}; resuming against "
                f"{description!r} would silently mix two runs"
            )
        if restored.dataset and dataset and restored.dataset != dataset:
            raise ExperimentError(
                f"checkpoint {restored.path} was taken on dataset "
                f"{restored.dataset!r}, not {dataset!r}"
            )
        if restored.batch_size != batch_size:
            # Batch boundaries are part of the trajectory: resuming an
            # unbatched checkpoint in batched mode (or vice versa) would
            # shift every coalescing group relative to an uninterrupted run.
            raise ExperimentError(
                f"checkpoint {restored.path} was written by a "
                f"batch_size={restored.batch_size} run; resuming with "
                f"batch_size={batch_size} would shift every batch boundary"
            )
        if stream_length is not None and restored.processed > stream_length:
            raise ExperimentError(
                f"checkpoint {restored.path} consumed {restored.processed} "
                f"operations but the stream only has {stream_length}"
            )
        if restored.stream_identity is None:
            raise ExperimentError(
                f"checkpoint {restored.path} records no stream fingerprint, so "
                "the skipped prefix cannot be verified; refusing to resume"
            )
        algorithm = restored.restore(restore_factory(name, options))
        skip = restored.processed
        initial_size = restored.initial_size
        elapsed_offset = restored.elapsed_seconds
    else:
        working_graph = graph.copy()
        algorithm = create_algorithm(name, working_graph, initial_solution, **options)
        initial_size = algorithm.solution_size
    # The per-session cutoff accounts for update time already spent before
    # the resume, mirroring the paper's per-run budget.
    session_limit = (
        None if time_limit_seconds is None else time_limit_seconds - elapsed_offset
    )
    stopwatch = Stopwatch()
    # A hashing cursor is only paid for when the run writes checkpoints or
    # fast-forwards a resume; plain runs pull chunks from the raw iterator.
    cursor: Optional[StreamCursor] = None
    if checkpoint is not None or skip:
        cursor = StreamCursor(stream)
    else:
        iterator = iter(stream)
    if skip:
        assert cursor is not None and restored is not None
        skipped = cursor.skip(skip)
        if skipped < skip:
            raise ExperimentError(
                f"checkpoint {restored.path} consumed {skip} operations but "
                f"the stream only yielded {skipped}"
            )
        if cursor.fingerprint != restored.stream_identity:
            raise ExperimentError(
                f"checkpoint {restored.path} was taken at offset {skip} of a "
                f"stream whose prefix fingerprint is "
                f"{restored.stream_identity[:16]}…, but the supplied stream's "
                f"prefix hashes to {cursor.fingerprint[:16]}… — resuming "
                "would silently mix two runs"
            )
        if checkpoint is None:
            # No further fingerprints are needed: pull the rest from the
            # raw iterator so hashing stops.
            iterator = cursor.detach()
            cursor = None
    if cursor is not None:
        take = cursor.take
    else:

        def take(count: int) -> List:
            return list(islice(iterator, count))

    # One consumption rule for every run: each chunk is pulled outside the
    # stopwatch and applied inside it, so ``elapsed_seconds`` is engine
    # time whatever the checkpoint, resume or time-limit settings.  A
    # chunk ends at the next multiple of ``checkpoint.every`` (checkpoint
    # offsets land exactly on them), holds at most ``CHECKPOINT_CHUNK``
    # operations (residency stays O(chunk), not O(every)), and at most one
    # clock probe stride when a wall-clock interval is set (a short
    # ``every_seconds`` trips long before a huge ``every`` would:
    # "whichever trips first").  Every bound is a multiple of
    # ``batch_size`` (``every`` is validated above), so chunk boundaries
    # stay batch-aligned.
    cap = _chunk_cap(batch_size, None if session_limit is None else check_interval)
    clock_stride = WALL_CLOCK_STRIDE * max(1, batch_size)

    def persist() -> None:
        save_checkpoint(
            algorithm,
            checkpoint,
            algorithm_name=name,
            processed=processed,
            initial_size=initial_size,
            elapsed_seconds=elapsed_offset + stopwatch.elapsed,
            dataset=dataset,
            stream_length=stream_length,
            stream_description=description,
            stream_identity=cursor.fingerprint,
            batch_size=batch_size,
        )

    processed = skip
    finished = True
    pending = 0  # operations applied since the last checkpoint write
    since_guard = 0  # operations applied since the last guard pass
    last_write = time.monotonic()
    if session_limit is not None and session_limit <= 0:
        finished = stream_length is not None and processed >= stream_length
    else:
        while True:
            stride = cap
            if checkpoint is not None and checkpoint.every is not None:
                stride = min(stride, checkpoint.every - pending)
            if checkpoint is not None and checkpoint.every_seconds is not None:
                stride = min(stride, clock_stride)
            chunk = take(stride)
            if not chunk:
                break
            # The limit is checked only once a non-empty chunk is waiting, so
            # a limit elapsing during the final chunk never flags a completed
            # run.
            if session_limit is not None and stopwatch.elapsed > session_limit:
                finished = False
                break
            with stopwatch:
                _apply_chunk(algorithm, chunk, batch_size)
            processed += len(chunk)
            pending += len(chunk)
            since_guard += len(chunk)
            if guard is not None and (
                guard_every is None or since_guard >= guard_every
            ):
                # Outside the stopwatch: first-principles verification is
                # supervision overhead, never measured update time.
                guard(algorithm)
                since_guard = 0
            if checkpoint is not None and (
                (checkpoint.every is not None and pending >= checkpoint.every)
                or (
                    checkpoint.every_seconds is not None
                    and time.monotonic() - last_write >= checkpoint.every_seconds
                )
            ):
                # Outside the stopwatch: checkpoint I/O is never update time.
                persist()
                pending = 0
                last_write = time.monotonic()
            if len(chunk) < stride:
                break
    if guard is not None and finished and since_guard:
        # End-of-stream guard pass: the final partial interval is verified
        # too, so a violation in the last chunk cannot slip into the
        # returned measurement unchecked.
        guard(algorithm)
    if checkpoint is not None and finished and pending:
        # Wall-clock-only configs still leave a resumable checkpoint at end
        # of stream (operation-interval configs wrote it in-loop).
        persist()
    measurement = RunMeasurement(
        algorithm=name,
        dataset=dataset,
        num_updates=processed,
        initial_size=initial_size,
        final_size=algorithm.solution_size,
        elapsed_seconds=elapsed_offset + stopwatch.elapsed,
        memory_footprint=algorithm.memory_footprint(),
        finished=finished,
        extra=_algorithm_extras(algorithm),
    )
    return measurement, algorithm


def run_algorithm(
    name: str,
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str = "",
    initial_solution: Optional[Iterable[Vertex]] = None,
    time_limit_seconds: Optional[float] = None,
    check_interval: int = 64,
    batch_size: int = 1,
    checkpoint: Optional[CheckpointConfig] = None,
    resume_from: Optional[Union[str, Path]] = None,
    guard: Optional[Callable] = None,
    guard_every: Optional[int] = None,
    **options,
) -> RunMeasurement:
    """Run one algorithm over one update stream and measure it.

    The graph is copied, so the same input graph and stream can be reused for
    several algorithms.  The stream is pulled in batch-aligned chunks of at
    most :data:`CHECKPOINT_CHUNK` operations outside the stopwatch, and each
    chunk is applied inside it, so ``elapsed_seconds`` is engine time only
    (``apply_batch`` / ``apply_update``) in every mode, with or without
    checkpoints, resumes and time limits.  Building the initial solution
    and indexes, parsing and windowing the stream, fingerprinting and
    checkpoint I/O are excluded, as in the paper.

    Parameters
    ----------
    time_limit_seconds:
        When set, the run is abandoned once this much time has been spent on
        updates; the measurement is returned with ``finished=False`` (the
        paper reports such runs as "-").
    check_interval:
        How often (in updates) the time limit is checked.  With a limit set,
        chunks hold at most ``check_interval`` operations rounded up to a
        multiple of ``batch_size``, and the limit is checked between chunks,
        so the cutoff adds no per-update overhead.
    batch_size:
        When greater than one, feed the stream through the batched update
        engine (coalescing plus one repair pass per batch); algorithms
        without batch support fall back to per-operation application.
    checkpoint:
        When set, write a resumable checkpoint every
        :attr:`~repro.workloads.replay.CheckpointConfig.every` operations
        and/or every
        :attr:`~repro.workloads.replay.CheckpointConfig.every_seconds` of
        wall-clock time (I/O excluded from the measured time).  Each
        checkpoint records the stream offset plus the incremental prefix
        fingerprint, so resumes work on lazy streams that were never
        materialised.  Checkpointing requires a
        :class:`~repro.core.base.DynamicMISBase` algorithm (the core
        maintainers); the index-based baselines are not snapshot-capable.
    resume_from:
        Path of a checkpoint to resume from; the run skips ahead by
        consuming the stream iterator (verifying the prefix fingerprint)
        and its measurement reports cumulative totals, so the result is
        identical to an uninterrupted run (asserted by the test suite).
    guard:
        Optional callable invoked with the live algorithm at
        checkpoint-chunk boundaries, *outside* the measured update time —
        the hook the resilience supervisor's
        :class:`~repro.resilience.supervisor.InvariantGuard` plugs into.
        Requires ``checkpoint``.
    guard_every:
        Run the guard only once at least this many operations have been
        applied since its last pass (default: every chunk boundary).
    """
    measurement, _algorithm = _run_single(
        name,
        graph,
        stream,
        dataset=dataset,
        initial_solution=initial_solution,
        time_limit_seconds=time_limit_seconds,
        check_interval=check_interval,
        batch_size=batch_size,
        checkpoint=checkpoint,
        resume_from=resume_from,
        options=options,
        guard=guard,
        guard_every=guard_every,
    )
    return measurement


def _run_sequential(
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str,
    algorithms: Sequence[str],
    initial_solution: Optional[Iterable[Vertex]],
    time_limit_seconds: Optional[float],
    check_interval: int,
    batch_size: int,
    algorithm_options: Dict[str, Dict],
    checkpoint: Optional[CheckpointConfig],
    resume: bool,
) -> Tuple[Dict[str, RunMeasurement], List, Optional[DynamicGraph]]:
    """Classic competition: one full (re)play of the stream per algorithm."""
    measurements: Dict[str, RunMeasurement] = {}
    final_solutions = []
    final_graph: Optional[DynamicGraph] = None
    for name in algorithms:
        options = algorithm_options.get(name, {})
        algorithm_checkpoint = checkpoint
        resume_from = None
        if checkpoint is not None:
            if not supports_snapshots(name):
                algorithm_checkpoint = None
            elif resume:
                # Validated discovery: a torn or rotted newest checkpoint is
                # quarantined and the resume falls back to the next older
                # one (or a fresh start) instead of dying on restore.
                resume_from = latest_valid_checkpoint(checkpoint.directory, name)
        measurement, algorithm = _run_single(
            name,
            graph,
            stream,
            dataset=dataset,
            initial_solution=initial_solution,
            time_limit_seconds=time_limit_seconds,
            check_interval=check_interval,
            batch_size=batch_size,
            checkpoint=algorithm_checkpoint,
            resume_from=resume_from,
            options=options,
        )
        measurements[name] = measurement
        if measurement.finished:
            final_solutions.append(algorithm.solution())
            final_graph = algorithm.graph
    return measurements, final_solutions, final_graph


def _run_fanout(
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str,
    algorithms: Sequence[str],
    initial_solution: Optional[Iterable[Vertex]],
    time_limit_seconds: Optional[float],
    check_interval: int,
    batch_size: int,
    algorithm_options: Dict[str, Dict],
) -> Tuple[Dict[str, RunMeasurement], List, Optional[DynamicGraph]]:
    """One ingest pass fanned out to every algorithm over engine forks.

    The input graph is deep-copied once; each algorithm is constructed over
    a :meth:`~repro.graphs.dynamic_graph.DynamicGraph.fork` of that copy, so
    per-algorithm isolation costs O(slots) spine copies instead of a full
    deep copy each, and the engines diverge at O(touched slots) as they
    mutate.  The stream is consumed through a single iterator in
    batch-aligned chunks (every chunk is a multiple of ``batch_size``, so
    coalescing groups land exactly where a sequential full-stream replay
    would put them) and each chunk is applied to every still-running
    algorithm under its own stopwatch.  A one-shot stream is therefore
    consumed exactly once per competition run — nothing in this function may
    call ``iter(stream)`` a second time.
    """
    base = graph.copy()
    names = list(algorithms)
    engines: Dict[str, object] = {}
    for name in names:
        options = algorithm_options.get(name, {})
        engines[name] = create_algorithm(name, base.fork(), initial_solution, **options)
    initial_sizes = {name: engines[name].solution_size for name in names}
    stopwatches = {name: Stopwatch() for name in names}
    processed = {name: 0 for name in names}
    running = {name: True for name in names}
    chunk_size = _chunk_cap(
        batch_size, None if time_limit_seconds is None else check_interval
    )
    iterator = iter(stream)
    consumed = 0
    while any(running.values()):
        chunk = list(islice(iterator, chunk_size))
        if not chunk:
            break
        consumed += len(chunk)
        for name in names:
            if not running[name]:
                continue
            stopwatch = stopwatches[name]
            if time_limit_seconds is not None and stopwatch.elapsed > time_limit_seconds:
                # Checked only with a non-empty chunk waiting, as in
                # :func:`_run_single`.
                running[name] = False
                continue
            with stopwatch:
                _apply_chunk(engines[name], chunk, batch_size)
            processed[name] += len(chunk)
        if len(chunk) < chunk_size:
            break
    # The single pass above is the whole consumption — a second
    # iteration of a one-shot stream would silently hand later work
    # empty chunks, so pin the contract: every algorithm that ran to
    # completion saw exactly the operations of the single pass.
    assert all(
        processed[name] == consumed for name in names if running[name]
    ), "fan-out double-fed or starved an algorithm within the single pass"
    measurements: Dict[str, RunMeasurement] = {}
    final_solutions = []
    final_graph: Optional[DynamicGraph] = None
    for name in names:
        engine = engines[name]
        finished = running[name]
        measurements[name] = RunMeasurement(
            algorithm=name,
            dataset=dataset,
            num_updates=processed[name],
            initial_size=initial_sizes[name],
            final_size=engine.solution_size,
            elapsed_seconds=stopwatches[name].elapsed,
            memory_footprint=engine.memory_footprint(),
            finished=finished,
            extra=_algorithm_extras(engine),
        )
        if finished:
            final_solutions.append(engine.solution())
            final_graph = engine.graph
    return measurements, final_solutions, final_graph


def run_competition(
    graph: DynamicGraph,
    stream: Iterable,
    *,
    dataset: str = "",
    algorithms: Sequence[str] = PAPER_ALGORITHMS,
    initial_solution: Optional[Iterable[Vertex]] = None,
    time_limit_seconds: Optional[float] = None,
    check_interval: int = 64,
    batch_size: int = 1,
    reference_node_budget: int = 150_000,
    attach_reference: bool = True,
    algorithm_options: Optional[Dict[str, Dict]] = None,
    checkpoint: Optional[CheckpointConfig] = None,
    resume: bool = False,
) -> Dict[str, RunMeasurement]:
    """Run several algorithms on the same dataset/stream and attach a shared reference.

    Returns a mapping ``algorithm name -> RunMeasurement``.  When
    ``attach_reference`` is true, the reference size of the *final* graph is
    computed once (exact if possible, best-known otherwise, seeded with every
    algorithm's final solution) and attached to each measurement.  With
    ``batch_size > 1`` every batch-capable algorithm processes the stream
    through the batched update engine (the DGDIS baselines fall back to
    per-operation application).

    A replayable stream is replayed once per algorithm (the classic
    sequential protocol).  A **one-shot** stream — a bare iterator, or a
    lazy stream over a non-replayable source — is instead consumed exactly
    once and fanned out to every algorithm through copy-on-write engine
    forks: the input graph is copied once, each algorithm starts on a fork
    of that copy, and every batch-aligned chunk of the single pass is
    applied to all algorithms.  Results are identical to the sequential
    protocol; only checkpoint/resume requires a replayable stream (the
    fan-out has no per-algorithm stream cursor).

    With ``checkpoint`` set, every snapshot-capable algorithm (the
    :class:`~repro.core.base.DynamicMISBase` maintainers) writes resumable
    checkpoints into the shared directory — filenames embed the algorithm
    name, so one directory serves the whole competition; algorithms without
    snapshot support run straight through.  With ``resume=True`` each
    algorithm restarts from its newest checkpoint in that directory (fresh
    when it has none), which makes an interrupted competition restartable
    with the completed prefix priced in.
    """
    algorithm_options = algorithm_options or {}
    replayable = getattr(stream, "replayable", None)
    one_shot = iter(stream) is stream or (
        callable(replayable) and not replayable()
    )
    if resume and checkpoint is None:
        raise ExperimentError(
            "resume=True requires checkpoint=CheckpointConfig(...): without a "
            "checkpoint directory there is nothing to resume from"
        )
    if one_shot and len(algorithms) > 1:
        # A one-shot stream cannot be replayed once per algorithm, so the
        # competition takes the fork fan-out path instead: the input graph
        # is copied once, every algorithm starts on a cheap copy-on-write
        # fork of that copy, and the single pass over the stream feeds each
        # chunk to all algorithms — results are identical to sequential
        # replays of a replayable stream (regression-pinned).
        if checkpoint is not None:
            raise ExperimentError(
                "run_competition cannot checkpoint a one-shot stream: the "
                "fork fan-out consumes the stream once for all algorithms "
                "with no per-algorithm cursor — pass a replayable stream "
                "to use checkpoint/resume"
            )
        measurements, final_solutions, final_graph = _run_fanout(
            graph,
            stream,
            dataset=dataset,
            algorithms=algorithms,
            initial_solution=initial_solution,
            time_limit_seconds=time_limit_seconds,
            check_interval=check_interval,
            batch_size=batch_size,
            algorithm_options=algorithm_options,
        )
    else:
        measurements, final_solutions, final_graph = _run_sequential(
            graph,
            stream,
            dataset=dataset,
            algorithms=algorithms,
            initial_solution=initial_solution,
            time_limit_seconds=time_limit_seconds,
            check_interval=check_interval,
            batch_size=batch_size,
            algorithm_options=algorithm_options,
            checkpoint=checkpoint,
            resume=resume,
        )
    if attach_reference and final_graph is not None:
        reference = compute_reference(
            final_graph,
            node_budget=reference_node_budget,
            known_solutions=final_solutions,
        )
        for measurement in measurements.values():
            if measurement.finished:
                measurement.reference_size = reference.size
                measurement.reference_kind = reference.kind
    return measurements


def apply_stream_to_graph(graph: DynamicGraph, stream: UpdateStream) -> DynamicGraph:
    """Return a copy of ``graph`` with every operation of ``stream`` applied."""
    final_graph = graph.copy()
    stream.apply_all(final_graph)
    return final_graph


def _algorithm_extras(algorithm) -> Dict[str, float]:
    """Pull algorithm-specific statistics into the measurement's extra fields."""
    extra: Dict[str, float] = {}
    stats = getattr(algorithm, "stats", None)
    if stats is None:
        return extra
    swaps = getattr(stats, "swaps_performed", None)
    if swaps is not None:
        extra["swaps"] = float(sum(swaps.values()))
    perturbations = getattr(stats, "perturbations", None)
    if perturbations is not None:
        extra["perturbations"] = float(perturbations)
    scanned = getattr(stats, "index_entries_scanned", None)
    if scanned is not None:
        extra["index_scans"] = float(scanned)
    coalesced = getattr(stats, "operations_coalesced", None)
    if coalesced:
        extra["operations_coalesced"] = float(coalesced)
    batches = getattr(stats, "batches_applied", None)
    if batches:
        extra["batches_applied"] = float(batches)
    return extra


def elapsed_time_of(callable_, *args, **kwargs) -> Tuple[float, object]:
    """Utility: run a callable and return ``(elapsed_seconds, result)``."""
    start = time.perf_counter()
    result = callable_(*args, **kwargs)
    return time.perf_counter() - start, result
