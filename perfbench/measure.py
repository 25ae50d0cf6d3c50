"""Measure one workload: repeated timed trials, correctness checks, metrics.

Started by ``run.py`` in a process of its own, after the inputs exist, so
its peak RSS (and, for the service, that of its gateway children) holds
no input generation.  Prints one ``{"info": ...}`` line and, last, the
result line.  Exit code 1 when a correctness or determinism check fails.

A run repeats one fixed, seed-determined trial until ``--seconds`` have
passed (at least ``MIN_TRIALS`` times).  Timing metrics are computed per
trial, scaled to a reference host speed (see ``REFERENCE_S``), and
reported as the median over trials.  With ``--trace 1`` trials alternate
between traced and untraced, so the tracing overhead is measured in the
same process on the same input.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import socket
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import inputs
import tracing
from inputs import BATCH, HERE, PARAMS

MIN_TRIALS = 3
NS = 1_000_000_000

#: Counts that must repeat exactly across trials and across runs of one
#: seed; a drift is reported as a determinism bug, never averaged.
DETERMINISTIC = (
    "core.swaps",
    "core.candidates_processed",
    "coalesce.cancel_ratio",
    "temporal.ops_per_event",
    "replay.checkpoints",
    "tenant.batches",
    "tenant.sheds",
)

#: Per-layer metric -> (unit, the end-to-end metric it should move).
LAYER_METRICS = {
    "temporal.parse_us_per_event": ("us", "ops_per_s on temporal-replay"),
    "temporal.window_us_per_op": ("us", "ops_per_s on temporal-replay"),
    "temporal.ops_per_event": ("count", "none (a count)"),
    "protocol.fingerprint_us_per_op": ("us", "ops_per_s on temporal-replay"),
    "coalesce.us_per_op": ("us", "ops_per_s on service-bursty, less on temporal-replay"),
    "coalesce.cancel_ratio": ("ratio", "none (a count ratio)"),
    "core.apply_us_per_op": ("us", "ops_per_s on paper-updates first, less elsewhere"),
    "core.swaps": ("count", "final_size"),
    "core.candidates_processed": ("count", "none (a count)"),
    "replay.checkpoint_ms": ("ms", "ops_per_s on temporal-replay"),
    "replay.checkpoint_us_per_op": ("us", "ops_per_s on temporal-replay"),
    "replay.checkpoints": ("count", "none (a count)"),
    "replay.checkpoint_kb": ("KiB", "ops_per_s on temporal-replay"),
    "runner.timed_share": ("ratio", "none (timing-model diagnostic)"),
    "gateway.wire_us_per_op": ("us", "ingest_p50_ms and ops_per_s on service-bursty"),
    "tenant.offer_us": ("us", "ingest_p50_ms and ops_per_s on service-bursty"),
    "tenant.fingerprint_us_per_op": ("us", "ingest_p50_ms and ops_per_s on service-bursty"),
    "tenant.apply_us_per_op": ("us", "query_p50_ms on service-bursty"),
    "tenant.checkpoint_ms": ("ms", "ingest_p99_ms and query_p99_ms on service-bursty"),
    "tenant.peak_queue": ("count", "none (backlog witness)"),
    "tenant.sheds": ("count", "ok_ratio on service-bursty"),
    "tenant.batches": ("count", "none (a count)"),
    "trace.ops_per_s": ("1/s", "none (traced ops_per_s)"),
    "trace.untraced_ops_per_s": ("1/s", "none (untraced trials of the traced run)"),
    "trace.overhead": ("ratio", "none (traced vs untraced wall time, minus 1)"),
}

#: Per-layer quantities that cannot be taken from outside without changing
#: the program; reported by name instead of estimated.
UNMEASURED = {
    "tenant.queue_wait": "the wait of an admitted op in the tenant queue happens inside "
    "Tenant._serve, which has no public boundary",
    "tenant.bookkeeping": "the tenant's replay-buffer and subscriber work around "
    "engine.apply_batch is inside the private Tenant._apply_batch; "
    "tenant.apply_us_per_op covers the engine call only",
}


def _label(operation):
    return operation.vertex if operation.vertex is not None else operation.edge[0]


class Probe:
    """The benchmark's own clock at the engine boundary (untraced runs too).

    Records when the runner first asks for an operation, a timestamp per
    completed 64-op window, and, after each window, the latency of one
    membership read through the engine's public state API.  It also
    keeps the engine instance for the correctness checks.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.offered: Optional[int] = None
        self.windows: List[int] = []
        self.queries: List[int] = []
        self.engine = None
        self.checkpoints = 0
        self.updates = 0

    def read(self, engine, label) -> None:
        start = time.perf_counter_ns()
        graph = engine.graph
        graph.has_vertex(label) and engine.state.is_in_solution(label)
        self.queries.append(time.perf_counter_ns() - start)

    def install(self) -> List:
        import repro.core.base as base
        import repro.experiments.runner as runner

        probe = self
        engine_cls = base.DynamicMISBase
        apply_batch = engine_cls.apply_batch
        apply_update = engine_cls.apply_update
        save = runner.save_checkpoint

        def probed_batch(engine, operations, **kwargs):
            apply_batch(engine, operations, **kwargs)
            probe.windows.append(time.perf_counter_ns())
            probe.engine = engine
            probe.read(engine, _label(operations[0]))

        def probed_update(engine, operation):
            apply_update(engine, operation)
            probe.updates += 1
            if probe.updates % BATCH == 0:
                probe.windows.append(time.perf_counter_ns())
                probe.engine = engine
                probe.read(engine, _label(operation))

        def counted_save(*args, **kwargs):
            probe.checkpoints += 1
            return save(*args, **kwargs)

        patches: List = []
        tracing.rebind(patches, engine_cls, "apply_batch", probed_batch)
        tracing.rebind(patches, engine_cls, "apply_update", probed_update)
        tracing.rebind(patches, runner, "save_checkpoint", counted_save)
        return patches

    def intervals(self) -> List[int]:
        """Per-window latency: time between consecutive window completions."""
        marks = [self.offered] + self.windows
        return [b - a for a, b in zip(marks, marks[1:])]


class Offered:
    """Stream proxy that stamps the moment the runner first iterates it."""

    def __init__(self, stream, probe: Probe) -> None:
        from repro.updates.protocol import stream_description, stream_length_hint

        self._stream = stream
        self._probe = probe
        self.description = stream_description(stream)
        self._length = stream_length_hint(stream)

    def length_hint(self):
        return self._length

    def __iter__(self):
        self._probe.offered = time.perf_counter_ns()
        return iter(self._stream)


class Failure(Exception):
    """A correctness or determinism check failed."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def _factory(name: str) -> Callable:
    from repro.experiments.runner import create_algorithm

    def build(graph, solution, **options):
        return create_algorithm(name, graph, solution, **options)

    return build


def _engine_counts(engine, ops: int) -> Dict:
    stats = engine.stats
    return {
        "core.swaps": stats.total_swaps,
        "core.candidates_processed": stats.candidates_processed,
        "coalesce.cancel_ratio": stats.operations_coalesced / ops,
    }


# --------------------------------------------------------------------- #
# In-process workloads (the runner)
# --------------------------------------------------------------------- #
class RunnerWorkload:
    """Shared trial loop of the two workloads that go through run_algorithm."""

    algorithm = ""

    def __init__(self, entry: Path, work: Path) -> None:
        self.entry = entry
        self.work = work
        self.params = PARAMS[self.name]
        self.probe = Probe()
        self.digests: List[str] = []

    def trial(self, index: int, tracer: Optional[tracing.Tracer]) -> Dict:
        from repro.experiments.runner import run_algorithm
        from repro.service.tenant import engine_digest

        patches = tracing.install(tracer) if tracer is not None else []
        patches += self.probe.install()
        probe = self.probe
        probe.reset()
        try:
            graph, stream, options = self.inputs(index)
            start = time.perf_counter_ns()
            measurement = run_algorithm(
                self.algorithm, graph, Offered(stream, probe), dataset=self.name, **options
            )
            end = time.perf_counter_ns()
        finally:
            tracing.uninstall(patches)
        engine = probe.engine
        ops = measurement.num_updates
        _check(measurement.finished and ops > 0, f"trial {index} did not finish")
        _check(engine.solution_size == measurement.final_size, "engine/measurement size differ")
        self.digests.append(engine_digest(engine))
        counts = _engine_counts(engine, ops)
        counts.update(self.extra_counts(stream, probe))
        wall = (end - probe.offered) / NS
        return {
            "ops": ops,
            "attempted": ops,
            "failed": 0,
            "setup_s": (probe.offered - start) / NS,
            "ops_per_s": ops / wall,
            "final_size": measurement.final_size,
            "timed_share": measurement.elapsed_seconds / wall,
            "ingest_ns": probe.intervals(),
            "query_ns": list(probe.queries),
            "counts": counts,
        }

    def extra_counts(self, stream, probe: Probe) -> Dict:
        return {}


class TemporalReplay(RunnerWorkload):
    name = "temporal-replay"
    algorithm = "DyOneSwap"

    def prepare(self) -> None:
        self.events = self.entry / "events.txt"

    def stream(self):
        from repro.workloads.temporal import TemporalEventSource, temporal_update_stream

        return temporal_update_stream(TemporalEventSource(self.events), window=self.params["window"])

    def inputs(self, index: int):
        from repro.graphs import DynamicGraph
        from repro.workloads.replay import CheckpointConfig

        directory = self.work / f"ckpt-{index}"
        config = CheckpointConfig(directory, every=self.params["checkpoint_every"], keep=2)
        return DynamicGraph(), self.stream(), {"batch_size": BATCH, "checkpoint": config}

    def extra_counts(self, stream, probe: Probe) -> Dict:
        return {
            "temporal.ops_per_event": stream.length_hint() / stream.metadata["events"],
            "replay.checkpoints": probe.checkpoints,
        }

    def check(self, trials: List[Dict]) -> Dict:
        from repro.core.verification import greedy_independent_set, is_maximal_independent_set
        from repro.experiments.runner import create_algorithm
        from repro.graphs import DynamicGraph
        from repro.service.tenant import engine_digest
        from repro.updates.protocol import chunked
        from repro.workloads.replay import latest_checkpoint, load_checkpoint

        reference = create_algorithm(self.algorithm, DynamicGraph(), None)
        for window in chunked(self.stream(), BATCH):
            reference.apply_batch(window, coalesce=True)
        expected = engine_digest(reference)
        _check(
            all(d == expected for d in self.digests),
            "a trial's final engine differs from the in-process 64-op reference",
        )
        path = latest_checkpoint(self.work / "ckpt-0", self.algorithm)
        _check(path is not None, "the run left no checkpoint")
        saved = load_checkpoint(path)
        _check(saved.processed == trials[0]["ops"], "final checkpoint does not cover the last op")
        restored = saved.restore(_factory(self.algorithm))
        _check(engine_digest(restored) == expected, "restored final checkpoint differs from the reference")
        _check(
            is_maximal_independent_set(restored.graph, restored.solution()),
            "restored solution is not a maximal independent set",
        )
        return {"greedy_size": len(greedy_independent_set(restored.graph))}


class PaperUpdates(RunnerWorkload):
    name = "paper-updates"
    algorithm = "DyTwoSwap"

    def prepare(self) -> None:
        from repro.workloads.snapshot import graph_from_payload

        self.graph = graph_from_payload(json.loads((self.entry / "graph.json").read_text()))
        self.ops = inputs.load_ops(self.entry / "ops.json")

    def inputs(self, index: int):
        return self.graph, self.ops, {}

    def check(self, trials: List[Dict]) -> Dict:
        from repro.core.verification import (
            greedy_independent_set,
            is_independent_set,
            is_maximal_independent_set,
        )
        from repro.updates.operations import apply_update

        _check(len(set(self.digests)) == 1, "trials of one input ended in different engines")
        expected = self.graph.copy()
        for operation in self.ops:
            apply_update(expected, operation)
        engine = self.probe.engine
        _check(
            set(engine.graph.vertices()) == set(expected.vertices())
            and {frozenset(e) for e in engine.graph.edges()} == {frozenset(e) for e in expected.edges()},
            "engine graph differs from the naively updated graph",
        )
        solution = engine.solution()
        _check(is_independent_set(expected, solution), "solution is not independent")
        _check(is_maximal_independent_set(expected, solution), "solution is not maximal")
        return {"greedy_size": len(greedy_independent_set(expected))}


# --------------------------------------------------------------------- #
# The service workload
# --------------------------------------------------------------------- #
class LineClient:
    """Closed-loop NDJSON client on one Unix-socket connection."""

    def __init__(self, path: str, proc: subprocess.Popen, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + 30.0
        while True:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.connect(path)
                break
            except OSError:
                sock.close()
                if proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("gateway did not start listening")
                time.sleep(0.005)
        sock.settimeout(timeout)
        self._sock = sock
        self._file = sock.makefile("rwb")

    def roundtrip(self, raw: bytes) -> bytes:
        """Send one request line and return the raw reply line."""
        self._file.write(raw)
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise RuntimeError("gateway closed the connection")
        return line

    def request(self, document: Dict) -> Dict:
        from repro.updates.wire import encode_line

        return json.loads(self.roundtrip(encode_line(document)))

    def close(self) -> None:
        self._file.close()
        self._sock.close()


#: The client sends one query after every third ingest.  A request that
#: follows an ingest waits behind the batch that ingest started, and any
#: inline checkpoint after it.  So two thirds of the ingests wait behind a
#: batch and the ingest median sits inside that mode.  With a query after
#: every second ingest, half of them would wait: the median then sat
#: between two modes and spread by 26% between runs.  With a query after
#: every ingest, no ingest waits and ingest p99 only measures how often the
#: host stalls a process (26% spread).
QUERY_EVERY = 3


class ServiceBursty:
    name = "service-bursty"
    tenant = "bench"

    def __init__(self, entry: Path, work: Path) -> None:
        self.entry = entry
        self.work = work
        self.params = PARAMS[self.name]
        self.digests: List[str] = []
        self.tracer_dumps: List[Dict] = []

    def prepare(self) -> None:
        from repro.updates.wire import encode_line, operations_to_wire

        self.ops = inputs.load_ops(self.entry / "ops.json")
        windows = [self.ops[i : i + BATCH] for i in range(0, len(self.ops), BATCH)]
        # Requests are encoded before any clock starts: the load generator's
        # own cost stays out of the measured round trips.
        self.ingests = [
            (
                len(window),
                encode_line(
                    {
                        "cmd": "ingest",
                        "tenant": self.tenant,
                        "seq": i * BATCH + 1,
                        "ops": operations_to_wire(window),
                    }
                ),
            )
            for i, window in enumerate(windows)
        ]
        self.queries = [
            encode_line({"cmd": "query", "tenant": self.tenant, "vertex": _label(window[0])})
            for window in windows
        ]

    def _config(self, index: int) -> Path:
        from repro.service.config import ServiceConfig, TenantSpec

        trial_dir = self.work / f"trial-{index}"
        config = ServiceConfig(
            data_dir=str(trial_dir / "data"),
            unix_socket="gw.sock",
            tenants=(
                TenantSpec(
                    name=self.tenant,
                    algorithm="DyOneSwap",
                    batch_size=BATCH,
                    window_max=BATCH,
                    adaptive=False,
                    checkpoint_every=self.params["checkpoint_every"],
                    checkpoint_keep=2,
                    snapshot=str(self.entry / "snapshot.json"),
                ),
            ),
        )
        trial_dir.mkdir(parents=True)
        path = trial_dir / "service.json"
        config.save(path)
        return trial_dir

    def trial(self, index: int, tracer: Optional[tracing.Tracer]) -> Dict:
        trial_dir = self._config(index)
        trace_out = trial_dir / "trace.json"
        command = [sys.executable, str(HERE / "gateway.py"), "--config", "service.json"]
        if tracer is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(inputs.SRC)
        log = (trial_dir / "gateway.log").open("wb")
        start = time.perf_counter_ns()
        proc = subprocess.Popen(command, cwd=trial_dir, env=env, stdout=log, stderr=subprocess.STDOUT)
        client = None
        try:
            # Relative: an absolute checkout path could exceed the 108-byte
            # limit of a Unix socket address.
            client = LineClient(os.path.relpath(trial_dir / "gw.sock"), proc)
            while not client.request({"cmd": "ready"}).get("ready"):
                time.sleep(0.002)
            ready = time.perf_counter_ns()
            ingest_ns: List[int] = []
            query_ns: List[int] = []
            attempted = failed = 0
            clock = time.perf_counter_ns
            first = clock()
            for i, ((size, raw), query) in enumerate(zip(self.ingests, self.queries)):
                while True:
                    sent = clock()
                    line = client.roundtrip(raw)
                    ingest_ns.append(clock() - sent)
                    attempted += size
                    if json.loads(line).get("ok"):
                        break
                    failed += size
                    time.sleep(0.01)
                if i % QUERY_EVERY != QUERY_EVERY - 1:
                    continue
                sent = clock()
                line = client.roundtrip(query)
                query_ns.append(clock() - sent)
                attempted += 1
                failed += 0 if json.loads(line).get("ok") else 1
            durable = client.request({"cmd": "checkpoint", "tenant": self.tenant})
            end = clock()
            ops = len(self.ops)
            _check(durable.get("ok") and durable["durable"] == ops, f"not durable: {durable}")
            digest = client.request({"cmd": "digest", "tenant": self.tenant})
            _check(digest.get("ok"), f"digest failed: {digest}")
            self.digests.append(digest["digest"])
            stats = client.request({"cmd": "stats", "tenant": self.tenant})["stats"]
            client.request({"cmd": "shutdown"})
            _check(proc.wait(timeout=60) == 0, "gateway exited with an error")
        finally:
            if client is not None:
                client.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            log.close()
        if tracer is not None:
            tracer.merge(json.loads(trace_out.read_text()))
        wall = (end - first) / NS
        shutil.rmtree(trial_dir / "data", ignore_errors=True)
        return {
            "ops": ops,
            "attempted": attempted,
            "failed": failed,
            "setup_s": (ready - start) / NS,
            "ops_per_s": ops / wall,
            "final_size": None,
            "timed_share": 0.0,
            "ingest_ns": ingest_ns,
            "query_ns": query_ns,
            "counts": {
                "tenant.batches": stats["batches"],
                "tenant.sheds": stats["sheds"],
            },
            "peak_queue": stats["peak_queue"],
        }

    def check(self, trials: List[Dict]) -> Dict:
        from repro.core.verification import greedy_independent_set, is_maximal_independent_set
        from repro.service.tenant import engine_digest
        from repro.updates.protocol import chunked
        from repro.workloads.snapshot import load_snapshot

        reference = load_snapshot(self.entry / "snapshot.json", _factory("DyOneSwap"))
        for window in chunked(self.ops, BATCH):
            reference.apply_batch(window, coalesce=True)
        _check(
            all(d == engine_digest(reference) for d in self.digests),
            "tenant digest differs from the in-process 64-op reference",
        )
        _check(
            is_maximal_independent_set(reference.graph, reference.solution()),
            "reference solution is not a maximal independent set",
        )
        for trial in trials:
            trial["final_size"] = reference.solution_size
            trial["counts"].update(_engine_counts(reference, trial["ops"]))
        return {
            "greedy_size": len(greedy_independent_set(reference.graph)),
            "peak_queue": max(t["peak_queue"] for t in trials),
        }


WORKLOADS = {cls.name: cls for cls in (TemporalReplay, PaperUpdates, ServiceBursty)}


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def _percentile(values: List[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


#: Host-speed calibration: a fixed pure-Python loop, timed around every
#: trial.  The 2-core host the benchmark was tuned on changes speed by
#: 25-50% within seconds (a loop like this one: 25% IQR between 0.2 s
#: samples, 10-13% between 20 s windows); trials slow down and speed up
#: with it.  Every timing metric is therefore reported at the reference
#: speed: a trial's wall-clock value scaled by ``calibration / REFERENCE``.
#: That cut the run-to-run spread of ops_per_s on service-bursty from
#: 0.19 to 0.03 (six seeds).  The raw values are in the info line.
CALIBRATION_LOOP = 20_000
CALIBRATION_SAMPLES = 5
#: Median time of the loop on that host; only fixes the scale.
REFERENCE_S = 0.002


def _calibration_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def calibrate() -> List[float]:
    return [_calibration_loop() for _ in range(CALIBRATION_SAMPLES)]


def _median_ms(trials: List[Dict], key: str, q: int = 50) -> float:
    """Median over trials of each trial's ``q``-th percentile of ``key``, at reference speed."""
    per_trial = []
    for t in trials:
        samples = t[key]
        value = statistics.median(samples) if q == 50 else _percentile(samples, q)
        per_trial.append(value / t["host_factor"] / 1e6)
    return statistics.median(per_trial)


def end_to_end(trials: List[Dict], peak_rss_mb: float, greedy_size: int) -> Dict:
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    values = {
        "ops_per_s": (statistics.median(t["ops_per_s"] * t["host_factor"] for t in trials), "1/s"),
        "setup_s": (statistics.median(t["setup_s"] / t["host_factor"] for t in trials), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "final_size": (trials[0]["final_size"], "count"),
        "accuracy": (trials[0]["final_size"] / greedy_size, "ratio"),
        "ok_ratio": (1.0 - failed / attempted, "ratio"),
        "ingest_p50_ms": (_median_ms(trials, "ingest_ns"), "ms"),
        "ingest_p99_ms": (_median_ms(trials, "ingest_ns", 99), "ms"),
        "query_p50_ms": (_median_ms(trials, "query_ns"), "ms"),
        "query_p99_ms": (_median_ms(trials, "query_ns", 99), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(tracer: tracing.Tracer, traced: List[Dict], untraced: List[Dict], extra: Dict) -> Dict:
    ops = sum(t["ops"] for t in traced)
    per_trial = len(traced)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def p50_ms(name: str) -> float:
        samples = tracer.samples.get(name)
        return statistics.median(samples) / 1e6 if samples else 0.0

    counts = traced[0]["counts"]
    checkpoint_calls = tracer.calls("replay.checkpoint")
    traced_rate = statistics.median(t["ops_per_s"] * t["host_factor"] for t in traced)
    untraced_rate = statistics.median(t["ops_per_s"] * t["host_factor"] for t in untraced)
    values = {
        "temporal.parse_us_per_event": ratio(tracer.self_us("temporal.parse"), tracer.items("temporal.parse")),
        "temporal.window_us_per_op": ratio(tracer.self_us("temporal.window"), tracer.items("temporal.window")),
        "temporal.ops_per_event": counts.get("temporal.ops_per_event", 0.0),
        "protocol.fingerprint_us_per_op": ratio(tracer.self_us("protocol.next", "protocol.take"), ops),
        "coalesce.us_per_op": ratio(tracer.total_us("coalesce"), tracer.items("coalesce")),
        "coalesce.cancel_ratio": counts.get("coalesce.cancel_ratio", 0.0),
        "core.apply_us_per_op": ratio(tracer.self_us("core.apply_batch", "core.apply_update"), ops),
        "core.swaps": counts.get("core.swaps", 0),
        "core.candidates_processed": counts.get("core.candidates_processed", 0),
        "replay.checkpoint_ms": p50_ms("replay.checkpoint"),
        "replay.checkpoint_us_per_op": ratio(tracer.total_us("replay.checkpoint"), ops),
        "replay.checkpoints": ratio(checkpoint_calls, per_trial),
        "replay.checkpoint_kb": ratio(tracer.counts.get("replay.checkpoint.bytes", 0) / 1024, checkpoint_calls),
        "runner.timed_share": statistics.median(t["timed_share"] for t in untraced),
        "gateway.wire_us_per_op": ratio(tracer.self_us("gateway.wire"), ops),
        "tenant.offer_us": ratio(tracer.total_us("tenant.offer"), tracer.calls("tenant.offer")),
        "tenant.fingerprint_us_per_op": ratio(tracer.total_us("tenant.fingerprint"), ops),
        "tenant.apply_us_per_op": ratio(tracer.total_us("core.apply_batch"), ops)
        if tracer.calls("tenant.offer")
        else 0.0,
        "tenant.checkpoint_ms": p50_ms("tenant.checkpoint"),
        "tenant.peak_queue": extra.get("peak_queue", 0),
        "tenant.sheds": counts.get("tenant.sheds", 0),
        "tenant.batches": counts.get("tenant.batches", 0),
        "trace.ops_per_s": traced_rate,
        "trace.untraced_ops_per_s": untraced_rate,
        "trace.overhead": untraced_rate / traced_rate - 1.0,
    }
    return {
        name: {"value": values[name], "unit": unit} for name, (unit, _moves) in LAYER_METRICS.items()
    }


def _check_counts(trials: List[Dict], record: Path) -> None:
    """Deterministic counts must repeat across trials and across runs."""
    counts = [{k: t["counts"][k] for k in DETERMINISTIC if k in t["counts"]} for t in trials]
    for index, other in enumerate(counts[1:], start=1):
        _check(other == counts[0], f"determinism bug: trial {index} counts {other} != {counts[0]}")
    if record.exists():
        previous = json.loads(record.read_text())
        _check(previous == counts[0], f"determinism bug: counts {counts[0]} != earlier run {previous}")
    else:
        record.write_text(json.dumps(counts[0], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="measure one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--entry", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](Path(args.entry), Path(args.work))
    workload.prepare()
    tracer = tracing.Tracer()
    traced: List[Dict] = []
    untraced: List[Dict] = []
    try:
        start = time.monotonic()
        index = 0
        while True:
            trace_this = bool(args.trace) and index % 2 == 0
            before = calibrate()
            result = workload.trial(index, tracer if trace_this else None)
            result["host_factor"] = statistics.median(before + calibrate()) / REFERENCE_S
            (traced if trace_this else untraced).append(result)
            index += 1
            enough = len(untraced) >= (2 if args.trace else MIN_TRIALS) and (
                not args.trace or len(traced) >= 2
            )
            if enough and time.monotonic() - start >= args.seconds:
                break
        if args.workload == ServiceBursty.name:
            rss_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        trials = traced + untraced
        extra = workload.check(trials)
        sizes = {t["final_size"] for t in trials}
        _check(len(sizes) == 1, f"final sizes differ across trials: {sorted(sizes)}")
        _check_counts(trials, Path(args.entry) / "counts.json")
    except Failure as failure:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
        attempted = sum(t["attempted"] for t in traced + untraced) or 1
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 1
    attempted = sum(t["attempted"] for t in trials)
    failed = sum(t["failed"] for t in trials)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trials": len(trials),
        "traced_trials": len(traced),
        "ops_per_trial": trials[0]["ops"],
        "ops_per_s_by_trial": [round(t["ops_per_s"], 1) for t in trials],
        "host_factor_by_trial": [round(t["host_factor"], 4) for t in trials],
        "raw_ops_per_s": statistics.median(t["ops_per_s"] for t in untraced),
        "ingest_samples_per_trial": len(trials[0]["ingest_ns"]),
        "query_samples_per_trial": len(trials[0]["query_ns"]),
        "failed_ratio": failed / attempted,
        "counts": {k: trials[0]["counts"].get(k) for k in DETERMINISTIC if k in trials[0]["counts"]},
        **extra,
    }
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, extra)
        info["moves"] = {name: moves for name, (_unit, moves) in LAYER_METRICS.items()}
        info["unmeasured"] = UNMEASURED
    else:
        metrics = end_to_end(untraced, rss_kib / 1024.0, extra["greedy_size"])
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
