"""A deterministic workload grid over the batched single-process engine.

The hypothesis suites (``test_differential_oracle.py``,
``test_eager_lazy_equivalence.py``, ``test_fork.py``) draw small random
graphs from one family.  This grid pins the same differential oracles on
fixed workloads from every stream family the library generates — mixed
edge/vertex streams on random and power-law graphs, the Theorem 3 witnesses
(subdivided ``K6`` and ``Q3``) and their flicker stream, flash-crowd slot
recycling, sliding windows, and one hand-built batch that deletes a solution
vertex, recycles its slot and inserts edges around it — for each maintainer
and two batch sizes.  Every workload is checked four ways:

* **structural oracle** — the final graph equals one-by-one application to
  a plain graph, the solution is k-maximal on it and the queues are drained,
* **eager/lazy** — both bookkeeping variants end bit-identical (snapshot
  payload, apart from the ``lazy`` flag itself),
* **crash/uninterrupted** — a snapshot taken at a batch boundary mid-stream,
  restored and fed the rest of the stream, ends bit-identical to the
  uninterrupted run,
* **fork/uninterrupted** — a fork taken at the same boundary and fed the
  rest ends bit-identical to the uninterrupted run, and the parent it was
  forked from is byte-identical to its state at the fork.
"""

from __future__ import annotations

import json

import pytest

from repro.core.framework import KSwapFramework
from repro.core.one_swap import DyOneSwap
from repro.core.two_swap import DyTwoSwap
from repro.core.verification import is_k_maximal_independent_set
from repro.generators.power_law import power_law_random_graph
from repro.generators.random_graphs import gnm_random_graph
from repro.generators.worst_case import (
    flicker_update_stream,
    subdivided_complete_graph,
    subdivided_hypercube_graph,
)
from repro.graphs.dynamic_graph import DynamicGraph
from repro.updates.operations import UpdateOperation, apply_update
from repro.updates.streams import (
    flash_crowd_stream,
    mixed_update_stream,
    sliding_window_stream,
)
from repro.workloads.snapshot import algorithm_from_payload, algorithm_to_payload


def _gnm_mixed():
    graph = gnm_random_graph(120, 300, seed=21)
    return graph, list(mixed_update_stream(graph, 400, seed=22, edge_fraction=0.7))


def _power_law_mixed():
    graph = power_law_random_graph(120, 2.3, seed=23)
    return graph, list(mixed_update_stream(graph, 400, seed=24, edge_fraction=0.8))


def _subdivided_k6():
    graph = subdivided_complete_graph(6)[0]
    return graph, list(mixed_update_stream(graph, 300, seed=31, edge_fraction=0.6))


def _subdivided_q3():
    graph = subdivided_hypercube_graph(3)[0]
    return graph, list(mixed_update_stream(graph, 300, seed=32, edge_fraction=0.6))


def _flicker_k5():
    graph, stream = flicker_update_stream(5, rounds=40, seed=33)
    return graph, list(stream)


def _flash_crowd():
    # Bursts of transient vertices, most retracted before the next burst:
    # slots are freed and recycled constantly.
    graph = gnm_random_graph(100, 200, seed=41)
    ops = flash_crowd_stream(
        graph, 600, burst_size=24, max_neighbors=2, churn=0.9, seed=42
    )
    return graph, list(ops)


def _sliding_window():
    graph = gnm_random_graph(80, 120, seed=51)
    ops = sliding_window_stream(graph, 500, window=60, flicker=0.3, seed=52)
    return graph, list(ops)


def _solution_slot_recycled_in_batch():
    # One batch deletes a solution vertex (freeing its slot), inserts a new
    # vertex (recycling that very slot: the free list is LIFO) and inserts
    # and deletes edges around both, undoes part of it, and a mixed stream
    # carries on over the result.
    graph = DynamicGraph(edges=[(i, i + 1) for i in range(39)])
    probe = DyOneSwap(graph.copy())
    victim = min(v for v in probe.solution() if 30 <= v <= 35)
    ops = [UpdateOperation.delete_vertex(victim)]
    ops.append(UpdateOperation.insert_vertex("reborn", [0, 18]))
    ops.extend(UpdateOperation.insert_edge(i, i + 5) for i in range(11))
    ops.extend(UpdateOperation.insert_edge(i, i + 9) for i in range(7))
    ops.extend(UpdateOperation.insert_edge(i, i + 11) for i in range(5))
    ops.extend(UpdateOperation.delete_edge(17 + i, 18 + i) for i in range(10))
    ops.append(UpdateOperation.delete_vertex("reborn"))
    ops.extend(UpdateOperation.delete_edge(i, i + 5) for i in range(11))
    ops.append(UpdateOperation.insert_vertex(victim, [victim - 1]))
    rest = mixed_update_stream(_naive_graph(graph, ops), 120, seed=61)
    return graph, ops + list(rest)


WORKLOADS = {
    "gnm_mixed": _gnm_mixed,
    "power_law_mixed": _power_law_mixed,
    "subdivided_K6": _subdivided_k6,
    "subdivided_Q3": _subdivided_q3,
    "flicker_K5": _flicker_k5,
    "flash_crowd": _flash_crowd,
    "sliding_window": _sliding_window,
    "solution_slot_recycled": _solution_slot_recycled_in_batch,
}

ALGORITHMS = {
    "DyOneSwap": lambda graph, lazy: DyOneSwap(graph, lazy=lazy),
    "DyTwoSwap": lambda graph, lazy: DyTwoSwap(graph, lazy=lazy),
    "KSwap3": lambda graph, lazy: KSwapFramework(graph, k=3, lazy=lazy),
}

BATCH_SIZES = (16, 64)

GRID = pytest.mark.parametrize(
    "workload, algorithm, batch_size",
    [
        (workload, algorithm, batch_size)
        for workload in WORKLOADS
        for algorithm in ALGORITHMS
        for batch_size in BATCH_SIZES
    ],
)

_WORKLOAD_CACHE = {}


def _workload(name):
    """The (graph, ops) pair of a workload, built once per session."""
    if name not in _WORKLOAD_CACHE:
        _WORKLOAD_CACHE[name] = WORKLOADS[name]()
    graph, ops = _WORKLOAD_CACHE[name]
    return graph.copy(), ops


def _run(algorithm, graph, ops, batch_size, *, lazy=False):
    engine = ALGORITHMS[algorithm](graph, lazy)
    engine.apply_stream(iter(ops), batch_size=batch_size)
    return engine


def _payload(engine, *, drop_lazy=False):
    payload = algorithm_to_payload(engine)
    if drop_lazy:
        del payload["lazy"]
    return json.dumps(payload, sort_keys=True)


def _naive_graph(graph, ops):
    """The structural oracle: ``ops`` applied one by one, no maintenance."""
    final = graph.copy()
    for op in ops:
        apply_update(final, op)
    return final


def _split(ops, batch_size):
    """A batch-aligned cut near the middle of ``ops``."""
    cut = max(1, (len(ops) // 2) // batch_size) * batch_size
    assert cut < len(ops), "workload too short to cut mid-stream"
    return ops[:cut], ops[cut:]


@GRID
def test_structural_oracle(workload, algorithm, batch_size):
    graph, ops = _workload(workload)
    naive_graph = _naive_graph(graph, ops)
    engine = _run(algorithm, graph, ops, batch_size)
    assert engine.graph == naive_graph
    assert not engine.has_pending_candidates()
    assert is_k_maximal_independent_set(naive_graph, engine.solution(), engine.k)
    engine.state.check_invariants()
    engine.graph.check_consistency()


@GRID
def test_eager_lazy_bit_identical(workload, algorithm, batch_size):
    graph, ops = _workload(workload)
    eager = _run(algorithm, graph.copy(), ops, batch_size, lazy=False)
    lazy = _run(algorithm, graph, ops, batch_size, lazy=True)
    assert _payload(lazy, drop_lazy=True) == _payload(eager, drop_lazy=True)
    lazy.state.check_invariants()


@GRID
def test_snapshot_resume_matches_uninterrupted(workload, algorithm, batch_size):
    graph, ops = _workload(workload)
    head, tail = _split(ops, batch_size)
    uninterrupted = _run(algorithm, graph.copy(), ops, batch_size)
    first_half = _run(algorithm, graph, head, batch_size)
    payload = json.loads(json.dumps(algorithm_to_payload(first_half)))
    resumed = algorithm_from_payload(payload)
    resumed.apply_stream(iter(tail), batch_size=batch_size)
    assert _payload(resumed) == _payload(uninterrupted)


@GRID
def test_fork_matches_uninterrupted(workload, algorithm, batch_size):
    graph, ops = _workload(workload)
    head, tail = _split(ops, batch_size)
    uninterrupted = _run(algorithm, graph.copy(), ops, batch_size)
    parent = _run(algorithm, graph, head, batch_size)
    at_fork = _payload(parent)
    fork = parent.fork()
    fork.apply_stream(iter(tail), batch_size=batch_size)
    assert _payload(fork) == _payload(uninterrupted)
    assert _payload(parent) == at_fork
    parent.graph.check_consistency()
