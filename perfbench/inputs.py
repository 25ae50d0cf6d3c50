"""Workload inputs: generated from the seed, cached per (workload, seed).

Generation is slow next to the runs it feeds (``flash_crowd_stream`` and
``mixed_update_stream`` simulate every operation on a scratch graph), so it
happens once, in its own process, outside every metric; the measuring
process only loads the files.  Each cache entry is keyed by the workload,
the seed, the generation parameters and a hash of the program's source
tree, so a change to a generator never reuses a stale input.

Run as a script to (re)generate one entry::

    python3 perfbench/inputs.py --workload temporal-replay --seed 1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"

BATCH = 64

#: Generation parameters per workload.  Sized so one trial takes 1-3 s on
#: a 2-core container, which lets a run repeat it several times.
PARAMS: Dict[str, Dict] = {
    "temporal-replay": {
        "events": 30_000,
        "vertices": 4_000,
        "window": 2_000,
        "checkpoint_every": BATCH * 64,
    },
    "paper-updates": {"vertices": 5_000, "beta": 2.2, "updates": 50_000, "edge_fraction": 0.8},
    "service-bursty": {
        "vertices": 2_000,
        "beta": 2.2,
        "updates": BATCH * 500,
        "burst_size": 24,
        "churn": 0.9,
        # 32 batches: with a query after every third ingest, two of every
        # three checkpoints land on an ingest, and 2% of the ingests (and 3%
        # of the queries) wait behind one, so both p99s fall inside that
        # mode instead of on its edge.
        "checkpoint_every": BATCH * 32,
    },
}


def source_hash() -> str:
    """SHA-256 over the program's source tree (paths and bytes)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def entry_dir(workload: str, seed: int, src_hash: str) -> Path:
    key = json.dumps([workload, seed, PARAMS[workload], src_hash], sort_keys=True)
    return CACHE / f"{workload}-{seed}-{hashlib.sha256(key.encode()).hexdigest()[:12]}"


def _write_ops(operations, path: Path) -> None:
    from repro.updates.protocol import encode_operation

    path.write_text(json.dumps([encode_operation(op) for op in operations]))


def load_ops(path: Path) -> List:
    from repro.updates.protocol import decode_operation

    return [decode_operation(entry) for entry in json.loads(path.read_text())]


def _generate(workload: str, seed: int, out: Path) -> None:
    from repro.generators import power_law_random_graph
    from repro.workloads.snapshot import graph_to_payload

    params = PARAMS[workload]
    if workload == "temporal-replay":
        from repro.workloads.temporal import iter_synthetic_temporal_events, write_temporal_edge_list

        events = iter_synthetic_temporal_events(
            params["events"], num_vertices=params["vertices"], seed=seed
        )
        write_temporal_edge_list(events, out / "events.txt")
        return
    graph = power_law_random_graph(params["vertices"], params["beta"], seed=seed)
    if workload == "paper-updates":
        from repro.updates import mixed_update_stream

        stream = mixed_update_stream(
            graph, params["updates"], edge_fraction=params["edge_fraction"], seed=seed + 7919
        )
        (out / "graph.json").write_text(json.dumps(graph_to_payload(graph)))
    else:
        from repro.experiments.runner import create_algorithm
        from repro.updates import flash_crowd_stream
        from repro.workloads.snapshot import save_snapshot

        stream = flash_crowd_stream(
            graph,
            params["updates"],
            burst_size=params["burst_size"],
            churn=params["churn"],
            seed=seed + 7919,
        )
        save_snapshot(create_algorithm("DyOneSwap", graph, None), out / "snapshot.json")
    _write_ops(stream, out / "ops.json")


def ensure(workload: str, seed: int, src_hash: str) -> float:
    """Generate the cache entry unless present; return generation seconds (0 if cached)."""
    target = entry_dir(workload, seed, src_hash)
    if target.is_dir():
        return 0.0
    CACHE.mkdir(parents=True, exist_ok=True)
    partial = target.with_name(target.name + f".partial-{os.getpid()}")
    partial.mkdir()
    start = time.perf_counter()
    try:
        _generate(workload, seed, partial)
        partial.rename(target)
    finally:
        shutil.rmtree(partial, ignore_errors=True)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    seconds = ensure(args.workload, args.seed, source_hash())
    print(json.dumps({"generate_s": seconds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
