"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload temporal-replay --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Three steps, each in its own process:

1. ``inputs.py`` generates the seed's inputs unless they are cached in
   ``perfbench/.cache`` (generation time is printed as information only);
2. ``measure.py`` runs the timed trials, checks the outputs and prints the
   metrics;
3. this script relays its output, so the result JSON is the last line.

Exit code 0 on a correct run, 1 when a check failed, 2 when the program
is not there (a directory holding only the benchmark).  See
``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("temporal-replay", "paper-updates", "service-bursty")

#: Upper bounds that keep a run inside its 180-second budget.
GENERATE_TIMEOUT = 90
MEASURE_SLACK = 80


def _child(command, timeout: float) -> subprocess.CompletedProcess:
    """Run a step in its own process group; kill the whole group on timeout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {command[1]} exceeded {timeout:.0f}s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return subprocess.CompletedProcess(command, proc.returncode, out.decode(), None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="dynamic-MIS benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    python = sys.executable
    generated = _child(
        [python, str(HERE / "inputs.py"), "--workload", args.workload, "--seed", str(args.seed)],
        GENERATE_TIMEOUT,
    )
    if generated.returncode != 0:
        print("perfbench: input generation failed", file=sys.stderr)
        return 1
    print(generated.stdout.strip().splitlines()[-1])
    sys.path.insert(0, str(HERE))
    import inputs

    entry = inputs.entry_dir(args.workload, args.seed, inputs.source_hash())
    work = HERE / ".work" / f"{os.getpid()}-{args.workload}"
    work.mkdir(parents=True)
    try:
        measured = _child(
            [
                python,
                str(HERE / "measure.py"),
                "--workload",
                args.workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(args.trace),
                "--entry",
                str(entry),
                "--work",
                str(work),
            ],
            args.seconds + MEASURE_SLACK,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = measured.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith('{"correct"'):
        print("perfbench: measurement produced no result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0 if json.loads(lines[-1])["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
