"""The library has no third-party runtime dependency.

Imports the public entry points in a fresh interpreter and asserts that
nothing pulled in numpy or the shared-memory machinery: ``repro`` runs on
the Python standard library alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

MODULES = (
    "repro",
    "repro.core",
    "repro.experiments.runner",
    "repro.workloads.temporal",
    "repro.service.gateway",
)

FORBIDDEN = ("numpy", "multiprocessing.shared_memory")


def test_entry_points_import_only_the_standard_library():
    source = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import importlib, json, sys\n"
        f"for name in {MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(json.dumps(sorted(m for m in {FORBIDDEN!r} if m in sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(source), env.get("PYTHONPATH")))
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert json.loads(result.stdout) == []
