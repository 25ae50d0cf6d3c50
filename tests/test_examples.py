"""Smoke tests that the example scripts run end to end.

Each example runs as a script in its own interpreter, the way a user runs it
(``PYTHONPATH=src python examples/<name>.py``), and must exit 0.  The full
paper-reproduction driver takes tens of seconds, so it runs in
``scripts/ci_check.sh`` instead; here it is only imported.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"


def _run_example(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / f"{name}.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"examples/{name}.py exited {result.returncode}\n{result.stderr}"
    )
    return result.stdout


class TestExamples:
    def test_examples_directory_contains_required_scripts(self):
        names = {path.name for path in EXAMPLES_DIR.glob("*.py")}
        assert {"quickstart.py", "social_network_maintenance.py",
                "streaming_window.py", "temporal_replay.py",
                "reproduce_paper.py", "service_demo.py"} <= names

    def test_quickstart_runs(self):
        output = _run_example("quickstart")
        assert "DyTwoSwap accuracy" in output
        assert "Theorem 2" in output

    def test_social_network_example_runs(self):
        output = _run_example("social_network_maintenance")
        assert "DyTwoSwap" in output
        assert "DGTwoDIS" in output

    def test_streaming_window_example_runs(self):
        output = _run_example("streaming_window")
        assert "per-update latency" in output

    def test_temporal_replay_example_runs(self):
        # Drives run_algorithm's checkpoint and resume_from paths.
        output = _run_example("temporal_replay")
        assert "cache: first ingest miss, second ingest hit" in output

    def test_service_demo_example_runs(self):
        output = _run_example("service_demo")
        assert "act 1: ingested 192 updates" in output
        assert "act 2: engine crashed" in output
        assert "bit-identical engine: True" in output

    def test_reproduce_paper_module_importable(self):
        path = EXAMPLES_DIR / "reproduce_paper.py"
        spec = importlib.util.spec_from_file_location("examples_reproduce_paper", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
        assert callable(module.show)
