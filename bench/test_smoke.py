"""The benchmark's own test: `python -m pytest bench`.

Runs every workload at a tiny size, traced and untraced, and fails unless
each metric listed in BENCHMARK.json appears with its unit and no op failed.
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert proc.stdout.strip().endswith("smoke: ok")
