"""The benchmark's own test: python3 -m pytest perfbench/test_bench.py

Runs every workload at a tiny size and checks that every metric of
BENCHMARK.json is produced and that a corrupted output counts as a failure
(run.py --smoke; under a minute on two cores).
"""

import subprocess
import sys
from pathlib import Path


def test_smoke():
    run = Path(__file__).resolve().parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=900)
    assert proc.returncode == 0, proc.stderr[-3000:]
