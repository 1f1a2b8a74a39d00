"""The benchmark's smoke mode runs against this checkout.

perfbench/ wraps the package's public names (retract_array, d_rho_array,
feasibility_error, warm_start, ...) and reads the StiefelPoint a run
returns, so a rename or a changed return type here breaks it; the smoke
mode replays every workload briefly, traced and untraced, and checks its
metric names against BENCHMARK.json.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_smoke():
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
